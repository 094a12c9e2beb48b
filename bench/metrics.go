// Package bench is the PRESS performance ledger: six real-cluster
// workloads driven over loopback HTTP by the benchmark's own closed-loop
// driver, eight gated end-to-end metrics per workload, and per-layer
// numbers from a separate traced run and from isolated layer probes.
// README.md defines every metric and workload; BENCHMARK.json at the
// repository root names the same ones for the PR driver.
package bench

// Metric names one reported number. Bound is set on end-to-end metrics
// only: the share of the baseline's median by which the metric may
// worsen before a change counts as a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// EndToEnd lists the gated metrics, measured with Config.Tracer,
// Config.Metrics and Config.Telemetry all nil. Each bound is about three
// times the widest run-to-run spread (interquartile range over median,
// ten seeds) the metric showed on any workload in the two campaigns run
// when the baseline was recorded, capped at a quarter; README.md has the
// spreads.
var EndToEnd = []Metric{
	{"throughput_rps", "req/s", higher, 0.25},
	{"latency_p50_us", "us", lower, 0.25},
	{"latency_p90_us", "us", lower, 0.25},
	{"cpu_us_per_req", "us", lower, 0.25},
	{"allocs_per_req", "count", lower, 0.04},
	{"alloc_bytes_per_req", "bytes", lower, 0.05},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// PerLayer lists the ungated metrics of single layers; the prefix is the
// module. They come from the traced run (--trace 1): counter deltas of
// its untraced reference phase, the span tree of its traced phase, and
// the layer probes.
var PerLayer = []Metric{
	{"driver.requests_attempted", "count", higher, 0},
	{"driver.requests_ok", "count", higher, 0},
	{"driver.requests_failed", "count", lower, 0},
	{"driver.latency_p99_us", "us", lower, 0},
	{"driver.latency_p999_us", "us", lower, 0},
	{"driver.latency_max_us", "us", lower, 0},
	{"driver.goodput_mbps", "Mbit/s", higher, 0},
	{"driver.rps_first_window", "req/s", higher, 0},
	{"driver.rps_last_window", "req/s", higher, 0},
	{"driver.null_rps", "req/s", higher, 0},
	{"driver.null_p50_us", "us", lower, 0},
	{"driver.null_allocs_per_req", "count", lower, 0},
	{"driver.trace_overhead_frac", "fraction", lower, 0},

	{"server.node.local_hit_frac", "fraction", higher, 0},
	{"server.node.forwarded_frac", "fraction", lower, 0},
	{"server.node.remote_served_per_req", "count", lower, 0},
	{"server.node.errors", "count", lower, 0},

	{"server.phase.accept_queue_us", "us", lower, 0},
	{"server.phase.dispatch_us", "us", lower, 0},
	{"server.phase.net_us", "us", lower, 0},
	{"server.phase.credit_stall_us", "us", lower, 0},
	{"server.phase.staging_copy_us", "us", lower, 0},
	{"server.phase.disk_us", "us", lower, 0},
	{"server.phase.reply_us", "us", lower, 0},
	{"server.phase.other_us", "us", lower, 0},
	{"server.comm_share", "fraction", lower, 0},
	{"server.request.local_p50_us", "us", lower, 0},
	{"server.request.forwarded_p50_us", "us", lower, 0},
	{"server.request.hop_cost_us", "us", lower, 0},
	{"server.edge_us", "us", lower, 0},

	{"server.transport.msgs_per_req", "count", lower, 0},
	{"server.transport.msg_bytes_per_req", "bytes", lower, 0},
	{"server.transport.forward_per_req", "count", lower, 0},
	{"server.transport.file_per_req", "count", lower, 0},
	{"server.transport.caching_per_req", "count", lower, 0},
	{"server.transport.load_per_req", "count", lower, 0},
	{"server.transport.flow_per_req", "count", lower, 0},
	{"server.transport.copied_bytes_per_req", "bytes", lower, 0},
	{"server.transport.credit_stalls_per_kreq", "count", lower, 0},

	{"server.codec.encode_small_ns", "ns", lower, 0},
	{"server.codec.decode_small_ns", "ns", lower, 0},
	{"server.codec.encode_32k_ns", "ns", lower, 0},
	{"server.codec.decode_32k_ns", "ns", lower, 0},
	{"server.codec.encode_allocs", "count", lower, 0},
	{"server.codec.decode_allocs", "count", lower, 0},

	{"server.store.disk_reads_per_req", "count", lower, 0},
	{"server.store.read_8k_ns", "ns", lower, 0},
	{"server.start_ms", "ms", lower, 0},

	{"via.sends_per_req", "count", lower, 0},
	{"via.rmw_per_req", "count", lower, 0},
	{"via.sent_bytes_per_req", "bytes", lower, 0},
	{"via.drops", "count", lower, 0},
	{"via.send_latency_p50_us", "us", lower, 0},
	{"via.workq_depth_max", "count", lower, 0},
	{"via.send_4b_ns", "ns", lower, 0},
	{"via.send_4b_allocs", "count", lower, 0},
	{"via.send_32k_mbps", "MB/s", higher, 0},
	{"via.rdma_4k_ns", "ns", lower, 0},
	{"via.rdma_4k_allocs", "count", lower, 0},
	{"via.udp.send_4b_ns", "ns", lower, 0},
	{"via.udp.send_4b_allocs", "count", lower, 0},
	{"via.udp.send_32k_mbps", "MB/s", higher, 0},
	{"via.udp.rdma_4k_ns", "ns", lower, 0},

	{"cache.lru.touch_ns", "ns", lower, 0},
	{"cache.lru.insert_evict_ns", "ns", lower, 0},
	{"cache.directory.set_cached_ns", "ns", lower, 0},
	{"cache.directory.cachers_ns", "ns", lower, 0},
	{"cache.ring.owner_ns", "ns", lower, 0},

	{"core.policy.decide_ns", "ns", lower, 0},
	{"core.flow.on_data_ns", "ns", lower, 0},
	{"trace.synthesize_ms", "ms", lower, 0},
	{"cluster.sim.reqs_per_s", "1/s", higher, 0},

	{"tracing.spans_per_req", "count", lower, 0},
	{"tracing.dropped_spans", "count", lower, 0},

	{"process.gc_cycles_per_kreq", "count", lower, 0},
	{"process.gc_cpu_frac", "fraction", lower, 0},
	{"process.sys_cpu_frac", "fraction", lower, 0},
	{"process.heap_live_mb_end", "MiB", lower, 0},
	{"process.goroutines_end", "count", lower, 0},
}

// Value is one measured number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Values maps metric name to measurement.
type Values map[string]Value

// unitOf is the unit each metric is reported in, from the two tables.
var unitOf = func() map[string]string {
	m := make(map[string]string, len(EndToEnd)+len(PerLayer))
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, x := range list {
			m[x.Name] = x.Unit
		}
	}
	return m
}()

// set records a measurement under a name from the metric tables; an
// unknown name is a bug in the benchmark.
func (v Values) set(name string, x float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	v[name] = Value{Value: x, Unit: unit}
}

// missing returns the names in list that v does not report.
func (v Values) missing(list []Metric) []string {
	var out []string
	for _, m := range list {
		if _, ok := v[m.Name]; !ok {
			out = append(out, m.Name)
		}
	}
	return out
}
