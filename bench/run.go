package bench

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"press/core"
	"press/metrics"
	"press/server"
	"press/tracing"
)

// Options select one run of one workload.
type Options struct {
	// Seed drives the request sequence and the target choice.
	Seed int64
	// Seconds is the measured phase of the untraced run; the traced
	// run's phases are shares of it (workloads.go).
	Seconds float64
	// OutDir, when set, receives <workload>.trace.json from a traced run.
	OutDir string
}

// Run is the outcome of one run: what the contract's result line carries.
type Run struct {
	// Correct is false when any response body differed from
	// server.SynthesizeContent; Failed also counts non-200s and timeouts.
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   Values
	// FirstErr is the first failed request, nil when Failed is 0.
	FirstErr error
	// Violations names every precondition on the workload's shape that
	// did not hold; a failed request is not one, Failed reports it.
	Violations []string
}

// rig is one cluster set up and ready to be driven.
type rig struct {
	cl      *server.Cluster
	drv     *driver
	startMS float64 // server.Start alone
	took    time.Duration
}

func (r *rig) close() {
	r.drv.close()
	r.cl.Close()
}

// setup is everything setup_s covers: build the file population and the
// expected bodies, start the cluster, fetch every file once.
func (w *Workload) setup(seed int64, trc *tracing.Tracer, reg *metrics.Registry) (*rig, error) {
	begin := time.Now()
	files := w.population()
	items := make([]item, len(files.Files))
	for i, f := range files.Files {
		items[i] = newItem(f.Name, server.SynthesizeContent(f.Name, f.Size))
	}
	cfg, err := w.config(files)
	if err != nil {
		return nil, err
	}
	cfg.Tracer, cfg.Metrics = trc, reg
	startAt := time.Now()
	cl, err := server.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r := &rig{cl: cl, startMS: float64(time.Since(startAt)) / 1e6}
	addrs := cl.Addrs()
	var col *tracing.Collector
	if trc != nil {
		col = trc.Collector(driverNode(w))
	}
	r.drv = newDriver(addrs, items, seed, col)
	if err := r.drv.fetchAll(); err != nil {
		r.close()
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.took = time.Since(begin)
	return r, nil
}

// driverNode is the collector index of the benchmark's own spans: one
// past the cluster's nodes, so the Chrome file shows them as a separate
// process.
func driverNode(w *Workload) int { return w.Nodes }

// reading is the process and cluster state at one instant.
type reading struct {
	user, sys  time.Duration
	maxRSSKB   int64
	mem        runtime.MemStats
	gcCPU      float64 // seconds
	heapLive   uint64
	goroutines int
	stats      server.Stats
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/live:bytes"},
}

func read(cl *server.Cluster) reading {
	var r reading
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.user = time.Duration(ru.Utime.Nano())
		r.sys = time.Duration(ru.Stime.Nano())
		r.maxRSSKB = int64(ru.Maxrss)
	}
	runtime.ReadMemStats(&r.mem)
	r.goroutines = runtime.NumGoroutine()
	samples := append([]rtmetrics.Sample(nil), rtSamples...)
	rtmetrics.Read(samples)
	if samples[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == rtmetrics.KindUint64 {
		r.heapLive = samples[1].Value.Uint64()
	}
	if cl != nil {
		r.stats = cl.Stats()
	}
	return r
}

// measured is one measured phase with the readings around it.
type measured struct {
	t             tally
	before, after reading
}

// warmUp drives the rig for d and discards what was counted.
func (r *rig) warmUp(d time.Duration) {
	r.drv.reserve(d)
	r.drv.run(d)
}

// measure drives one measured phase of length d.
func (r *rig) measure(d time.Duration) measured {
	r.drv.reserve(d)
	var m measured
	m.before = read(r.cl)
	m.t = r.drv.run(d)
	m.after = read(r.cl)
	m.t.sortLatencies()
	return m
}

// warmAndMeasure is a warm-up followed by its measured phase.
func (r *rig) warmAndMeasure(p phase) measured {
	r.warmUp(p.warm)
	return r.measure(p.measure)
}

// endToEnd computes the gated metrics of a measured phase; setup_s is the
// caller's.
func (m *measured) endToEnd() Values {
	v := Values{}
	ok := float64(m.t.ok)
	cpu := (m.after.user - m.before.user) + (m.after.sys - m.before.sys)
	v.set("throughput_rps", m.t.rps())
	v.set("latency_p50_us", micros(quantile(m.t.lat, 0.50)))
	v.set("latency_p90_us", micros(quantile(m.t.lat, 0.90)))
	v.set("cpu_us_per_req", float64(cpu)/1e3/ok)
	v.set("allocs_per_req", float64(m.after.mem.Mallocs-m.before.mem.Mallocs)/ok)
	v.set("alloc_bytes_per_req", float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/ok)
	v.set("peak_rss_mb", float64(m.after.maxRSSKB)/1024)
	return v
}

// counts computes the per-layer metrics that are deltas of the program's
// public counters over a measured phase: the driver's own tallies,
// Cluster.Stats and the runtime. They need neither tracer nor registry,
// so the preconditions are checked on them in both kinds of run.
func (m *measured) counts() Values {
	v := Values{}
	t := &m.t
	ok := float64(t.ok)
	v.set("driver.requests_attempted", float64(t.attempted))
	v.set("driver.requests_ok", ok)
	v.set("driver.requests_failed", float64(t.failed()))
	v.set("driver.latency_p99_us", micros(quantile(t.lat, 0.99)))
	v.set("driver.latency_p999_us", micros(quantile(t.lat, 0.999)))
	v.set("driver.latency_max_us", micros(quantile(t.lat, 1)))
	v.set("driver.goodput_mbps", float64(t.bytes)*8/1e6/t.elapsed.Seconds())
	perWindow := t.elapsed.Seconds() / windows
	v.set("driver.rps_first_window", float64(t.window[0])/perWindow)
	v.set("driver.rps_last_window", float64(t.window[windows-1])/perWindow)

	a, b := &m.after.stats, &m.before.stats
	reqs := float64(a.Nodes.Requests - b.Nodes.Requests)
	v.set("server.node.local_hit_frac", ratio(float64(a.Nodes.LocalHits-b.Nodes.LocalHits), reqs))
	v.set("server.node.forwarded_frac", ratio(float64(a.Nodes.Forwarded-b.Nodes.Forwarded), reqs))
	v.set("server.node.remote_served_per_req", float64(a.Nodes.RemoteHits-b.Nodes.RemoteHits)/ok)
	v.set("server.node.errors", float64(a.Nodes.Errors-b.Nodes.Errors))
	v.set("server.store.disk_reads_per_req", float64(a.Nodes.DiskReads-b.Nodes.DiskReads)/ok)

	msgs, msgBytes := a.Msgs.Total()
	msgs0, msgBytes0 := b.Msgs.Total()
	v.set("server.transport.msgs_per_req", float64(msgs-msgs0)/ok)
	v.set("server.transport.msg_bytes_per_req", float64(msgBytes-msgBytes0)/ok)
	for _, mt := range []struct {
		name string
		typ  core.MsgType
	}{
		{"forward", core.MsgForward}, {"file", core.MsgFile}, {"caching", core.MsgCaching},
		{"load", core.MsgLoad}, {"flow", core.MsgFlow},
	} {
		v.set("server.transport."+mt.name+"_per_req", float64(a.Msgs.Count[mt.typ]-b.Msgs.Count[mt.typ])/ok)
	}
	v.set("server.transport.copied_bytes_per_req", float64(a.CopiedBytes-b.CopiedBytes)/ok)
	v.set("server.transport.credit_stalls_per_kreq", float64(a.CreditStalls-b.CreditStalls)/ok*1e3)

	cpu := (m.after.user - m.before.user) + (m.after.sys - m.before.sys)
	v.set("process.gc_cycles_per_kreq", float64(m.after.mem.NumGC-m.before.mem.NumGC)/ok*1e3)
	v.set("process.gc_cpu_frac", ratio(m.after.gcCPU-m.before.gcCPU, cpu.Seconds()))
	v.set("process.sys_cpu_frac", ratio(float64(m.after.sys-m.before.sys), float64(cpu)))
	v.set("process.heap_live_mb_end", float64(m.after.heapLive)/(1<<20))
	v.set("process.goroutines_end", float64(m.after.goroutines))
	return v
}

// ratio is a/b, or 0 when there is nothing to divide by: a JSON number
// cannot be NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// violations checks preconditions against a run's per-layer values. full
// is false for runs too short for the range checks.
func (w *Workload) violations(checks []check, values Values, full bool) []string {
	var out []string
	for _, c := range checks {
		if !c.always && !full {
			continue
		}
		x := values[c.metric].Value
		if x < c.lo || x > c.hi {
			out = append(out, fmt.Sprintf("%s: %s = %g, want %g..%g", w.Name, c.metric, x, c.lo, c.hi))
		}
	}
	return out
}

// rangePhase is the shortest measured phase on which the range
// preconditions are checked; the counts-only ones hold at any length.
const rangePhase = time.Second

// RunUntraced is the run that produces the end-to-end metrics: tracer,
// registry and telemetry all nil.
func RunUntraced(w *Workload, o Options) (*Run, error) {
	return runUntraced(w, o, setupRepeats)
}

func runUntraced(w *Workload, o Options, setups int) (*Run, error) {
	r, err := w.setup(o.Seed, nil, nil)
	if err != nil {
		return nil, err
	}
	m := r.warmAndMeasure(phaseOf(o.Seconds))
	r.close()
	if m.t.ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", w.Name, m.t.firstErr)
	}
	// peak_rss_mb is read at the end of the measured phase; the repeated
	// set-ups come after it so they cannot raise it.
	took := []float64{r.took.Seconds()}
	for len(took) < setups {
		again, err := w.setup(o.Seed, nil, nil)
		if err != nil {
			return nil, err
		}
		again.close()
		took = append(took, again.took.Seconds())
	}
	v := m.endToEnd()
	v.set("setup_s", median(took))
	return w.result(&m, v, m.counts(), w.checks), nil
}

// result assembles a Run from a measured phase, the metrics to report and
// the per-layer values on which the preconditions are checked.
func (w *Workload) result(m *measured, report, layers Values, checks []check) *Run {
	return &Run{
		Correct:    m.t.mismatch == 0,
		Attempted:  m.t.attempted,
		Failed:     m.t.failed(),
		FirstErr:   m.t.firstErr,
		Metrics:    report,
		Violations: w.violations(checks, layers, m.t.elapsed >= rangePhase),
	}
}
