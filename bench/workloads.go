package bench

import (
	"fmt"
	"math"
	"time"

	"press/netmodel"
	"press/server"
	"press/trace"
)

// The load model is decided, not a knob: closed loop, Clients clients
// (the box's core count), each with at most one request in flight and
// one keep-alive connection per node, each picking a node uniformly at
// random per request and a file by Zipf(ZipfAlpha) over popularity rank.
const (
	Clients   = 2
	ZipfAlpha = 0.8
)

// Phase lengths, all derived from one number: the measured length of the
// untraced run (--seconds; BENCHMARK.json run_seconds in the PR driver,
// DefaultSeconds in the suite).
const (
	// DefaultSeconds is the suite's measured phase.
	DefaultSeconds = 10.0
	// Every measured phase is preceded by a warm-up a quarter its length,
	// at most maxWarmup.
	warmupShare = 0.25
	maxWarmup   = 3 * time.Second
	// The traced run (--trace 1) splits its time: an untraced reference
	// phase for the counter deltas, a traced phase for the span tree,
	// and the null-server calibration.
	referenceShare = 1.0 / 3
	tracedShare    = 1.0 / 6
	nullShare      = 1.0 / 12
	// setupRepeats is how many times one run sets the cluster up;
	// setup_s is their median.
	setupRepeats = 3
)

// phase is one warm-up + measured pair.
type phase struct{ warm, measure time.Duration }

func phaseOf(seconds float64) phase {
	m := time.Duration(seconds * float64(time.Second))
	w := time.Duration(float64(m) * warmupShare)
	if w > maxWarmup {
		w = maxWarmup
	}
	return phase{warm: w, measure: m}
}

// Workload is one real-cluster traffic mix. The file population is fixed
// by the workload; the seed drives only the request sequence.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why        string
	Nodes      int
	Transport  server.TransportKind
	Version    string // Table 3 version, VIA only
	CacheBytes int64  // per node
	// population builds the file set, popularity rank order.
	population func() *trace.Trace
	// checks are the workload's preconditions, verified on every run.
	checks []check
}

// diskDelay is every workload's per-read disk latency. Only churn-via-v0
// reads the disk after set-up.
const diskDelay = 50 * time.Microsecond

// check is one precondition: the named per-layer count, taken over the
// measured phase, must lie in [lo, hi].
type check struct {
	metric string
	lo, hi float64
	// always marks a check that holds for any run length; the rest need
	// a full-length run (the tests' 0.3 s smoke skips them).
	always bool
}

func zero(metric string) check { return check{metric, 0, 0, true} }

func positive(metric string) check {
	return check{metric, math.SmallestNonzeroFloat64, math.Inf(1), true}
}

func between(metric string, lo, hi float64) check { return check{metric, lo, hi, false} }

var (
	fwdChecks = []check{between("server.node.forwarded_frac", 0.70, 0.80), zero("server.store.disk_reads_per_req")}
	v5Checks  = append(fwdChecks[:len(fwdChecks):len(fwdChecks)], zero("server.transport.copied_bytes_per_req"))
)

// Workloads is the suite; the names are final, later issues cite them.
var Workloads = []*Workload{
	{
		Name:  "edge-local",
		Why:   "1 node, 256 x 1 KiB cached: HTTP edge + main loop + cache with zero intra-cluster messages; the bypass workload for every transport, codec and via change",
		Nodes: 1, Transport: server.TransportTCP,
		population: uniformFiles("edge", 256, 1<<10),
		checks:     []check{zero("server.node.forwarded_frac"), zero("server.transport.msgs_per_req")},
	},
	{
		Name:  "fwd-tcp",
		Why:   "4 nodes over kernel TCP, 256 x 1 KiB cached: 75% of requests forwarded at the smallest useful size, where per-message cost (framing, codec, syscalls) dominates",
		Nodes: 4, Transport: server.TransportTCP,
		population: uniformFiles("fwd", 256, 1<<10),
		checks:     fwdChecks,
	},
	{
		Name:  "fwd-via-v0",
		Why:   "same traffic over the VIA regular send/receive channel: descriptors, staging copy and credit flow control carry each forward and reply",
		Nodes: 4, Transport: server.TransportVIA, Version: "V0",
		population: uniformFiles("fwd", 256, 1<<10),
		checks:     fwdChecks,
	},
	{
		Name:  "fwd-via-v5",
		Why:   "same traffic over RMW control/file rings with zero-copy both ways; the receive side polls, and this layer is what breaks the paper's V5-over-V0 ordering on the real path",
		Nodes: 4, Transport: server.TransportVIA, Version: "V5",
		population: uniformFiles("fwd", 256, 1<<10),
		checks:     v5Checks,
	},
	{
		Name:  "bulk-via-v5",
		Why:   "4 nodes VIA V5, 64 x 64 KiB cached: per-byte cost of large transfers through the file ring, where zero-copy is supposed to pay",
		Nodes: 4, Transport: server.TransportVIA, Version: "V5",
		population: uniformFiles("bulk", 64, 64<<10),
		checks:     v5Checks,
	},
	{
		Name:  "churn-via-v0",
		Why:   "4 nodes VIA V0, 4096 log-normal files (32 MiB) over 4 x 2 MiB caches: misses, evictions, Caching broadcasts, disk threads and chunked files; directory writes beside reads",
		Nodes: 4, Transport: server.TransportVIA, Version: "V0",
		CacheBytes: 2 << 20,
		population: churnFiles,
		checks: []check{
			between("server.store.disk_reads_per_req", 0.25, 0.45),
			positive("server.transport.caching_per_req"),
		},
	},
}

// ByName returns the workload with the given name.
func ByName(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// uniformFiles returns a population of n files of one size.
func uniformFiles(dir string, n int, size int64) func() *trace.Trace {
	return func() *trace.Trace {
		t := &trace.Trace{Name: dir, Files: make([]trace.File, n)}
		for i := range t.Files {
			t.Files[i] = trace.File{Name: fmt.Sprintf("/%s/doc%06d.html", dir, i), Size: size}
		}
		return t
	}
}

// churnFiles is the churn population: 4096 log-normal files, mean 8 KiB,
// popular files smaller than average as in the paper's four traces. The
// population seed is fixed; the run's seed never reaches it.
func churnFiles() *trace.Trace {
	return trace.MustSynthesize(trace.Spec{
		Name: "churn", NumFiles: 4096, AvgFileKB: 8, AvgReqKB: 6, Seed: 11,
	})
}

// config is the server configuration the workload runs under; every
// field the table does not set keeps the server's default.
func (w *Workload) config(files *trace.Trace) (server.Config, error) {
	cfg := server.Config{
		Nodes:      w.Nodes,
		Trace:      files,
		Transport:  w.Transport,
		CacheBytes: w.CacheBytes,
		DiskDelay:  diskDelay,
	}
	if w.Version != "" {
		v, err := netmodel.VersionByName(w.Version)
		if err != nil {
			return cfg, err
		}
		cfg.Version = v
	}
	return cfg, nil
}
