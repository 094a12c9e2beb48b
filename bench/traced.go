package bench

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"press/metrics"
	"press/tracing"
)

// spansPerRequest bounds how many spans one request leaves in one
// collector; the rings are sized from it so that nothing drops, and
// tracing.dropped_spans = 0 is a precondition that says so.
const spansPerRequest = 8

// RunTraced is the run that produces the per-layer metrics. It drives the
// workload twice: an untraced reference phase for the counter deltas, and
// a traced phase — Config.Tracer at sample rate 1, a metrics.Registry,
// every driver request in its own span — whose span tree is folded into
// self time per phase. The probes and the null-server calibration ride
// along. Every span is kept in memory and written as a Chrome trace at
// the end.
func RunTraced(w *Workload, o Options) (*Run, error) {
	v, err := nullCalibration(w, o.Seed, o.Seconds*nullShare)
	if err != nil {
		return nil, err
	}

	ref, err := w.setup(o.Seed, nil, nil)
	if err != nil {
		return nil, err
	}
	m := ref.warmAndMeasure(phaseOf(o.Seconds * referenceShare))
	ref.close()
	if m.t.ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", w.Name, m.t.firstErr)
	}
	maps.Copy(v, m.counts())
	v.set("server.start_ms", ref.startMS)

	tp := phaseOf(o.Seconds * tracedShare)
	files := len(ref.drv.items)
	capacity := int(m.t.rps()*(tp.warm+tp.measure).Seconds())*spansPerRequest + files*spansPerRequest + 4096
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	trc := tracing.New(tracing.WithSampleRate(1), tracing.WithCapacity(capacity), tracing.WithClock(clock))

	pv, err := probes(trc.Collector(driverNode(w)))
	if err != nil {
		return nil, err
	}
	maps.Copy(v, pv)

	reg := metrics.NewRegistry()
	tr, err := w.setup(o.Seed, trc, reg)
	if err != nil {
		return nil, err
	}
	tr.warmUp(tp.warm)
	base := reg.Snapshot()
	depth := watchDepth(reg, w)
	from := clock()
	tm := tr.measure(tp.measure)
	to := clock()
	v.set("via.workq_depth_max", float64(depth.stop()))
	delta := reg.Snapshot().Diff(base)
	tr.close()
	if tm.t.ok == 0 {
		return nil, fmt.Errorf("%s: no traced request succeeded: %v", w.Name, tm.t.firstErr)
	}
	maps.Copy(v, viaCounts(delta, float64(tm.t.ok)))
	v.set("driver.trace_overhead_frac", 1-tm.t.rps()/m.t.rps())

	recs := trc.Records()
	var dropped int64
	for node := 0; node <= driverNode(w); node++ {
		dropped += trc.Collector(node).Dropped()
	}
	v.set("tracing.dropped_spans", float64(dropped))
	maps.Copy(v, spanMetrics(recs, w.Nodes, from, to, &tm.t))
	if o.OutDir != "" {
		if err := writeChrome(filepath.Join(o.OutDir, w.Name+".trace.json"), recs); err != nil {
			return nil, err
		}
	}

	checks := append(w.checks[:len(w.checks):len(w.checks)], zero("tracing.dropped_spans"))
	run := w.result(&m, v, v, checks)
	run.Attempted += tm.t.attempted
	run.Failed += tm.t.failed()
	run.Correct = run.Correct && tm.t.mismatch == 0
	if run.FirstErr == nil {
		run.FirstErr = tm.t.firstErr
	}
	return run, nil
}

// depthWatch samples the NICs' work-queue depth gauges, which only hold
// the current value, and keeps the largest seen.
type depthWatch struct {
	quit chan struct{}
	wg   sync.WaitGroup
	max  int64
}

func watchDepth(reg *metrics.Registry, w *Workload) *depthWatch {
	d := &depthWatch{quit: make(chan struct{})}
	gauges := make([]*metrics.Gauge, w.Nodes)
	for i := range gauges {
		gauges[i] = reg.Gauge("via_workq_depth", fmt.Sprintf("nic=node%d", i))
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-d.quit:
				return
			case <-tick.C:
				for _, g := range gauges {
					if x := g.Value(); x > d.max {
						d.max = x
					}
				}
			}
		}
	}()
	return d
}

// stop ends the sampling and returns the largest depth seen.
func (d *depthWatch) stop() int64 {
	close(d.quit)
	d.wg.Wait()
	return d.max
}

// viaCounts folds the registry's via_* families, summed over the NICs,
// into per-request numbers.
func viaCounts(delta metrics.Snapshot, ok float64) Values {
	sum := map[string]int64{}
	for key, n := range delta.Counters {
		family, _ := metrics.Family(key)
		sum[family] += n
	}
	var lat metrics.HistogramSnapshot
	buckets := map[int]int64{}
	for key, h := range delta.Histograms {
		if family, _ := metrics.Family(key); family != "via_send_latency_ns" {
			continue
		}
		lat.Count += h.Count
		lat.Sum += h.Sum
		for _, b := range h.Buckets {
			buckets[b.Index] += b.Count
		}
		if lat.Min == 0 || (h.Min != 0 && h.Min < lat.Min) {
			lat.Min = h.Min
		}
		if h.Max > lat.Max {
			lat.Max = h.Max
		}
	}
	for idx, n := range buckets {
		lat.Buckets = append(lat.Buckets, metrics.Bucket{Index: idx, Count: n})
	}
	sort.Slice(lat.Buckets, func(i, j int) bool { return lat.Buckets[i].Index < lat.Buckets[j].Index })

	v := Values{}
	v.set("via.sends_per_req", float64(sum["via_sends_posted_total"])/ok)
	v.set("via.rmw_per_req", float64(sum["via_rmw_total"])/ok)
	v.set("via.sent_bytes_per_req", float64(sum["via_sent_bytes"])/ok)
	v.set("via.drops", float64(sum["via_drops_total"]))
	v.set("via.send_latency_p50_us", lat.Quantile(0.5)/1e3)
	return v
}

// spanMetrics folds the program's span tree over [from, to) into mean
// self time per phase and per request. Spans of the driver's collector
// (node == nodes) are the benchmark's own and stay out of the fold; t is
// the traced phase's tally.
func spanMetrics(recs []tracing.SpanRecord, nodes int, from, to int64, t *tally) Values {
	var program []tracing.SpanRecord
	for _, r := range recs {
		if r.Node < nodes && r.Start >= from && r.Start < to {
			program = append(program, r)
		}
	}
	sums := tracing.Summarize(program)
	total := map[string]int64{}
	var all, local, forwarded []int64
	for _, s := range sums {
		if s.Root == 0 {
			continue // a remote tail whose root began before the phase
		}
		for ph, ns := range s.Phases {
			total[ph] += ns
		}
		all = append(all, s.Dur)
		if s.Forwarded {
			forwarded = append(forwarded, s.Dur)
		} else {
			local = append(local, s.Dur)
		}
	}
	for _, xs := range [][]int64{all, local, forwarded} {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}

	v := Values{}
	n := float64(len(all))
	var every, comm float64
	for _, ph := range tracing.Phases() {
		us := ratio(float64(total[ph])/1e3, n)
		every += us
		switch ph {
		case tracing.PhaseNet, tracing.PhaseStall, tracing.PhaseCopy:
			comm += us
		}
		v.set("server.phase."+strings.ReplaceAll(ph, "-", "_")+"_us", us)
	}
	v.set("server.comm_share", ratio(comm, every))
	localP50, fwdP50 := micros(quantile(local, 0.5)), micros(quantile(forwarded, 0.5))
	v.set("server.request.local_p50_us", localP50)
	v.set("server.request.forwarded_p50_us", fwdP50)
	hop := 0.0
	if len(local) > 0 && len(forwarded) > 0 {
		hop = fwdP50 - localP50
	}
	v.set("server.request.hop_cost_us", hop)
	v.set("server.edge_us", micros(quantile(t.lat, 0.5))-micros(quantile(all, 0.5)))
	v.set("tracing.spans_per_req", float64(len(program))/float64(t.ok))
	return v
}

func writeChrome(path string, recs []tracing.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = tracing.WriteChrome(bw, recs)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
