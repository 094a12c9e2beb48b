// Package experiments drives the simulated reproductions of the paper's
// experimental section: one function per figure or table, shared by the
// press-sim command and the benchmark harness.
//
// Each function sweeps the relevant dimension (protocol/network
// combination, dissemination strategy, server version) over the four
// Table 1 traces at a configurable request volume. Results carry the raw
// numbers; rendering helpers produce text tables in the paper's layout.
package experiments

import (
	"fmt"
	"sync"

	"press/cluster"
	"press/core"
	"press/netmodel"
	"press/trace"
)

// Options scales the experiments. The zero value reproduces every trace
// at 120k requests on 8 nodes — large enough for steady-state behaviour,
// small enough for CI.
type Options struct {
	// Nodes is the cluster size; default 8 (the paper's cluster).
	Nodes int
	// Requests truncates each trace; 0 means the default 120000, and
	// negative means the full paper-scale trace (up to 3.1M requests).
	Requests int
	// Seed selects the deterministic run; default 1.
	Seed int64
	// Trace restricts single-trace experiments (Tables 2 and 4);
	// default "clarknet".
	Trace string
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.Requests == 0 {
		o.Requests = 120000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trace == "" {
		o.Trace = "clarknet"
	}
	return o
}

// traceCache memoizes synthesized traces: the four full populations are
// expensive to regenerate for every figure. Entries hold a once-guarded
// synthesis so concurrent figure cells share one generation.
var traceCache sync.Map // key string -> *traceEntry

type traceEntry struct {
	once sync.Once
	tr   *trace.Trace
	err  error
}

func loadTrace(name string, requests int) (*trace.Trace, error) {
	spec, err := trace.SpecByName(name)
	if err != nil {
		return nil, err
	}
	if requests > 0 && requests < spec.NumRequests {
		spec.NumRequests = requests
	}
	key := fmt.Sprintf("%s/%d", spec.Name, spec.NumRequests)
	v, _ := traceCache.LoadOrStore(key, &traceEntry{})
	e := v.(*traceEntry)
	e.once.Do(func() {
		e.tr, e.err = trace.Synthesize(spec)
	})
	return e.tr, e.err
}

func run(o Options, traceName string, combo netmodel.CostModel,
	version netmodel.Version, strategy core.Strategy) (*cluster.Result, error) {
	tr, err := loadTrace(traceName, o.Requests)
	if err != nil {
		return nil, err
	}
	return cluster.Run(cluster.Config{
		Nodes:         o.Nodes,
		Trace:         tr,
		Combo:         combo,
		Version:       version,
		Dissemination: strategy,
		Seed:          o.Seed,
	})
}

// traceNames returns the four paper traces in Table 1 order.
func traceNames() []string {
	names := make([]string, 0, 4)
	for _, s := range trace.Table1Specs() {
		names = append(names, s.Name)
	}
	return names
}

// v returns version Vn.
func v(n int) netmodel.Version { return netmodel.Versions()[n] }

// Fig1Row is one bar pair of Figure 1: the share of time a CPU running
// PRESS over TCP/FE spends on intra-cluster communication.
type Fig1Row struct {
	Trace string
	// CommFraction counts communication CPU plus internal-interface
	// time, the simulator's analogue of the paper's thread-time
	// measurement (communication threads block on the interconnect).
	CommFraction float64
	// CPUOnlyFraction counts pure CPU cycles only.
	CPUOnlyFraction float64
	Throughput      float64
}

// Figure1 reproduces Figure 1: PRESS on TCP/FE, time breakdown per trace.
func Figure1(o Options) ([]Fig1Row, error) {
	o = o.withDefaults()
	names := traceNames()
	rows := make([]Fig1Row, len(names))
	err := forEachIndex(len(names), func(i int) error {
		r, err := run(o, names[i], netmodel.TCPFastEthernet(), v(0), core.PB())
		if err != nil {
			return err
		}
		cpuOnly := 0.0
		if d := r.CPUComm + r.CPUService; d > 0 {
			cpuOnly = float64(r.CPUComm) / float64(d)
		}
		rows[i] = Fig1Row{
			Trace:           names[i],
			CommFraction:    r.CommFraction,
			CPUOnlyFraction: cpuOnly,
			Throughput:      r.Throughput,
		}
		return nil
	})
	return rows, err
}

// Fig3Row is one trace's bar group in Figure 3: throughput per
// protocol/network combination.
type Fig3Row struct {
	Trace   string
	TCPFE   float64
	TCPCLAN float64
	VIACLAN float64
}

// BandwidthEffect returns the TCP/cLAN over TCP/FE gain (the paper
// attributes it to network bandwidth; ~6% on average).
func (r Fig3Row) BandwidthEffect() float64 { return r.TCPCLAN/r.TCPFE - 1 }

// OverheadEffect returns the VIA/cLAN over TCP/cLAN gain (processor
// overhead; 14–17% in the paper).
func (r Fig3Row) OverheadEffect() float64 { return r.VIACLAN/r.TCPCLAN - 1 }

// Figure3 reproduces Figure 3: throughput for the three combinations.
func Figure3(o Options) ([]Fig3Row, error) {
	o = o.withDefaults()
	names := traceNames()
	combos := netmodel.Combos()
	rows := make([]Fig3Row, len(names))
	for i, name := range names {
		rows[i].Trace = name
	}
	var mu sync.Mutex
	err := forEachIndex(len(names)*len(combos), func(cell int) error {
		ti, ci := cell/len(combos), cell%len(combos)
		r, err := run(o, names[ti], combos[ci], v(0), core.PB())
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		switch combos[ci].Name {
		case "TCP/FE":
			rows[ti].TCPFE = r.Throughput
		case "TCP/cLAN":
			rows[ti].TCPCLAN = r.Throughput
		case "VIA/cLAN":
			rows[ti].VIACLAN = r.Throughput
		}
		return nil
	})
	return rows, err
}

// Fig4Row is one trace's bar group in Figure 4: throughput per
// load-dissemination strategy over VIA/cLAN.
type Fig4Row struct {
	Trace      string
	Throughput map[string]float64 // keyed by strategy label (PB, L16, ...)
}

// Figure4 reproduces Figure 4: the paper's five dissemination
// strategies. The post-paper sharded directory (SHARD) is swept
// separately by DirectoryScaling.
func Figure4(o Options) ([]Fig4Row, error) {
	o = o.withDefaults()
	names := traceNames()
	strategies := core.PaperStrategies()
	rows := make([]Fig4Row, len(names))
	var mu sync.Mutex
	for i, name := range names {
		rows[i] = Fig4Row{Trace: name, Throughput: map[string]float64{}}
	}
	err := forEachIndex(len(names)*len(strategies), func(cell int) error {
		ti, si := cell/len(strategies), cell%len(strategies)
		r, err := run(o, names[ti], netmodel.VIAOverCLAN(), v(0), strategies[si])
		if err != nil {
			return err
		}
		mu.Lock()
		rows[ti].Throughput[strategies[si].String()] = r.Throughput
		mu.Unlock()
		return nil
	})
	return rows, err
}

// Table2Entry is one version block of Table 2: per-type message counts
// and volumes for a dissemination strategy.
type Table2Entry struct {
	Strategy string
	Msgs     core.MsgStats
}

// Table2 reproduces Table 2 for one trace (Options.Trace).
func Table2(o Options) ([]Table2Entry, error) {
	o = o.withDefaults()
	var out []Table2Entry
	// Table 2 lists NLB, L1, L4, L16, PB (top to bottom).
	order := []core.Strategy{core.NLB(), core.LThreshold(1), core.LThreshold(4), core.LThreshold(16), core.PB()}
	for _, st := range order {
		r, err := run(o, o.Trace, netmodel.VIAOverCLAN(), v(0), st)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Entry{Strategy: st.String(), Msgs: r.Msgs})
	}
	return out, nil
}

// Fig5Row is one trace's bar group in Figure 5: throughput increase of
// V1..V5 over V0.
type Fig5Row struct {
	Trace string
	// Gain[i] is the relative throughput increase of version i+1.
	Gain [5]float64
}

// Figure5 reproduces Figure 5: the RMW and zero-copy versions.
func Figure5(o Options) ([]Fig5Row, error) {
	o = o.withDefaults()
	names := traceNames()
	rows := make([]Fig5Row, len(names))
	thr := make([][6]float64, len(names))
	for i, name := range names {
		rows[i].Trace = name
	}
	err := forEachIndex(len(names)*6, func(cell int) error {
		ti, vi := cell/6, cell%6
		r, err := run(o, names[ti], netmodel.VIAOverCLAN(), v(vi), core.PB())
		if err != nil {
			return err
		}
		thr[ti][vi] = r.Throughput
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ti := range rows {
		for vi := 1; vi <= 5; vi++ {
			rows[ti].Gain[vi-1] = thr[ti][vi]/thr[ti][0] - 1
		}
	}
	return rows, nil
}

// Table4Entry is one version block of Table 4: per-type message counts
// and volumes for V1..V5.
type Table4Entry struct {
	Version string
	Msgs    core.MsgStats
}

// Table4 reproduces Table 4 for one trace (Options.Trace).
func Table4(o Options) ([]Table4Entry, error) {
	o = o.withDefaults()
	var out []Table4Entry
	for i := 1; i <= 5; i++ {
		r, err := run(o, o.Trace, netmodel.VIAOverCLAN(), v(i), core.PB())
		if err != nil {
			return nil, err
		}
		out = append(out, Table4Entry{Version: v(i).Name, Msgs: r.Msgs})
	}
	return out, nil
}

// Fig6Row is one trace's stacked bar in Figure 6: the TCP/cLAN baseline
// plus the contributions of low overhead, remote memory writes, and
// zero-copy, each normalized to the full user-level throughput.
type Fig6Row struct {
	Trace string
	// Absolute throughputs of the four configurations.
	TCPCLAN float64 // baseline
	V0      float64 // + low overhead
	V4      float64 // + remote memory writes
	V5      float64 // + zero-copy
}

// Contributions returns the stacked normalized segments (base,
// low-overhead, RMW, zero-copy), summing to 1, as plotted in Figure 6.
// The paper credits V4's gains to remote memory writes and V5's to
// zero-copy (Section 3.4).
func (r Fig6Row) Contributions() (base, lowOverhead, rmw, zeroCopy float64) {
	if r.V5 == 0 {
		return 0, 0, 0, 0
	}
	return r.TCPCLAN / r.V5, (r.V0 - r.TCPCLAN) / r.V5, (r.V4 - r.V0) / r.V5, (r.V5 - r.V4) / r.V5
}

// TotalGain returns the full user-level communication gain over
// TCP/cLAN (as much as 29%, averaging 26%, in the paper).
func (r Fig6Row) TotalGain() float64 { return r.V5/r.TCPCLAN - 1 }

// Figure6 reproduces Figure 6: summary of contributions.
func Figure6(o Options) ([]Fig6Row, error) {
	o = o.withDefaults()
	names := traceNames()
	rows := make([]Fig6Row, len(names))
	for i, name := range names {
		rows[i].Trace = name
	}
	var mu sync.Mutex
	err := forEachIndex(len(names)*4, func(cell int) error {
		ti, ci := cell/4, cell%4
		var r *cluster.Result
		var err error
		switch ci {
		case 0:
			r, err = run(o, names[ti], netmodel.TCPOverCLAN(), v(0), core.PB())
		case 1:
			r, err = run(o, names[ti], netmodel.VIAOverCLAN(), v(0), core.PB())
		case 2:
			r, err = run(o, names[ti], netmodel.VIAOverCLAN(), v(4), core.PB())
		case 3:
			r, err = run(o, names[ti], netmodel.VIAOverCLAN(), v(5), core.PB())
		}
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		switch ci {
		case 0:
			rows[ti].TCPCLAN = r.Throughput
		case 1:
			rows[ti].V0 = r.Throughput
		case 2:
			rows[ti].V4 = r.Throughput
		case 3:
			rows[ti].V5 = r.Throughput
		}
		return nil
	})
	return rows, err
}
