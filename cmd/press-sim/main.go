// Command press-sim regenerates the experimental section of the paper
// on the discrete-event cluster simulator: Figures 1 and 3-6 and
// Tables 2 and 4, plus the design-choice ablations.
//
// Usage:
//
//	press-sim -experiment all|fig1|fig3|fig4|fig5|fig6|table2|table4|
//	                      validate|nodesweep|dirsweep|sensitivity|locality|ablations
//	          [-requests N] [-nodes N] [-trace clarknet|forth|nasa|rutgers] [-seed S]
//	press-sim -metrics [-version V0..V5] [-requests N] [-nodes N] [-trace T] [-seed S]
//
// With -metrics, press-sim runs one instrumented VIA/cLAN simulation of
// the configured trace and dumps the full per-node metrics report on
// exit: message counts by type, copied bytes, remote memory writes,
// completion-latency quantiles, and CPU/disk/NIC utilization.
//
// With -trace-out FILE, the same instrumented run also records
// per-request span trees on simulated time and writes them as Chrome
// trace-event JSON (load in chrome://tracing or Perfetto, or analyze
// with press-trace). -trace-sample controls head sampling (default 1.0:
// every request).
//
// With -chaos, press-sim runs a REAL VIA cluster (server.Start, HTTP on
// loopback) under closed-loop client load while a seeded fault plan
// partitions, heals, crashes, and restarts nodes, then reports
// availability: error classes, failovers by reason, reconnects, send
// errors, and the final health view. Combine with -metrics for the
// full registry report and -trace-out to see failover annotations in
// press-trace. -incident-out FILE arms a telemetry flight recorder
// (100ms sampling) that writes a JSON incident report — the pre-fault
// series window plus the failover/brownout event log — when the first
// peer is declared dead, or at end of run if no trigger fires.
//
//	press-sim -chaos [-chaos-faults N] [-chaos-duration D] [-metrics]
//	          [-chaos-target random|hottest] [-hotspot ALPHA] [-replication]
//	          [-requests N] [-nodes N] [-trace T] [-seed S] [-version V]
//	          [-trace-out FILE] [-trace-sample F] [-incident-out FILE]
//
// -chaos-target hottest watches per-node request shares under load for
// the first third of the window, then crashes the busiest node and
// restarts it — the reproducible kill-the-hot-cacher scenario. Combine
// with -hotspot (Zipf-hotspot client workload) and -replication
// (hot-object replication on the cluster) to demonstrate replica
// failover keeping goodput up when the hot cacher dies.
//
// With -overload, press-sim starts a real VIA cluster with overload
// control sized to the deadline, calibrates its saturation throughput
// with a closed-loop burst, then ramps an open-loop Poisson arrival
// process through 0.5x-3x of saturation, reporting goodput, latency
// quantiles, and shed counts per step — the goodput-vs-offered-load
// knee.
// -dissemination all repeats the ramp for every strategy.
//
//	press-sim -overload [-overload-duration D] [-overload-deadline D]
//	          [-dissemination PB|L16|L4|L1|NLB|all]
//	          [-requests N] [-nodes N] [-trace T] [-seed S] [-version V]
//
// With -procs N, press-sim runs a REAL multi-process cluster: N node
// processes (re-execs of this binary) meshed over loopback sockets
// with the membership handshake. The scenario drives closed-loop load,
// kills the hottest cacher with SIGKILL mid-drive, restarts it, and
// reports availability, the epoch turnover, and rejoin convergence —
// crash-restart on live processes, where kill -9 means kill -9.
//
//	press-sim -procs N [-procs-duration D] [-procs-transport tcp|via]
//	          [-trace T] [-dissemination S] [-version V]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"press/cliflag"
	"press/cluster"
	"press/core"
	"press/experiments"
	"press/loadgen"
	"press/metrics"
	"press/netmodel"
	"press/server"
	"press/server/procharness"
	"press/stats"
	"press/telemetry"
	"press/trace"
	"press/tracing"
)

func main() {
	// A press-sim binary doubles as a cluster node when the procharness
	// re-execs it for -procs runs; this returns immediately otherwise.
	procharness.MaybeChild()
	log.SetFlags(0)
	log.SetPrefix("press-sim: ")
	var (
		experiment  = flag.String("experiment", "all", "which experiment to run")
		requests    = flag.Int("requests", 120000, "requests per trace (negative = full paper-scale traces)")
		nodes       = flag.Int("nodes", 8, "cluster size")
		traceName   = flag.String("trace", "clarknet", "trace for single-trace experiments (tables 2 and 4)")
		seed        = flag.Int64("seed", 1, "random seed")
		chart       = flag.Bool("chart", false, "render figure experiments as ASCII bar charts too")
		jsonOut     = flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
		metricsRun  = flag.Bool("metrics", false, "run one instrumented simulation and dump the per-node metrics report")
		version     = flag.String("version", "V5", "communication version for -metrics runs")
		traceOut    = flag.String("trace-out", "", "record request traces during an instrumented run and write Chrome trace-event JSON to FILE")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests to trace (head sampling)")
		chaos       = flag.Bool("chaos", false, "run a real VIA cluster under client load with a seeded fault plan and report availability")
		chaosDur    = flag.Duration("chaos-duration", 3*time.Second, "length of the chaos fault plan")
		chaosFaults = flag.Int("chaos-faults", 2, "fault pairs (partition/heal or crash/restart) in the chaos plan")
		chaosTarget = flag.String("chaos-target", "random", "chaos fault targeting: random (seeded plan) or hottest (observe request shares, then crash the busiest node mid-run)")
		hotspot     = flag.Float64("hotspot", 0, "Zipf-hotspot client workload for -chaos: draw each request from Zipf(alpha) over popularity ranks (0 = trace order)")
		replication = flag.Bool("replication", false, "enable hot-object replication on the -chaos cluster")
		incidentOut = flag.String("incident-out", "", "run a telemetry flight recorder during -chaos or -overload and write a JSON incident report to FILE on the first peer death / shed burst (or at end of run)")
		dissem      = flag.String("dissemination", "PB", "load dissemination strategy for -chaos and -overload runs ("+cliflag.DisseminationNames()+"; -overload also takes all)")
		overload    = flag.Bool("overload", false, "ramp open-loop load past saturation on a real VIA cluster and report the goodput knee")
		ovStepDur   = flag.Duration("overload-duration", 2*time.Second, "length of each offered-rate step in the -overload ramp")
		ovDeadline  = flag.Duration("overload-deadline", 500*time.Millisecond, "per-request deadline for -overload runs")
		procs       = flag.Int("procs", 0, "run a REAL multi-process cluster of this many node processes, kill -9 the hottest mid-drive, restart it, and report availability and rejoin convergence")
		procsDur    = flag.Duration("procs-duration", 6*time.Second, "total drive time for the -procs scenario")
		procsTrans  = flag.String("procs-transport", "tcp", "intra-cluster transport for -procs: tcp, or via (VIA bridged over TCP, uses -version)")
	)
	flag.Parse()
	chartMode = *chart

	if *procs > 0 {
		if err := procsRun(*procs, *traceName, *version, *dissem, *procsTrans, *procsDur); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *overload {
		if err := overloadRun(*traceName, *requests, *nodes, *seed, *version, *dissem,
			*incidentOut, *ovStepDur, *ovDeadline); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *chaos {
		if *chaosTarget != "random" && *chaosTarget != "hottest" {
			log.Fatalf("bad -chaos-target %q (random or hottest)", *chaosTarget)
		}
		if err := chaosRun(chaosOpts{
			traceName: *traceName, requests: *requests, nodes: *nodes, seed: *seed,
			version: *version, dissem: *dissem, withMetrics: *metricsRun,
			traceOut: *traceOut, incidentOut: *incidentOut, traceSample: *traceSample,
			duration: *chaosDur, faults: *chaosFaults, target: *chaosTarget,
			hotspot: *hotspot, replication: *replication,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *metricsRun || *traceOut != "" {
		if err := instrumentedRun(*traceName, *requests, *nodes, *seed, *version,
			*metricsRun, *traceOut, *traceSample); err != nil {
			log.Fatal(err)
		}
		return
	}

	o := experiments.Options{Requests: *requests, Nodes: *nodes, Seed: *seed, Trace: *traceName}
	if *jsonOut {
		if err := emitJSON(*experiment, o); err != nil {
			log.Fatal(err)
		}
		return
	}
	runners := map[string]func(experiments.Options) error{
		"fig1":        figure1,
		"fig3":        figure3,
		"fig4":        figure4,
		"fig5":        figure5,
		"fig6":        figure6,
		"table2":      table2,
		"table4":      table4,
		"validate":    validate,
		"ablations":   ablations,
		"nodesweep":   nodeSweep,
		"dirsweep":    dirSweep,
		"sensitivity": sensitivity,
		"locality":    locality,
		"hotspot":     hotspotGoodput,
	}
	order := []string{"fig1", "fig3", "fig4", "table2", "fig5", "table4", "fig6",
		"validate", "nodesweep", "dirsweep", "sensitivity", "locality", "hotspot", "ablations"}
	if *experiment == "all" {
		for _, name := range order {
			if err := runners[name](o); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		log.Printf("unknown experiment %q; choose from all, %v", *experiment, order)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// emitJSON runs one experiment (or all) and writes its structured rows
// as JSON, for external plotting.
func emitJSON(name string, o experiments.Options) error {
	collect := map[string]func() (interface{}, error){
		"fig1":     func() (interface{}, error) { return experiments.Figure1(o) },
		"fig3":     func() (interface{}, error) { return experiments.Figure3(o) },
		"fig4":     func() (interface{}, error) { return experiments.Figure4(o) },
		"fig5":     func() (interface{}, error) { return experiments.Figure5(o) },
		"fig6":     func() (interface{}, error) { return experiments.Figure6(o) },
		"table2":   func() (interface{}, error) { return experiments.Table2(o) },
		"table4":   func() (interface{}, error) { return experiments.Table4(o) },
		"validate": func() (interface{}, error) { return experiments.Validation(o) },
		"nodesweep": func() (interface{}, error) {
			return experiments.NodeSweep(o, []int{2, 4, 8, 16, 32})
		},
		"dirsweep": func() (interface{}, error) { return experiments.DirectoryScaling(o) },
		"locality": func() (interface{}, error) {
			return experiments.LocalityBenefit(o, []int64{16 << 20, 32 << 20, 64 << 20, 128 << 20, 512 << 20})
		},
		"hotspot": func() (interface{}, error) {
			return experiments.Hotspot(o, experiments.DefaultHotspotAlphas())
		},
	}
	out := map[string]interface{}{}
	if name == "all" {
		for k, fn := range collect {
			v, err := fn()
			if err != nil {
				return err
			}
			out[k] = v
		}
	} else {
		fn, ok := collect[name]
		if !ok {
			return fmt.Errorf("experiment %q has no JSON form", name)
		}
		v, err := fn()
		if err != nil {
			return err
		}
		out[name] = v
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// instrumentedRun runs one instrumented VIA/cLAN simulation. With
// withMetrics it writes the registry's per-node report: message counts
// by type, copied bytes, remote memory writes, completion-latency
// quantiles, and utilization. With traceOut it records per-request span
// trees on simulated time and dumps them as Chrome trace-event JSON.
func instrumentedRun(traceName string, requests, nodes int, seed int64, version string,
	withMetrics bool, traceOut string, traceSample float64) error {
	spec, err := trace.SpecByName(traceName)
	if err != nil {
		return err
	}
	if requests > 0 && requests < spec.NumRequests {
		spec.NumRequests = requests
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		return err
	}
	ver, err := netmodel.VersionByName(version)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	var tracer *tracing.Tracer
	if traceOut != "" {
		tracer = tracing.New(tracing.WithSampleRate(traceSample), tracing.WithMetrics(reg))
	}
	r, err := cluster.Run(cluster.Config{
		Nodes:         nodes,
		Trace:         tr,
		Combo:         netmodel.VIAOverCLAN(),
		Version:       ver,
		Dissemination: core.PB(),
		Seed:          seed,
		Metrics:       reg,
		Tracing:       tracer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("instrumented run: %s, %d nodes, VIA/cLAN %s: %.0f req/s, p50 %.2f ms, p99 %.2f ms, copied %s, RMWs %d\n\n",
		r.TraceName, r.Nodes, r.Version, r.Throughput,
		r.LatencyP50*1e3, r.LatencyP99*1e3, stats.FormatBytes(r.CopiedBytes), r.RMWCount)
	if traceOut != "" {
		if err := writeTraceFile(tracer, traceOut); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s (chrome://tracing or press-trace)\n",
			len(tracer.Records()), traceOut)
	}
	if withMetrics {
		return reg.Report(os.Stdout)
	}
	return nil
}

// chaosMaxRequests caps the trace replay in chaos mode: unlike the
// discrete-event simulator, -chaos drives a real cluster over loopback
// HTTP, where a paper-scale request count would run for minutes.
const chaosMaxRequests = 20000

// chaosOpts parameterizes one chaos run.
type chaosOpts struct {
	traceName   string
	requests    int
	nodes       int
	seed        int64
	version     string
	dissem      string
	withMetrics bool
	traceOut    string
	incidentOut string
	traceSample float64
	duration    time.Duration
	faults      int
	target      string  // "random" (seeded plan) or "hottest"
	hotspot     float64 // Zipf-hotspot client workload (0 = trace order)
	replication bool    // hot-object replication on the cluster
}

// chaosRun starts a real VIA cluster (server.Start, HTTP on loopback),
// drives closed-loop client load at it, and replays a fault plan —
// partitions, heals, crashes, restarts — while it runs. With
// target=random the plan is seeded up front; with target=hottest the
// run watches per-node request shares for the first third of the plan
// window and then crashes the busiest node (restarting it later), the
// reproducible kill-the-hot-cacher scenario. When the plan has played
// out and the cluster has had a settle window to re-mesh, the load
// stops and the run reports availability (error classes from the load
// generator) plus the fault-tolerance counters: failovers by reason,
// reconnects, directory purges, heartbeats, and each node's
// final health view.
func chaosRun(o chaosOpts) error {
	traceName, requests, nodes, seed := o.traceName, o.requests, o.nodes, o.seed
	version, dissem := o.version, o.dissem
	withMetrics, traceOut, incidentOut := o.withMetrics, o.traceOut, o.incidentOut
	traceSample, duration, faults := o.traceSample, o.duration, o.faults
	if nodes < 2 {
		return fmt.Errorf("chaos needs at least 2 nodes")
	}
	strategy, err := core.StrategyByName(dissem)
	if err != nil {
		return err
	}
	spec, err := trace.SpecByName(traceName)
	if err != nil {
		return err
	}
	if requests <= 0 || requests > chaosMaxRequests {
		requests = chaosMaxRequests
	}
	if requests < spec.NumRequests {
		spec.NumRequests = requests
	}
	tr, err := trace.Synthesize(spec)
	if err != nil {
		return err
	}
	ver, err := netmodel.VersionByName(version)
	if err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	var tracer *tracing.Tracer
	if traceOut != "" {
		tracer = tracing.New(tracing.WithSampleRate(traceSample), tracing.WithMetrics(reg))
	}
	var plane *telemetry.Plane
	var incidents atomic.Int32
	if incidentOut != "" {
		// Fast sampling so a sub-second fault plan still leaves a usable
		// pre-fault series window in the report.
		plane = telemetry.New(telemetry.Config{
			Registry: reg,
			Interval: 100 * time.Millisecond,
			Tracer:   tracer,
			Trigger:  telemetry.TriggerConfig{OnPeerDeath: true},
		})
		plane.OnIncident(func(inc *telemetry.Incident) {
			incidents.Add(1)
			if err := writeIncidentFile(inc, incidentOut); err != nil {
				fmt.Printf("incident dump: %v\n", err)
				return
			}
			fmt.Printf("incident (%s): wrote %s\n", inc.Reason, incidentOut)
		})
		// Disarmed until the cluster is up: while nodes start one by
		// one, peers that have not started yet look dead, and that
		// transient must not burn the trigger (and its cooldown) on a
		// false positive.
		plane.SetArmed(false)
		plane.Start()
		defer plane.Stop()
	}
	cl, err := server.Start(server.Config{
		Nodes:         nodes,
		Trace:         tr,
		Transport:     server.TransportVIA,
		Version:       ver,
		Dissemination: strategy,
		CacheBytes:    8 << 20,
		DiskDelay:     200 * time.Microsecond,
		// Failure detection fast enough that a sub-second partition is
		// noticed, suffered through, and healed within the plan.
		Health: server.HealthConfig{
			HeartbeatInterval: 100 * time.Millisecond,
			SuspectAfter:      300 * time.Millisecond,
			DeadAfter:         600 * time.Millisecond,
			FailoverTimeout:   1500 * time.Millisecond,
		},
		Replication: core.ReplicationConfig{Enabled: o.replication},
		Metrics:     reg,
		Tracer:      tracer,
		Telemetry:   plane,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	// Cluster meshed: peer deaths from here on are the fault plan's.
	plane.SetArmed(true)

	fmt.Printf("chaos run: %s, %d requests, %d-node VIA cluster on loopback, dissemination %s\n",
		tr.Name, requests, nodes, strategy)
	if o.hotspot > 0 {
		fmt.Printf("hotspot workload: Zipf(%.2f) over popularity ranks\n", o.hotspot)
	}
	if o.replication {
		fmt.Println("hot-object replication: enabled")
	}

	targets := make([]string, nodes)
	for i, a := range cl.Addrs() {
		targets[i] = "http://" + a
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type lgDone struct {
		res *loadgen.Result
		err error
	}
	lgCh := make(chan lgDone, 1)
	go func() {
		res, err := loadgen.Run(ctx, loadgen.Config{
			Targets:     targets,
			Trace:       tr,
			Concurrency: 8,
			Requests:    requests,
			Hotspot:     o.hotspot,
			Seed:        seed,
			Timeout:     10 * time.Second,
		})
		lgCh <- lgDone{res, err}
	}()

	start := time.Now()
	stop := make(chan struct{})
	defer close(stop)
	var plan server.FaultPlan
	if o.target == "hottest" {
		// Observe under load for the first third of the plan window, then
		// aim a crash/restart pair at the node with the highest observed
		// request share — the hot cacher under a Zipf-hotspot workload.
		select {
		case <-time.After(duration / 3):
		case <-ctx.Done():
		}
		h := hottestNode(cl, nodes)
		fmt.Printf("t+%-7v hottest node by request share: %d (crash now, restart in %v)\n",
			time.Since(start).Round(time.Millisecond), h, duration/3)
		plan = server.FaultPlan{Events: []server.FaultEvent{
			{At: 0, Kind: server.FaultCrash, Node: h},
			{At: duration / 3, Kind: server.FaultRestart, Node: h},
		}}
	} else {
		plan = server.RandomFaultPlan(seed, nodes, duration, faults)
		fmt.Printf("fault plan (seed %d, %d fault pairs over %v):\n", seed, faults, duration)
		for _, ev := range plan.Events {
			fmt.Printf("  t+%-7v %-9s node %d\n", ev.At.Round(time.Millisecond), ev.Kind, ev.Node)
		}
	}
	fmt.Println()
	done, err := cl.StartFaultPlan(plan, stop, func(ev server.FaultEvent, err error) {
		at := time.Since(start).Round(time.Millisecond)
		if err != nil {
			fmt.Printf("t+%-7v %s node %d: %v\n", at, ev.Kind, ev.Node, err)
			return
		}
		fmt.Printf("t+%-7v %s node %d\n", at, ev.Kind, ev.Node)
	})
	if err != nil {
		return err
	}
	<-done
	// Settle window: lifted partitions re-dial, health re-integrates,
	// and in-flight failovers drain before the verdict is taken.
	select {
	case <-time.After(2 * time.Second):
	case <-ctx.Done():
	}
	cancel()
	// Plan played out and settled; disarm so the teardown's peer-death
	// storm cannot overwrite a real incident's report.
	plane.SetArmed(false)
	lg := <-lgCh
	if lg.err != nil {
		return lg.err
	}
	res := lg.res

	served := res.Requests - res.Errors
	avail := 100.0
	if res.Requests > 0 {
		avail = 100 * float64(served) / float64(res.Requests)
	}
	fmt.Printf("\navailability: %d/%d requests served (%.2f%%) in %v, %.0f req/s, p_max %.1f ms\n",
		served, res.Requests, avail, res.Elapsed.Round(time.Millisecond),
		res.Throughput, res.LatencyMax*1e3)
	fmt.Printf("error classes: timeout %d, refused %d, server %d, other %d\n",
		res.ErrTimeout, res.ErrRefused, res.ErrServer, res.ErrOther)
	if res.Imbalance > 0 {
		fmt.Printf("per-node success share: imbalance %.2fx (busiest/mean)\n", res.Imbalance)
	}

	chaosNodeTable(cl, reg, nodes)

	if plane != nil && incidents.Load() == 0 {
		// No trigger fired (the plan may have been all partitions that
		// healed before DeadAfter): dump the whole run so the report is
		// never empty.
		plane.DumpIncident("end of chaos run")
	}

	if traceOut != "" {
		if err := writeTraceFile(tracer, traceOut); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d spans to %s (failover annotations visible in press-trace)\n",
			len(tracer.Records()), traceOut)
	}
	if withMetrics {
		fmt.Println()
		return reg.Report(os.Stdout)
	}
	return nil
}

// hottestNode returns the node with the highest observed request share
// — requests served from its cache, locally or for peers. Node 0 is
// spared, as in RandomFaultPlan, so the cluster keeps a dialing side
// for the restart.
func hottestNode(cl *server.Cluster, nodes int) int {
	best, bestServed := 1, int64(-1)
	for i := 1; i < nodes; i++ {
		st := cl.Nodes()[i].Stats()
		if served := st.LocalHits + st.RemoteHits; served > bestServed {
			best, bestServed = i, served
		}
	}
	return best
}

// chaosNodeTable prints the per-node fault-tolerance counters and each
// node's final health view of its peers.
func chaosNodeTable(cl *server.Cluster, reg *metrics.Registry, nodes int) {
	fmt.Println()
	t := stats.NewTable("Node", "Failovers", "Reconnects", "Purged",
		"HB sent", "HB missed", "Send errs", "Peers not alive")
	reasons := []string{"peer-dead", "send-error", "timeout"}
	byReason := make(map[string]int64, len(reasons))
	for i := 0; i < nodes; i++ {
		node := fmt.Sprintf("node=%d", i)
		var failovers int64
		for _, reason := range reasons {
			v := reg.Counter("press_failovers_total", node, "reason="+reason).Value()
			failovers += v
			byReason[reason] += v
		}
		var sendErrs int64
		for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
			sendErrs += reg.Counter("press_node_send_errors_total", node, "type="+mt.String()).Value()
		}
		view := "-"
		n := cl.Nodes()[i]
		var sick []string
		for p := 0; p < nodes; p++ {
			if p == i {
				continue
			}
			if st := n.PeerState(p); st != server.StateAlive {
				sick = append(sick, fmt.Sprintf("%d:%s", p, st))
			}
		}
		if len(sick) > 0 {
			view = strings.Join(sick, " ")
		}
		if n.Degraded() {
			view += " (degraded)"
		}
		t.AddRowf(i, failovers,
			reg.Counter("press_reconnects_total", node).Value(),
			reg.Counter("press_dir_purged_total", node).Value(),
			reg.Counter("press_heartbeats_sent_total", node).Value(),
			reg.Counter("press_heartbeat_misses_total", node).Value(),
			sendErrs, view)
	}
	fmt.Print(t)
	fmt.Printf("failovers by reason: peer-dead %d, send-error %d, timeout %d\n",
		byReason["peer-dead"], byReason["send-error"], byReason["timeout"])
}

// writeIncidentFile writes one flight-recorder incident report as
// JSON, replacing any previous report at path.
func writeIncidentFile(inc *telemetry.Incident, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := inc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile dumps the tracer's recorded spans as Chrome
// trace-event JSON.
func writeTraceFile(tr *tracing.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// chartMode renders bar charts after figure tables when -chart is set.
var chartMode bool

func barChart(title string, labels []string, values []float64) {
	if !chartMode {
		return
	}
	fmt.Printf("\n%s\n", title)
	c := stats.NewBarChart(48)
	for i, l := range labels {
		c.Add(l, values[i])
	}
	fmt.Print(c)
}

func figure1(o experiments.Options) error {
	rows, err := experiments.Figure1(o)
	if err != nil {
		return err
	}
	header("Figure 1: time spent by PRESS on intra-cluster communication (TCP/FE)")
	t := stats.NewTable("Trace", "Comm share", "CPU-only share", "Throughput")
	for _, r := range rows {
		t.AddRowf(r.Trace, fmt.Sprintf("%.0f%%", r.CommFraction*100),
			fmt.Sprintf("%.0f%%", r.CPUOnlyFraction*100), r.Throughput)
	}
	fmt.Print(t)
	return nil
}

func figure3(o experiments.Options) error {
	rows, err := experiments.Figure3(o)
	if err != nil {
		return err
	}
	header("Figure 3: throughput for protocol/network combinations (req/s)")
	t := stats.NewTable("Trace", "TCP/FE", "TCP/cLAN", "VIA/cLAN", "bw effect", "overhead effect")
	for _, r := range rows {
		t.AddRowf(r.Trace, r.TCPFE, r.TCPCLAN, r.VIACLAN,
			fmt.Sprintf("%+.1f%%", r.BandwidthEffect()*100),
			fmt.Sprintf("%+.1f%%", r.OverheadEffect()*100))
	}
	fmt.Print(t)
	for _, r := range rows {
		barChart(r.Trace,
			[]string{"TCP/FE", "TCP/cLAN", "VIA/cLAN"},
			[]float64{r.TCPFE, r.TCPCLAN, r.VIACLAN})
	}
	return nil
}

func figure4(o experiments.Options) error {
	rows, err := experiments.Figure4(o)
	if err != nil {
		return err
	}
	header("Figure 4: throughput for load-information dissemination strategies (req/s)")
	t := stats.NewTable("Trace", "PB", "L16", "L4", "L1", "NLB")
	for _, r := range rows {
		t.AddRowf(r.Trace, r.Throughput["PB"], r.Throughput["L16"],
			r.Throughput["L4"], r.Throughput["L1"], r.Throughput["NLB"])
	}
	fmt.Print(t)
	for _, r := range rows {
		labels := []string{"PB", "L16", "L4", "L1", "NLB"}
		vals := make([]float64, len(labels))
		for i, l := range labels {
			vals[i] = r.Throughput[l]
		}
		barChart(r.Trace, labels, vals)
	}
	return nil
}

func msgTable(title, labelHeader string, blocks []struct {
	label string
	msgs  core.MsgStats
}) {
	header(title)
	t := stats.NewTable(labelHeader, "Msg type", "Num msgs (K)", "Num bytes (MB)", "Avg msg size")
	for _, b := range blocks {
		for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
			t.AddRowf(b.label, mt.String(),
				float64(b.msgs.Count[mt])/1e3,
				float64(b.msgs.Bytes[mt])/1e6,
				b.msgs.AvgSize(mt))
		}
		count, bytes := b.msgs.Total()
		t.AddRowf(b.label, "TOTAL", float64(count)/1e3, float64(bytes)/1e6, "")
	}
	fmt.Print(t)
}

func table2(o experiments.Options) error {
	entries, err := experiments.Table2(o)
	if err != nil {
		return err
	}
	blocks := make([]struct {
		label string
		msgs  core.MsgStats
	}, len(entries))
	for i, e := range entries {
		blocks[i].label = e.Strategy
		blocks[i].msgs = e.Msgs
	}
	msgTable(fmt.Sprintf("Table 2: intra-cluster communication and dissemination strategies (%s)", o.Trace), "Strategy", blocks)
	return nil
}

func figure5(o experiments.Options) error {
	rows, err := experiments.Figure5(o)
	if err != nil {
		return err
	}
	header("Figure 5: throughput increase of the RMW and zero-copy versions over V0")
	t := stats.NewTable("Trace", "V1", "V2", "V3", "V4", "V5")
	for _, r := range rows {
		cells := []interface{}{r.Trace}
		for _, g := range r.Gain {
			cells = append(cells, fmt.Sprintf("%+.1f%%", g*100))
		}
		t.AddRowf(cells...)
	}
	fmt.Print(t)
	return nil
}

func table4(o experiments.Options) error {
	entries, err := experiments.Table4(o)
	if err != nil {
		return err
	}
	blocks := make([]struct {
		label string
		msgs  core.MsgStats
	}, len(entries))
	for i, e := range entries {
		blocks[i].label = e.Version
		blocks[i].msgs = e.Msgs
	}
	msgTable(fmt.Sprintf("Table 4: intra-cluster communication, RMW, and zero-copy (%s)", o.Trace), "Version", blocks)
	return nil
}

func figure6(o experiments.Options) error {
	rows, err := experiments.Figure6(o)
	if err != nil {
		return err
	}
	header("Figure 6: summary of contributions (normalized to full user-level throughput)")
	t := stats.NewTable("Trace", "TCP/cLAN base", "Low overhead", "RMW", "0-copy", "Total gain")
	for _, r := range rows {
		base, low, rmw, zc := r.Contributions()
		t.AddRowf(r.Trace,
			fmt.Sprintf("%.2f", base), fmt.Sprintf("%.2f", low),
			fmt.Sprintf("%.2f", rmw), fmt.Sprintf("%.2f", zc),
			fmt.Sprintf("%+.1f%%", r.TotalGain()*100))
	}
	fmt.Print(t)
	return nil
}

func validate(o experiments.Options) error {
	rows, err := experiments.Validation(o)
	if err != nil {
		return err
	}
	header("Model validation: simulator vs analytical upper bound (Section 4.2)")
	t := stats.NewTable("Trace", "System", "Simulated", "Model", "Model/Sim")
	for _, r := range rows {
		t.AddRowf(r.Trace, r.System, r.Simulated, r.Modeled, fmt.Sprintf("%.2f", r.Ratio))
	}
	fmt.Print(t)
	return nil
}

func nodeSweep(o experiments.Options) error {
	pts, err := experiments.NodeSweep(o, []int{2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	header("Node sweep: user-level gain vs cluster size, simulator and model (trace " + o.Trace + ")")
	t := stats.NewTable("Nodes", "TCP/cLAN", "VIA/cLAN", "Sim gain", "Model gain")
	for _, p := range pts {
		t.AddRowf(p.Nodes, p.TCP, p.VIA,
			fmt.Sprintf("%+.1f%%", p.Gain*100),
			fmt.Sprintf("%+.1f%%", p.ModelGain*100))
	}
	fmt.Print(t)
	return nil
}

func dirSweep(o experiments.Options) error {
	rows, err := experiments.DirectoryScaling(o)
	if err != nil {
		return err
	}
	header("Directory scaling: broadcast vs sharded directory traffic (trace " + o.Trace + ")")
	t := stats.NewTable("Nodes", "Strategy", "Throughput", "Dir msgs",
		"Dir/req", "Dir/req/node")
	for _, r := range rows {
		for _, c := range r.Cells {
			t.AddRowf(r.Nodes, c.Strategy, c.Throughput, c.DirMsgs,
				fmt.Sprintf("%.2f", c.DirPerReq),
				fmt.Sprintf("%.4f", c.DirPerNodeReq))
		}
	}
	fmt.Print(t)
	return nil
}

func sensitivity(o experiments.Options) error {
	ov, err := experiments.OverheadSweep(o, []float64{2, 7, 15, 30, 60, 135, 270})
	if err != nil {
		return err
	}
	header("Sensitivity: per-message processor overhead (trace " + o.Trace + ")")
	t := stats.NewTable("Overhead (us/msg/end)", "Throughput", "Comm share")
	for _, p := range ov {
		t.AddRowf(fmt.Sprintf("%g", p.OverheadUS), p.Throughput,
			fmt.Sprintf("%.0f%%", p.CommFraction*100))
	}
	fmt.Print(t)

	bw, err := experiments.BandwidthSweep(o, []float64{2, 4, 8, 11.5, 32, 102, 250, 1000})
	if err != nil {
		return err
	}
	header("Sensitivity: internal wire bandwidth (trace " + o.Trace + ")")
	t = stats.NewTable("Wire (MB/s)", "Throughput", "Mean latency (ms)")
	for _, p := range bw {
		t.AddRowf(fmt.Sprintf("%g", p.MBps), p.Throughput,
			fmt.Sprintf("%.2f", p.LatencyMean*1e3))
	}
	fmt.Print(t)
	return nil
}

func locality(o experiments.Options) error {
	pts, err := experiments.LocalityBenefit(o, []int64{16 << 20, 32 << 20, 64 << 20, 128 << 20, 512 << 20})
	if err != nil {
		return err
	}
	header("Locality benefit: PRESS vs a content-oblivious baseline (trace " + o.Trace + ")")
	t := stats.NewTable("Cache/node", "Oblivious", "PRESS", "Advantage", "Obl. hit", "PRESS hit")
	for _, p := range pts {
		t.AddRowf(stats.FormatBytes(p.CacheBytes), p.Oblivious, p.PRESS,
			fmt.Sprintf("%+.1f%%", (p.PRESS/p.Oblivious-1)*100),
			fmt.Sprintf("%.3f", p.ObliviousHit), fmt.Sprintf("%.3f", p.PRESSHit))
	}
	fmt.Print(t)
	return nil
}

func hotspotGoodput(o experiments.Options) error {
	rows, err := experiments.Hotspot(o, experiments.DefaultHotspotAlphas())
	if err != nil {
		return err
	}
	header("Hotspot goodput: Zipf-hotspot workloads with and without hot-object replication (trace " + o.Trace + ")")
	t := stats.NewTable("Zipf alpha", "No replication", "Replication", "Gain",
		"p99 off (ms)", "p99 on (ms)", "Pushes", "Drops")
	for _, r := range rows {
		t.AddRowf(fmt.Sprintf("%.2g", r.Alpha), r.ThroughputOff, r.ThroughputOn,
			fmt.Sprintf("%+.1f%%", r.Gain()*100),
			fmt.Sprintf("%.2f", r.P99Off*1e3), fmt.Sprintf("%.2f", r.P99On*1e3),
			r.ReplicaPushes, r.ReplicaDrops)
	}
	fmt.Print(t)
	return nil
}

func ablations(o experiments.Options) error {
	header("Ablations (trace " + o.Trace + ", VIA/cLAN)")

	pts, err := experiments.AblationLoadThreshold(o, []int{1, 2, 4, 8, 16, 32})
	if err != nil {
		return err
	}
	t := stats.NewTable("Load threshold L", "Throughput")
	for _, p := range pts {
		t.AddRowf(int(p.Param), p.Throughput)
	}
	fmt.Print(t)

	reg, rmw, err := experiments.AblationLoadRMW(o)
	if err != nil {
		return err
	}
	fmt.Printf("\nL1 with regular load broadcasts: %.0f req/s; with RMW: %.0f req/s (%+.1f%%)\n",
		reg, rmw, (rmw/reg-1)*100)

	v2, v3, v3s, err := experiments.AblationRMWSingleMessage(o)
	if err != nil {
		return err
	}
	fmt.Printf("\nRMW file transfer: V2 %.0f, V3 %.0f, hypothetical single-message V3 %.0f req/s\n", v2, v3, v3s)

	sweeps := []struct {
		name string
		fn   func() ([]experiments.SweepPoint, error)
	}{
		{"flow-control credit batch", func() ([]experiments.SweepPoint, error) {
			return experiments.AblationFlowBatch(o, []int{1, 2, 4, 8, 16})
		}},
		{"overload threshold T", func() ([]experiments.SweepPoint, error) {
			return experiments.AblationOverloadThreshold(o, []int{20, 40, 80, 160, 320})
		}},
		{"large-file cutoff (bytes)", func() ([]experiments.SweepPoint, error) {
			return experiments.AblationLargeFileCutoff(o, []int64{32 << 10, 128 << 10, 512 << 10, 2 << 20})
		}},
		{"file segment size (bytes)", func() ([]experiments.SweepPoint, error) {
			return experiments.AblationSegmentSize(o, []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10})
		}},
		{"per-node cache (bytes)", func() ([]experiments.SweepPoint, error) {
			return experiments.AblationCacheSize(o, []int64{16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20})
		}},
	}
	for _, s := range sweeps {
		pts, err := s.fn()
		if err != nil {
			return err
		}
		fmt.Println()
		t := stats.NewTable(s.name, "Throughput")
		for _, p := range pts {
			t.AddRowf(int(p.Param), p.Throughput)
		}
		fmt.Print(t)
	}
	return nil
}
