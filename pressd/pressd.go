// Package pressd is the PRESS server process: the pressd command's
// flags, startup and signal handling behind one entry point, Main. The
// pressd command is Main plus its usage doc (see cmd/pressd), and the
// multi-process harness (server/procharness) re-execs its children into
// Main, so the node a test kills is the node that ships.
package pressd

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"press/cliflag"
	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/server"
	"press/telemetry"
	"press/trace"
	"press/tracing"
)

// Main runs pressd with the command line args (program name excluded)
// and returns the process exit code: 0 after an orderly stop or a
// completed SIGTERM drain, 1 when the cluster cannot start or a drain
// misses its deadline, 2 for a command line that does not parse. It
// parses into its own FlagSet and never exits the process, so a test
// can call it in-process.
func Main(args []string) int {
	lg := log.New(os.Stderr, "pressd: ", 0)
	fs := flag.NewFlagSet("pressd", flag.ContinueOnError)
	var (
		nodes       = fs.Int("nodes", 4, "cluster size")
		transport   = fs.String("transport", "via", "intra-cluster transport: via or tcp")
		version     = fs.String("version", "V5", "communication version V0..V5 (VIA only)")
		traceName   = fs.String("trace", "clarknet", "file population: clarknet, forth, nasa, rutgers")
		files       = fs.Int("files", 2000, "limit the file population (0 = full trace)")
		cache       = fs.Int64("cache", 64<<20, "per-node cache bytes")
		diskDelay   = fs.Duration("disk-delay", 2*time.Millisecond, "artificial disk read latency")
		heartbeat   = fs.Duration("heartbeat", 0, "failure-detector heartbeat interval; the suspect, dead and failover timers scale with it (0 = server default, 250ms)")
		replication = fs.Bool("replication", false, "enable hot-object replication (popularity-triggered replicas, power-of-two-choices routing)")
		withMet     = fs.Bool("metrics", false, "collect a metrics registry; dump on exit and on SIGUSR1")
		expose      = fs.Bool("expose", false, "serve Prometheus exposition at /_press/metrics on every node (implies -metrics)")
		incidentOut = fs.String("incident-out", "", "run the telemetry flight recorder; write a JSON incident report to FILE on peer death, shed spike, or SIGQUIT (implies -metrics)")
		traceOut    = fs.String("trace-out", "", "record request traces; write Chrome trace-event JSON to FILE on exit and on SIGUSR1")
		traceSample = fs.Float64("trace-sample", 1.0, "fraction of requests to trace (head sampling)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		node        = fs.Int("node", -1, "mesh mode: run ONE node of a multi-process cluster; this process's id in the -peers list")
		peers       = fs.String("peers", "", "mesh mode: comma-separated intra-cluster listen addresses, one per node (enables mesh mode; on via, the bridge's)")
		httpAddr    = fs.String("http", "", "mesh mode: client-facing HTTP bind address (default: loopback, ephemeral port)")
		drain       = fs.Duration("drain", 5*time.Second, "mesh mode: deadline for the graceful SIGTERM drain")
	)
	strategy := cliflag.Dissemination(fs, "dissemination", core.PB(), "")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Everything that can be wrong with the command line is checked
	// before any port is bound or any goroutine started.
	kind := server.TransportVIA
	if *transport == "tcp" {
		kind = server.TransportTCP
	} else if *transport != "via" {
		lg.Printf("unknown transport %q", *transport)
		return 1
	}
	ver, err := netmodel.VersionByName(*version)
	if err != nil {
		lg.Print(err)
		return 1
	}
	var mesh *server.MeshConfig
	if *peers != "" {
		if mesh, err = meshConfig(*node, *peers, *httpAddr); err != nil {
			lg.Print(err)
			return 1
		}
	}

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers when the binary
			// links net/http/pprof, as cmd/pressd does.
			lg.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	spec, err := trace.SpecByName(*traceName)
	if err != nil {
		lg.Print(err)
		return 1
	}
	if *files > 0 && *files < spec.NumFiles {
		spec.NumFiles = *files
	}
	spec.NumRequests = 1 // the population matters; requests come from clients
	tr, err := trace.Synthesize(spec)
	if err != nil {
		lg.Print(err)
		return 1
	}

	o := &observers{log: lg, traceOut: *traceOut}
	if *withMet || *expose || *incidentOut != "" {
		o.reg = metrics.NewRegistry()
	}
	if *traceOut != "" {
		o.tracer = tracing.New(tracing.WithSampleRate(*traceSample), tracing.WithMetrics(o.reg))
	}
	if *incidentOut != "" {
		o.plane = telemetry.New(telemetry.Config{
			Registry: o.reg,
			Tracer:   o.tracer,
			Trigger:  telemetry.TriggerConfig{OnPeerDeath: true},
		})
		o.plane.OnIncident(func(inc *telemetry.Incident) {
			if err := writeIncident(inc, *incidentOut); err != nil {
				lg.Printf("incident dump: %v", err)
				return
			}
			fmt.Printf("--- incident (%s): wrote %s ---\n", inc.Reason, *incidentOut)
		})
		// Disarmed until the cluster is up: nodes starting one by one
		// look dead to each other, and that transient must not burn
		// the trigger (and its cooldown) on a false positive.
		o.plane.SetArmed(false)
		o.plane.Start()
		defer o.plane.Stop()
	}

	cfg := server.Config{
		Nodes:         *nodes,
		Trace:         tr,
		Transport:     kind,
		Version:       ver,
		Dissemination: *strategy,
		CacheBytes:    *cache,
		DiskDelay:     *diskDelay,
		Health:        server.HealthConfig{HeartbeatInterval: *heartbeat},
		Replication:   core.ReplicationConfig{Enabled: *replication},
		Metrics:       o.reg,
		Tracer:        o.tracer,
		Telemetry:     o.plane,
	}
	if mesh != nil {
		cfg.Nodes = len(mesh.PeerAddrs)
		cfg.Mesh = mesh
		return o.runMeshNode(cfg, *drain)
	}
	return o.runCluster(cfg, *expose)
}

// observers is the observability a pressd process runs, every part
// optional: the metrics registry, the request tracer and the file its
// spans go to, and the telemetry plane's flight recorder.
type observers struct {
	log      *log.Logger
	reg      *metrics.Registry
	tracer   *tracing.Tracer
	traceOut string
	plane    *telemetry.Plane
}

// runCluster runs all cfg.Nodes nodes in this process until SIGINT or
// SIGTERM, then prints the cluster's request and message account.
func (o *observers) runCluster(cfg server.Config, expose bool) int {
	cl, err := server.Start(cfg)
	if err != nil {
		o.log.Print(err)
		return 1
	}
	defer cl.Close()
	o.plane.SetArmed(true)

	repl := ""
	if cfg.Replication.Enabled {
		repl = ", replication on"
	}
	fmt.Printf("PRESS cluster up: %d nodes, %s transport, version %s, strategy %s, %d files%s\n",
		cfg.Nodes, cfg.Transport, cfg.Version.Name, cfg.Dissemination, len(cfg.Trace.Files), repl)
	for i, a := range cl.Addrs() {
		fmt.Printf("  node %d: http://%s\n", i, a)
	}
	if expose {
		for i, a := range cl.Addrs() {
			fmt.Printf("  scrape node %d: http://%s/_press/metrics\n", i, a)
		}
	}
	fmt.Println("serving; Ctrl-C to stop")

	// Either stop signal falls through to the shutdown path below, which
	// dumps everything a final time.
	o.awaitStop()

	s := cl.Stats()
	fmt.Printf("\nrequests=%d localHits=%d localMisses=%d forwarded=%d remoteHits=%d replicas=%d diskReads=%d errors=%d\n",
		s.Nodes.Requests, s.Nodes.LocalHits, s.Nodes.LocalMisses, s.Nodes.Forwarded,
		s.Nodes.RemoteHits, s.Nodes.Replicas, s.Nodes.DiskReads, s.Nodes.Errors)
	for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
		fmt.Printf("  %-8s %8d msgs %12d bytes\n", mt, s.Msgs.Count[mt], s.Msgs.Bytes[mt])
	}
	if o.reg != nil {
		fmt.Println("\n--- metrics ---")
		if err := o.reg.Report(os.Stdout); err != nil {
			o.log.Print(err)
		}
	}
	if o.tracer != nil {
		if err := dumpTraces(o.tracer, o.traceOut); err != nil {
			o.log.Print(err)
		} else {
			fmt.Printf("\nwrote %d spans to %s (chrome://tracing or press-trace)\n",
				len(o.tracer.Records()), o.traceOut)
		}
	}
	return 0
}

// awaitStop owns all signal handling, in both modes, until a stop
// signal arrives, and returns that signal: SIGUSR1 dumps live
// observability (metrics report and trace file) without stopping the
// server; SIGQUIT forces a flight-recorder incident dump; SIGINT and
// SIGTERM end the loop, and the caller decides what each means.
func (o *observers) awaitStop() os.Signal {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGQUIT)
	defer signal.Stop(sig)
	for {
		switch s := <-sig; s {
		case syscall.SIGUSR1:
			o.dumpLive()
		case syscall.SIGQUIT:
			if o.plane != nil {
				o.plane.DumpIncident("SIGQUIT")
			} else {
				o.log.Print("SIGQUIT: no telemetry plane (run with -incident-out)")
			}
		default:
			// Shutting down: the teardown's peer-death storm must not
			// overwrite a real incident's report.
			o.plane.SetArmed(false)
			return s
		}
	}
}

// dumpLive writes the metrics report to stdout and the recorded traces
// to their file, leaving the server running.
func (o *observers) dumpLive() {
	if o.reg != nil {
		fmt.Println("\n--- metrics (SIGUSR1) ---")
		if err := o.reg.Report(os.Stdout); err != nil {
			o.log.Print(err)
		}
	}
	if o.tracer != nil {
		if err := dumpTraces(o.tracer, o.traceOut); err != nil {
			o.log.Print(err)
		} else {
			fmt.Printf("--- traces (SIGUSR1): wrote %s ---\n", o.traceOut)
		}
	}
}

// writeIncident writes one incident report as JSON, replacing any
// previous report at path.
func writeIncident(inc *telemetry.Incident, path string) error {
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

// dumpTraces writes the tracer's recorded spans as Chrome trace-event
// JSON, replacing any previous dump at path.
func dumpTraces(tr *tracing.Tracer, path string) error {
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
