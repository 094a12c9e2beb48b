// Command pressd runs a real PRESS cluster in one process: N server
// nodes over software VIA or loopback TCP, each serving HTTP. Node
// addresses are printed at startup; drive them with press-loadgen or
// any HTTP client, and stop with SIGINT.
//
// Usage:
//
//	pressd [-nodes 4] [-transport via|tcp] [-version V0..V5]
//	       [-dissemination PB|L16|L4|L1|NLB|SHARD|GOSSIP] [-trace clarknet] [-files N]
//	       [-cache BYTES] [-disk-delay 2ms] [-replication] [-metrics] [-expose]
//	       [-incident-out FILE] [-trace-out FILE] [-trace-sample RATE]
//	       [-pprof ADDR]
//	pressd -node I -peers HOST:PORT,... [-http ADDR] [-udp-peers ADDR,...]
//	       [-drain 5s] ...
//
// With -peers, pressd runs in mesh mode: ONE node per OS process. The
// comma-separated list names every node's intra-cluster listen address
// and -node says which entry this process is. Peers mesh over the
// versioned membership handshake; a late or restarted process joins
// under a fresh epoch and has the directory replayed. -transport via
// additionally needs -udp-peers, the VIA bridge endpoints. SIGTERM
// announces the leave and drains in-flight clients (deadline -drain)
// before exiting 0.
//
// With -replication, hot-object replication is enabled with its
// defaults: files whose request rate and cacher load cross the
// thresholds are pushed to extra replicas and routed with
// power-of-two choices (see press_replica_* metric families).
//
// With -metrics, pressd collects per-NIC and per-node instrument
// families in a metrics registry and dumps the report on exit; SIGUSR1
// dumps a live report without stopping the server.
//
// With -expose (implies -metrics), every node serves the registry in
// Prometheus text format at /_press/metrics — point press-top or any
// scraper at the printed URLs.
//
// With -incident-out FILE (implies -metrics), pressd runs a telemetry
// plane — a flight recorder sampling the registry once a second and
// logging cluster events (peer death, failover, brownouts) — and writes
// a JSON incident report to FILE when a peer dies, when the shed rate
// spikes, or on SIGQUIT.
//
// With -trace-out FILE, pressd records end-to-end request traces —
// accept, dispatch, forward, credit-stall, staging-copy, disk, and
// reply spans stitched across nodes — and writes them as Chrome
// trace-event JSON on exit and on SIGUSR1. -trace-sample controls head
// sampling. -pprof ADDR serves net/http/pprof on the given address.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("pressd: ")
	var (
		nodes       = flag.Int("nodes", 4, "cluster size")
		transport   = flag.String("transport", "via", "intra-cluster transport: via or tcp")
		version     = flag.String("version", "V5", "communication version V0..V5 (VIA only)")
		traceName   = flag.String("trace", "clarknet", "file population: clarknet, forth, nasa, rutgers")
		files       = flag.Int("files", 2000, "limit the file population (0 = full trace)")
		cache       = flag.Int64("cache", 64<<20, "per-node cache bytes")
		diskDelay   = flag.Duration("disk-delay", 2*time.Millisecond, "artificial disk read latency")
		replication = flag.Bool("replication", false, "enable hot-object replication (popularity-triggered replicas, power-of-two-choices routing)")
		withMet     = flag.Bool("metrics", false, "collect a metrics registry; dump on exit and on SIGUSR1")
		expose      = flag.Bool("expose", false, "serve Prometheus exposition at /_press/metrics on every node (implies -metrics)")
		incidentOut = flag.String("incident-out", "", "run the telemetry flight recorder; write a JSON incident report to FILE on peer death, shed spike, or SIGQUIT (implies -metrics)")
		traceOut    = flag.String("trace-out", "", "record request traces; write Chrome trace-event JSON to FILE on exit and on SIGUSR1")
		traceSample = flag.Float64("trace-sample", 1.0, "fraction of requests to trace (head sampling)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		node        = flag.Int("node", -1, "mesh mode: run ONE node of a multi-process cluster; this process's id in the -peers list")
		peers       = flag.String("peers", "", "mesh mode: comma-separated intra-cluster listen addresses, one per node (enables mesh mode)")
		httpAddr    = flag.String("http", "", "mesh mode: client-facing HTTP bind address (default: loopback, ephemeral port)")
		udpPeers    = flag.String("udp-peers", "", "mesh mode: comma-separated VIA bridge UDP addresses, one per node (transport via)")
		drain       = flag.Duration("drain", 5*time.Second, "mesh mode: deadline for the graceful SIGTERM drain")
	)
	strategy := cliflag.Dissemination(flag.CommandLine, "dissemination", core.PB(), "")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// The default mux carries the pprof handlers via the
			// net/http/pprof blank import.
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	spec, err := trace.SpecByName(*traceName)
	if err != nil {
		log.Fatal(err)
	}
	if *files > 0 && *files < spec.NumFiles {
		spec.NumFiles = *files
	}
	spec.NumRequests = 1 // the population matters; requests come from clients
	tr, err := trace.Synthesize(spec)
	if err != nil {
		log.Fatal(err)
	}

	kind := server.TransportVIA
	if *transport == "tcp" {
		kind = server.TransportTCP
	} else if *transport != "via" {
		log.Fatalf("unknown transport %q", *transport)
	}
	ver, err := netmodel.VersionByName(*version)
	if err != nil {
		log.Fatal(err)
	}
	var reg *metrics.Registry
	if *withMet || *expose || *incidentOut != "" {
		reg = metrics.NewRegistry()
	}
	var tracer *tracing.Tracer
	if *traceOut != "" {
		tracer = tracing.New(tracing.WithSampleRate(*traceSample), tracing.WithMetrics(reg))
	}
	var plane *telemetry.Plane
	if *incidentOut != "" {
		plane = telemetry.New(telemetry.Config{
			Registry: reg,
			Tracer:   tracer,
			Trigger:  telemetry.TriggerConfig{OnPeerDeath: true},
		})
		plane.OnIncident(func(inc *telemetry.Incident) {
			if err := writeIncident(inc, *incidentOut); err != nil {
				log.Printf("incident dump: %v", err)
				return
			}
			fmt.Printf("--- incident (%s): wrote %s ---\n", inc.Reason, *incidentOut)
		})
		// Disarmed until the cluster is up: nodes starting one by one
		// look dead to each other, and that transient must not burn
		// the trigger (and its cooldown) on a false positive.
		plane.SetArmed(false)
		plane.Start()
		defer plane.Stop()
	}
	if *peers != "" {
		peerList := splitAddrs(*peers)
		var udpList []string
		if *udpPeers != "" {
			udpList = splitAddrs(*udpPeers)
		}
		if *node < 0 || *node >= len(peerList) {
			log.Fatalf("-node %d out of range for %d -peers", *node, len(peerList))
		}
		if kind == server.TransportVIA && len(udpList) != len(peerList) {
			log.Fatalf("transport via needs -udp-peers with %d addresses, got %d", len(peerList), len(udpList))
		}
		code := runMeshNode(server.Config{
			Nodes:         len(peerList),
			Trace:         tr,
			Transport:     kind,
			Version:       ver,
			Dissemination: *strategy,
			CacheBytes:    *cache,
			DiskDelay:     *diskDelay,
			Replication:   core.ReplicationConfig{Enabled: *replication},
			Metrics:       reg,
			Tracer:        tracer,
			Telemetry:     plane,
			Mesh: &server.MeshConfig{
				Self:      *node,
				PeerAddrs: peerList,
				UDPAddrs:  udpList,
				HTTPAddr:  *httpAddr,
			},
		}, plane, reg, tracer, *traceOut, *drain)
		plane.Stop()
		os.Exit(code)
	}

	cl, err := server.Start(server.Config{
		Nodes:         *nodes,
		Trace:         tr,
		Transport:     kind,
		Version:       ver,
		Dissemination: *strategy,
		CacheBytes:    *cache,
		DiskDelay:     *diskDelay,
		Replication:   core.ReplicationConfig{Enabled: *replication},
		Metrics:       reg,
		Tracer:        tracer,
		Telemetry:     plane,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	plane.SetArmed(true)

	repl := ""
	if *replication {
		repl = ", replication on"
	}
	fmt.Printf("PRESS cluster up: %d nodes, %s transport, version %s, strategy %s, %d files%s\n",
		*nodes, kind, ver.Name, *strategy, len(tr.Files), repl)
	for i, a := range cl.Addrs() {
		fmt.Printf("  node %d: http://%s\n", i, a)
	}
	if *expose {
		for i, a := range cl.Addrs() {
			fmt.Printf("  scrape node %d: http://%s/_press/metrics\n", i, a)
		}
	}
	fmt.Println("serving; Ctrl-C to stop")

	// One goroutine owns all signal handling: SIGUSR1 dumps live
	// observability (metrics report and trace file) without stopping the
	// server; SIGQUIT forces a flight-recorder incident dump;
	// SIGINT/SIGTERM fall through to the shutdown path below, which
	// dumps everything a final time.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT {
			if plane != nil {
				plane.DumpIncident("SIGQUIT")
			} else {
				log.Print("SIGQUIT: no telemetry plane (run with -incident-out)")
			}
			continue
		}
		if s != syscall.SIGUSR1 {
			// Shutting down: the teardown's peer-death storm must not
			// overwrite a real incident's report.
			plane.SetArmed(false)
			break
		}
		if reg != nil {
			fmt.Println("\n--- metrics (SIGUSR1) ---")
			if err := reg.Report(os.Stdout); err != nil {
				log.Print(err)
			}
		}
		if tracer != nil {
			if err := dumpTraces(tracer, *traceOut); err != nil {
				log.Print(err)
			} else {
				fmt.Printf("--- traces (SIGUSR1): wrote %s ---\n", *traceOut)
			}
		}
	}

	s := cl.Stats()
	fmt.Printf("\nrequests=%d localHits=%d localMisses=%d forwarded=%d remoteHits=%d replicas=%d diskReads=%d errors=%d\n",
		s.Nodes.Requests, s.Nodes.LocalHits, s.Nodes.LocalMisses, s.Nodes.Forwarded,
		s.Nodes.RemoteHits, s.Nodes.Replicas, s.Nodes.DiskReads, s.Nodes.Errors)
	for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
		fmt.Printf("  %-8s %8d msgs %12d bytes\n", mt, s.Msgs.Count[mt], s.Msgs.Bytes[mt])
	}
	if reg != nil {
		fmt.Println("\n--- metrics ---")
		if err := reg.Report(os.Stdout); err != nil {
			log.Print(err)
		}
	}
	if tracer != nil {
		if err := dumpTraces(tracer, *traceOut); err != nil {
			log.Print(err)
		} else {
			fmt.Printf("\nwrote %d spans to %s (chrome://tracing or press-trace)\n",
				len(tracer.Records()), *traceOut)
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
