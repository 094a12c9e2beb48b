// Command pressd runs a real PRESS cluster in one process: N server
// nodes over software VIA or loopback TCP, each serving HTTP. Node
// addresses are printed at startup; drive them with press-loadgen or
// any HTTP client, and stop with SIGINT.
//
// Usage:
//
//	pressd [-nodes 4] [-transport via|tcp] [-version V0..V5]
//	       [-dissemination PB|L16|L4|L1|NLB|SHARD] [-trace clarknet] [-files N]
//	       [-cache BYTES] [-disk-delay 2ms] [-heartbeat 250ms] [-replication]
//	       [-metrics] [-expose]
//	       [-incident-out FILE] [-trace-out FILE] [-trace-sample RATE]
//	       [-pprof ADDR]
//	pressd -node I -peers HOST:PORT,... [-http ADDR] [-drain 5s] ...
//
// With -peers, pressd runs in mesh mode: ONE node per OS process. The
// comma-separated list names every node's intra-cluster listen address
// and -node says which entry this process is. Processes start in any
// order; a late or restarted process joins and has the directory
// replayed. On -transport tcp peers mesh over the versioned membership
// handshake, and a new life runs under a fresh epoch. On -transport via
// each entry is that node's VIA bridge endpoint: each cross-process VI
// channel is one TCP connection between two of them. SIGTERM announces
// the leave and drains in-flight clients (deadline -drain) before
// exiting 0.
//
// -heartbeat sets the failure detectors' heartbeat interval (default
// 250ms); the suspect, dead and failover timers scale with it, so a
// short one finds a crashed peer in well under a second. The
// multi-process harness (server/procharness) runs its children as
// pressd in mesh mode with -heartbeat 50ms.
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
//
// The command is press/pressd's Main; this file adds only the pprof
// handlers, which stay out of that library so they register in no
// other binary that links it.
package main

import (
	_ "net/http/pprof"
	"os"

	"press/pressd"
)

func main() { os.Exit(pressd.Main(os.Args[1:])) }
