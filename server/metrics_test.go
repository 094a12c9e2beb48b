package server

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
)

// statFamilies is the accounting vocabulary: the registry family (summed
// over its other labels) each NodeStats field is a read of.
func statFamilies(ns NodeStats) map[string]int64 {
	return map[string]int64{
		"press_requests_total":          ns.Requests,
		"press_serve_local_total":       ns.LocalHits,
		"press_serve_local_miss_total":  ns.LocalMisses,
		"press_serve_forward_total":     ns.Forwarded,
		"press_serve_remote_total":      ns.RemoteHits,
		"press_serve_remote_miss_total": ns.Replicas,
		"press_disk_reads_total":        ns.DiskReads,
		"press_errors_total":            ns.Errors,
		"press_replica_pushes_total":    ns.ReplicaPushes,
		"press_replica_pulls_total":     ns.ReplicaPulls,
		"press_replica_drops_total":     ns.ReplicaDrops,
		"press_shed_total":              ns.Shed,
		"press_deadline_expired_total":  ns.DeadlineExpired,
		"press_goodput_requests_total":  ns.Goodput,
	}
}

// getStats fetches and decodes a node's stats endpoint.
func getStats(t *testing.T, url string) nodeStatsJSON {
	t.Helper()
	var got nodeStatsJSON
	body, err := Fetch(url, statsPath)
	if err == nil {
		err = json.Unmarshal(body, &got)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestClusterMetricsVIA: the server keeps one account. Node.Stats,
// /_press/stats, Cluster.Stats and (when there is one) the registry are
// reads of the same counters, so after a drive they carry identical
// values whether or not a registry is configured, and on a fault-free
// run those values partition the requests the way the paper's Table 5
// terms need. Every view is also read while the counters move, for the
// race detector. With a registry, the transport and NIC families agree
// with the aggregate Stats path the same way.
func TestClusterMetricsVIA(t *testing.T) {
	for _, withRegistry := range []bool{true, false} {
		t.Run(fmt.Sprintf("registry=%v", withRegistry), func(t *testing.T) {
			tr := serverTestTrace(t, 24)
			cfg := testClusterConfig(tr, TransportVIA)
			cfg.Nodes = 4
			cfg.Version = netmodel.Versions()[3] // V3: RMW control + file rings
			// Overload control at its defaults is far from its limits:
			// nothing is shed, and goodput counts every answered request.
			var reg *metrics.Registry
			if withRegistry {
				reg = metrics.NewRegistry()
				cfg.Metrics = reg
			}
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// 25 names over 4 nodes: the drive reaches every file through
			// every node, and one name in 25 is a 404.
			names := []string{"/no-such-file"}
			for _, f := range tr.Files {
				names = append(names, f.Name)
			}
			drv := startDrive(cl, []int{0, 1, 2, 3}, names, 4)
			for round := 0; round < 10; round++ {
				for i, n := range cl.Nodes() {
					_, _, _ = getStats(t, cl.URL(i)), n.Stats(), cl.Stats()
					_, err := Fetch(cl.URL(i), metricsPath)
					if withRegistry != (err == nil) || err != nil && !strings.Contains(err.Error(), "404") {
						t.Fatalf("node %d: %s with registry=%v: %v", i, metricsPath, withRegistry, err)
					}
				}
			}
			// The drive pairs name k with node k%4 until it wraps the 25 names:
			// on a fast run the rounds above end before anything is forwarded,
			// and node 0 serves its first forward a few requests after the
			// cluster's first. Wait for that one: the file-message check below
			// reads node 0.
			waitFor(t, 10*time.Second, "a request forwarded to node 0", func() bool {
				ns := cl.Nodes()[0].Stats()
				return ns.RemoteHits+ns.Replicas > 0
			})
			answered, notFound := drv.stop()

			// Requests are quiescent now; heartbeats are not, so the message
			// counts are bracketed instead of matched.
			before := cl.Stats()
			snap := reg.Snapshot()
			s := cl.Stats()
			var sum NodeStats
			for i, n := range cl.Nodes() {
				ns := n.Stats()
				sum.add(ns)
				if wire := getStats(t, cl.URL(i)).NodeStats; wire != ns {
					t.Errorf("node %d: %s says %+v, Stats() %+v", i, statsPath, wire, ns)
				}
				node := fmt.Sprintf("node=%d", i)
				inReg := map[string]int64{}
				for k, v := range snap.Counters {
					fam, labels := metrics.Family(k)
					if slices.Contains(strings.Split(labels, ","), node) {
						inReg[fam] += v
					}
				}
				for fam, want := range statFamilies(ns) {
					if withRegistry && inReg[fam] != want {
						t.Errorf("node %d: registry %s = %d, Stats() has %d", i, fam, inReg[fam], want)
					}
				}
				if ns.Shed != 0 || ns.DeadlineExpired != 0 {
					t.Fatalf("node %d: not a fault-free run: %+v", i, ns)
				}
				if got := ns.LocalHits + ns.LocalMisses + ns.Forwarded + ns.Errors; got != ns.Requests {
					t.Errorf("node %d: hits %d + misses %d + forwarded %d + not-found %d = %d, requests %d",
						i, ns.LocalHits, ns.LocalMisses, ns.Forwarded, ns.Errors, got, ns.Requests)
				}
				if ns.Goodput != ns.Requests-ns.Errors {
					t.Errorf("node %d: goodput %d, answered requests %d", i, ns.Goodput, ns.Requests-ns.Errors)
				}
			}
			if s.Nodes != sum {
				t.Errorf("Cluster.Stats() = %+v, sum of nodes %+v", s.Nodes, sum)
			}
			if answered == 0 || sum.Requests != answered+notFound || sum.Errors != notFound {
				t.Errorf("cluster counted %+v; clients saw %d answers and %d not-founds", sum, answered, notFound)
			}
			if sum.Forwarded == 0 || sum.Forwarded != sum.RemoteHits+sum.Replicas {
				t.Errorf("forwarded %d, peers served %d from cache + %d from disk",
					sum.Forwarded, sum.RemoteHits, sum.Replicas)
			}
			msgsBefore, _ := before.Msgs.Total()
			msgs, _ := s.Msgs.Total()
			if msgsBefore == 0 {
				t.Error("no messages accounted")
			}
			if !withRegistry {
				return
			}

			// The transport's and the fabric's families, summed over labels.
			total := map[string]int64{}
			for k, v := range snap.Counters {
				fam, _ := metrics.Family(k)
				total[fam] += v
			}
			for k, h := range snap.Histograms {
				fam, _ := metrics.Family(k)
				total[fam] += h.Count
			}
			if got := total["press_msgs_total"]; got < msgsBefore || got > msgs {
				t.Errorf("registry msgs %d outside Stats msgs %d..%d", got, msgsBefore, msgs)
			}
			if total["press_copied_bytes"] != s.CopiedBytes {
				t.Errorf("registry copied %d != Stats copied %d", total["press_copied_bytes"], s.CopiedBytes)
			}
			if snap.Counters[metrics.Key("press_msgs_total", "node=0", "type="+core.MsgFile.String())] == 0 {
				t.Error("no per-type file message counter on node 0")
			}
			for fam, why := range map[string]string{
				"via_sends_posted_total": "the fabric did not get the registry",
				"via_rmw_total":          "V3 moves control and file traffic to remote writes",
				"via_send_latency_ns":    "completion latencies fill in when metrics are on",
			} {
				if total[fam] == 0 {
					t.Errorf("%s is empty: %s", fam, why)
				}
			}
		})
	}
}

// TestClusterMetricsTCP: the TCP baseline reports through the same
// unified Metrics surface, with credit stalls pinned at zero.
func TestClusterMetricsTCP(t *testing.T) {
	tr := serverTestTrace(t, 12)
	reg := metrics.NewRegistry()
	cfg := testClusterConfig(tr, TransportTCP)
	cfg.Metrics = reg
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, tr, 3, 3)

	for _, n := range cl.Nodes() {
		tm := n.transport.Metrics()
		if tm.CreditStalls != 0 {
			t.Errorf("node %d: TCP transport reports %d credit stalls", n.ID(), tm.CreditStalls)
		}
		if tm.PollWakes != 0 || tm.PollEmpty != 0 {
			t.Errorf("node %d: TCP transport reports %d poll wakes, %d empty", n.ID(), tm.PollWakes, tm.PollEmpty)
		}
		if c, _ := tm.Msgs.Total(); c == 0 && len(cl.Nodes()) > 1 {
			t.Errorf("node %d: no messages accounted", n.ID())
		}
	}
	if cl.Stats().CopiedBytes == 0 {
		t.Error("TCP transport must report kernel copies")
	}
}

// TestViaPollThreadIsEventDriven counts instead of timing: the V5 poll
// threads of a quiescent cluster make no pass at all, and under load
// they make at most one pass per remote write that landed — a wake is
// the NIC saying a write arrived, never a look just in case. The two
// poll counters follow the rule of every other family: the same counts
// with and without a registry, in the registry when there is one.
func TestViaPollThreadIsEventDriven(t *testing.T) {
	for _, withRegistry := range []bool{true, false} {
		t.Run(fmt.Sprintf("registry=%v", withRegistry), func(t *testing.T) {
			tr := serverTestTrace(t, 24)
			cfg := testClusterConfig(tr, TransportVIA)
			cfg.Nodes = 4
			cfg.Version = netmodel.Versions()[5]
			cfg.Health.HeartbeatInterval = time.Hour // heartbeats are traffic; this test wants none
			var reg *metrics.Registry
			if withRegistry {
				reg = metrics.NewRegistry()
				cfg.Metrics = reg
			}
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			// passes and remote writes so far, cluster-wide.
			counts := func() (wakes, empty, writes int64) {
				for _, pn := range cl.procs {
					tm := pn.node.transport.Metrics()
					wakes += tm.PollWakes
					empty += tm.PollEmpty
					writes += pn.nic.Stats().RDMAWrites
				}
				return
			}
			settle := func() {
				t.Helper()
				waitQuiet(t, "the cluster to go quiet", func() int64 {
					wakes, _, _ := counts()
					return wakes
				})
			}

			fetchAll(t, cl, tr, 2, 5)
			settle()
			idle, _, _ := counts()
			time.Sleep(200 * time.Millisecond)
			if now, _, _ := counts(); now != idle {
				t.Errorf("quiescent cluster made %d poll passes in 200ms, want none", now-idle)
			}

			wakes0, empty0, writes0 := counts()
			names := make([]string, len(tr.Files))
			for i, f := range tr.Files {
				names[i] = f.Name
			}
			drv := startDrive(cl, []int{0, 1, 2, 3}, names, 4)
			waitFor(t, 10*time.Second, "the drive to forward", func() bool {
				ok, _ := drv.counts()
				return ok >= 400
			})
			if _, errs := drv.stop(); errs != 0 {
				t.Fatalf("%d requests failed", errs)
			}
			settle()
			wakes1, empty1, writes1 := counts()
			wakes, empty, writes := wakes1-wakes0, empty1-empty0, writes1-writes0
			t.Logf("%d passes (%d empty) for %d remote writes", wakes, empty, writes)
			if wakes == 0 || wakes > writes {
				t.Errorf("%d poll passes for %d remote writes, want 0 < passes <= writes", wakes, writes)
			}
			if empty >= wakes {
				t.Errorf("%d of %d passes found nothing", empty, wakes)
			}
			if !withRegistry {
				return
			}
			var regWakes, regEmpty int64
			for k, v := range reg.Snapshot().Counters {
				switch fam, _ := metrics.Family(k); fam {
				case "press_poll_wakes_total":
					regWakes += v
				case "press_poll_empty_total":
					regEmpty += v
				}
			}
			if regWakes != wakes1 || regEmpty != empty1 {
				t.Errorf("registry has %d wakes, %d empty; Metrics() %d, %d", regWakes, regEmpty, wakes1, empty1)
			}
		})
	}
}
