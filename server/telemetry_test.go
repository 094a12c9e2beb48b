package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"press/metrics"
	"press/telemetry"
)

// TestMetricsEndpoint scrapes /_press/metrics on a live cluster and
// checks it parses as Prometheus exposition text carrying the per-node
// request families.
func TestMetricsEndpoint(t *testing.T) {
	tr := serverTestTrace(t, 6)
	cfg := testClusterConfig(tr, TransportVIA)
	cfg.Metrics = metrics.NewRegistry()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, tr, 1, 3)

	resp, err := http.Get(cl.URL(1) + metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("content type = %q, want %q", ct, telemetry.PromContentType)
	}
	samples, err := telemetry.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	var reqs float64
	nodes := map[string]bool{}
	for _, s := range samples {
		if s.Name == "press_requests_total" {
			reqs += s.Value
			nodes[s.Label("node")] = true
		}
	}
	if reqs == 0 {
		t.Error("no press_requests_total samples in scrape")
	}
	// One in-process registry serves all nodes' series, node label apart.
	if len(nodes) != cfg.Nodes {
		t.Errorf("scrape covers %d nodes, want %d", len(nodes), cfg.Nodes)
	}
}

// TestClusterTelemetryEvents kills a peer under a telemetry plane and
// checks the flight recorder saw the transitions the health layer
// reported: suspect and dead for the victim, and a failover or purge
// trail consistent with routing around it.
func TestClusterTelemetryEvents(t *testing.T) {
	tr := serverTestTrace(t, 12)
	cfg := testClusterConfig(tr, TransportVIA)
	cfg.Metrics = metrics.NewRegistry()
	cfg.Telemetry = telemetry.New(telemetry.Config{Registry: cfg.Metrics})
	cfg.Health = HealthConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
		DeadAfter:         120 * time.Millisecond,
		FailoverTimeout:   200 * time.Millisecond,
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, tr, 1, 7)

	victim := 2
	if err := cl.PartitionNode(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cl.Nodes()[0].PeerState(victim) == StateDead {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if cl.Nodes()[0].PeerState(victim) != StateDead {
		t.Fatal("victim never declared dead")
	}

	var sawDead bool
	for _, ev := range cfg.Telemetry.Events() {
		if ev.Type == telemetry.EvPeerDead && ev.Peer == victim {
			sawDead = true
			if ev.Detail == "" {
				t.Error("peer-dead event carries no reason")
			}
		}
	}
	if !sawDead {
		t.Errorf("no peer-dead event for node %d in flight recorder", victim)
	}

	// The same plane's sampler must see the registry: one manual poll
	// pair yields request-rate series.
	cfg.Telemetry.Poll(int64(1 * time.Second))
	fetchAll2 := func() {
		for _, f := range tr.Files[:4] {
			_, _ = Fetch(cl.URL(0), f.Name)
		}
	}
	fetchAll2()
	cfg.Telemetry.Poll(int64(2 * time.Second))
	var found bool
	for _, d := range cfg.Telemetry.Series() {
		if strings.HasPrefix(d.Key, "press_requests_total{") && strings.HasSuffix(d.Key, ":rate") {
			found = true
		}
	}
	if !found {
		t.Error("sampler produced no request-rate series from the cluster registry")
	}
}
