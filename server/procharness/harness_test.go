package procharness

import (
	"strings"
	"testing"
)

// TestParseStatsKeepsEpochsExact: an epoch is a UnixNano, past a
// float64's 53-bit mantissa, so two lives 1 ns apart would read back
// equal from a sample value. The harness reads them from the epoch
// label and must tell them apart; it also reads node 0's samples only,
// as an in-process cluster's endpoint serves every node's.
func TestParseStatsKeepsEpochsExact(t *testing.T) {
	const self, peer = uint64(1_729_000_000_123_456_789), uint64(1_729_000_000_123_456_790)
	if float64(self) != float64(peer) {
		t.Fatal("the fixture's epochs are distinct as float64; it proves nothing")
	}
	scrape := `# TYPE press_errors_total counter
press_errors_total{node="0"} 2
press_errors_total{node="1"} 9
# TYPE press_requests_total counter
press_requests_total{node="0"} 41
press_requests_total{node="1"} 99
# TYPE press_stale_epoch_drops_total counter
press_stale_epoch_drops_total{node="0"} 3
# TYPE press_degraded gauge
press_degraded{node="0"} 0
press_degraded{node="1"} 1
# TYPE press_epoch gauge
press_epoch{epoch="1729000000123456789",node="0"} 1
# TYPE press_node_state gauge
press_node_state{node="0",peer="0"} 0
press_node_state{node="0",peer="1"} 2
press_node_state{node="1",peer="0"} 1
# TYPE press_peer_epoch gauge
press_peer_epoch{epoch="0",node="0",peer="0"} 1
press_peer_epoch{epoch="1729000000123456790",node="0",peer="1"} 1
`
	ns, err := parseStats(strings.NewReader(scrape), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Epoch != self || ns.PeerEpochs[1] != peer || ns.Epoch == ns.PeerEpochs[1] {
		t.Errorf("epochs read back as %d and %d, want %d and %d", ns.Epoch, ns.PeerEpochs[1], self, peer)
	}
	if ns.Node != 0 || ns.Requests != 41 || ns.Errors != 2 || ns.Degraded || ns.StaleEpochDrops != 3 {
		t.Errorf("node 0's account read as %+v", ns)
	}
	if ns.Peers[0] != "alive" || ns.Peers[1] != "dead" {
		t.Errorf("peers = %v, want [alive dead]", ns.Peers)
	}
	if _, err := parseStats(strings.NewReader(scrape), 2, 3); err == nil {
		t.Error("a scrape without node 2's account parsed as node 2's")
	}
}
