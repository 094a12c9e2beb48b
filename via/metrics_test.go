package via

import (
	"bytes"
	"strings"
	"testing"

	"press/metrics"
)

// metricsPair builds two connected reliable VIs on a fabric carrying a
// live metrics registry.
func metricsPair(t *testing.T, r *metrics.Registry) (*NIC, *NIC, *VI, *VI) {
	t.Helper()
	f := NewFabric(WithMetrics(r))
	t.Cleanup(f.Close)
	na, err := f.CreateNIC("nodeA")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.CreateNIC("nodeB")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := nb.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := nb.CreateVI(ReliableDelivery, 16)
	if err != nil {
		t.Fatal(err)
	}
	va, err := na.CreateVI(ReliableDelivery, 16)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		acceptErr <- err
	}()
	if err := va.Connect("nodeB", "svc"); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
	return na, nb, va, vb
}

func TestNICMetricsRegistered(t *testing.T) {
	r := metrics.NewRegistry()
	na, nb, va, vb := metricsPair(t, r)
	msg := []byte("instrumented send")
	got := sendRecv(t, na, nb, va, vb, msg)
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload mismatch: %q", got)
	}

	s := r.Snapshot()
	if n := s.Counters[metrics.Key("via_sends_posted_total", "nic=nodeA")]; n != 1 {
		t.Errorf("sends posted counter = %d, want 1", n)
	}
	if n := s.Counters[metrics.Key("via_recvs_posted_total", "nic=nodeB")]; n != 1 {
		t.Errorf("recvs posted counter = %d, want 1", n)
	}
	if n := s.Counters[metrics.Key("via_sent_bytes", "nic=nodeA")]; n != int64(len(msg)) {
		t.Errorf("sent bytes counter = %d, want %d", n, len(msg))
	}
	h := s.Histograms[metrics.Key("via_send_latency_ns", "nic=nodeA")]
	if h.Count != 1 {
		t.Errorf("send latency histogram count = %d, want 1", h.Count)
	}
	// Registry and NIC.Stats must agree: the counters are shared.
	if st := na.Stats(); st.SendsPosted != 1 || st.BytesSent != int64(len(msg)) {
		t.Errorf("NIC.Stats diverges from registry: %+v", st)
	}
}

// TestNICMetricsDisabled: without a registry the NIC keeps its Stats
// counters but records no latency (the clock is never read).
func TestNICMetricsDisabled(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	sendRecv(t, na, nb, va, vb, []byte("x"))
	if na.m.sendLatency != nil {
		t.Error("disabled NIC must not carry a latency instrument")
	}
	if st := na.Stats(); st.SendsPosted != 1 || st.SendsComplete != 1 {
		t.Errorf("Stats must still count when metrics are disabled: %+v", st)
	}
}

// TestRegisteredBytes: registration adds a buffer's length, the first
// deregistration takes it back and a second changes nothing; with a
// registry the reading is via_registered_bytes{nic=<addr>}, and a NIC
// without one counts all the same.
func TestRegisteredBytes(t *testing.T) {
	reg := metrics.NewRegistry()
	nics := make([]*NIC, 2)
	for i, r := range []*metrics.Registry{reg, nil} {
		f := NewFabric(WithMetrics(r))
		defer f.Close()
		var err error
		if nics[i], err = f.CreateNIC("a"); err != nil {
			t.Fatal(err)
		}
	}
	withGauge, bare := nics[0], nics[1]
	g := reg.Gauge("via_registered_bytes", "nic=a")
	for _, n := range nics {
		small, err := n.RegisterMemory(make([]byte, 100))
		if err != nil {
			t.Fatal(err)
		}
		large, err := n.RegisterMemory(make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if got := n.RegisteredBytes(); got != 4196 {
			t.Fatalf("%d bytes registered, want 4196", got)
		}
		if err := n.DeregisterMemory(large); err != nil {
			t.Fatal(err)
		}
		if err := n.DeregisterMemory(large); err == nil {
			t.Fatal("a region deregistered twice")
		}
		if got := n.RegisteredBytes(); got != 100 {
			t.Fatalf("%d bytes registered after release, want 100", got)
		}
		_ = n.DeregisterMemory(small)
	}
	if g.Value() != 0 || withGauge.RegisteredBytes() != 0 || bare.RegisteredBytes() != 0 {
		t.Fatalf("gauge %d, NICs %d and %d after every release", g.Value(), withGauge.RegisteredBytes(), bare.RegisteredBytes())
	}
	r, _ := withGauge.RegisterMemory(make([]byte, 8))
	if g.Value() != 8 {
		t.Fatalf("gauge %d, want 8", g.Value())
	}
	_ = withGauge.DeregisterMemory(r)
}

func TestFabricMetricsReport(t *testing.T) {
	r := metrics.NewRegistry()
	na, nb, va, vb := metricsPair(t, r)
	sendRecv(t, na, nb, va, vb, bytes.Repeat([]byte("p"), 2048))
	_, _, _, _ = na, nb, va, vb

	var b strings.Builder
	if err := r.Report(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"via_sends_posted_total{nic=nodeA}", "via_sent_bytes", "2.0 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Latency values render as durations.
	if !strings.Contains(out, "via_send_latency_ns") {
		t.Errorf("report missing latency family:\n%s", out)
	}
}
