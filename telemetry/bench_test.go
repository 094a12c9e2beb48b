package telemetry

import (
	"io"
	"testing"

	"press/metrics"
)

// benchRegistry builds a registry shaped like a real 8-node run: the
// per-node counter/gauge/histogram families the server registers, with
// data in the histograms.
func benchRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	for n := 0; n < 8; n++ {
		node := "node=" + string(rune('0'+n))
		reg.Counter("press_requests_total", node).Add(1000)
		reg.Counter("press_serve_local_total", node).Add(600)
		reg.Counter("press_serve_remote_total", node).Add(400)
		reg.Counter("press_shed_total", node, "queue=accept").Add(10)
		reg.Gauge("via_workq_depth", node).Set(3)
		h := reg.Histogram("press_queue_delay_ns", node)
		for i := int64(0); i < 128; i++ {
			h.Observe(i * 1000)
		}
	}
	return reg
}

// BenchmarkSamplerOff is the disabled-plane cost: the price every
// instrumented call site pays when telemetry is off. Gated at 0
// allocs/op by check.sh.
func BenchmarkSamplerOff(b *testing.B) {
	var p *Plane
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Event(EvFailover, 0, 1, "timeout", int64(i))
		p.Poll(int64(i))
	}
}

// BenchmarkEventOn is the enabled black-box record cost; also 0
// allocs/op (the ring is preallocated).
func BenchmarkEventOn(b *testing.B) {
	p := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Event(EvFailover, 0, 1, "timeout", int64(i))
	}
}

// BenchmarkSamplerTick is one full sampling pass over the realistic
// registry — the recurring cost of running telemetry, paid once per
// interval.
func BenchmarkSamplerTick(b *testing.B) {
	p := New(Config{Registry: benchRegistry(), Capacity: 256})
	p.Poll(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Poll(int64(i+1) * sec)
	}
}

// BenchmarkWriteProm is one exposition render — the per-scrape cost of
// /_press/metrics.
func BenchmarkWriteProm(b *testing.B) {
	snap := benchRegistry().Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteProm(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}
