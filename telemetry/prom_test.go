package telemetry

import (
	"maps"
	"strconv"
	"strings"
	"testing"

	"press/metrics"
)

// TestWritePromGolden locks the exposition format byte-for-byte:
// families sorted by name, series within a family by label string, a
// single # TYPE header per family, histograms as summaries.
func TestWritePromGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	// Insertion order is deliberately scrambled relative to output
	// order; map iteration must not leak through.
	reg.Counter("press_requests_total", "node=1").Add(7)
	reg.Counter("press_shed_total", "node=0", "queue=accept").Add(3)
	reg.Counter("press_requests_total", "node=0").Add(42)
	reg.Gauge("press_queue_depth", "node=0").Set(5)
	reg.FloatGauge("press_disk_util", "node=0").Set(0.25)
	h := reg.Histogram("press_queue_delay_ns", "node=0")
	for i := 0; i < 4; i++ {
		h.Observe(8)
	}

	var b strings.Builder
	if err := WriteProm(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE press_requests_total counter
press_requests_total{node="0"} 42
press_requests_total{node="1"} 7
# TYPE press_shed_total counter
press_shed_total{node="0",queue="accept"} 3
# TYPE press_queue_depth gauge
press_queue_depth{node="0"} 5
# TYPE press_disk_util gauge
press_disk_util{node="0"} 0.25
# TYPE press_queue_delay_ns summary
press_queue_delay_ns{node="0",quantile="0.5"} 8
press_queue_delay_ns{node="0",quantile="0.9"} 8
press_queue_delay_ns{node="0",quantile="0.99"} 8
press_queue_delay_ns_sum{node="0"} 32
press_queue_delay_ns_count{node="0"} 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition output mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePromDeterministic renders the same registry repeatedly and
// demands identical bytes — the map-iteration-order leak detector.
func TestWritePromDeterministic(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 16; i++ {
		reg.Counter("c_total", "node="+string(rune('a'+i))).Inc()
		reg.Gauge("g", "node="+string(rune('a'+i))).Set(int64(i))
	}
	snap := reg.Snapshot()
	var first string
	for i := 0; i < 10; i++ {
		var b strings.Builder
		if err := WriteProm(&b, snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

func TestPromRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("reqs_total", "node=0", `path=/a"b\c`).Add(9)
	reg.Gauge("depth").Set(-3)
	reg.Histogram("lat_ns", "node=2").Observe(100)

	var b strings.Builder
	if err := WriteProm(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parsing our own output: %v", err)
	}
	byName := func(name string) []PromSample {
		var out []PromSample
		for _, s := range samples {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	reqs := byName("reqs_total")
	if len(reqs) != 1 || reqs[0].Value != 9 {
		t.Fatalf("reqs_total = %+v, want one sample of 9", reqs)
	}
	if got := reqs[0].Label("path"); got != `/a"b\c` {
		t.Errorf("escaped label round-trip = %q, want %q", got, `/a"b\c`)
	}
	if d := byName("depth"); len(d) != 1 || d[0].Value != -3 {
		t.Errorf("depth = %+v, want -3", d)
	}
	if c := byName("lat_ns_count"); len(c) != 1 || c[0].Value != 1 || c[0].Label("node") != "2" {
		t.Errorf("lat_ns_count = %+v, want count 1 on node 2", c)
	}
	qs := byName("lat_ns")
	if len(qs) != len(promQuantiles) {
		t.Fatalf("lat_ns quantile samples = %d, want %d", len(qs), len(promQuantiles))
	}
	for _, q := range qs {
		if q.Label("quantile") == "" {
			t.Errorf("quantile sample missing quantile label: %+v", q)
		}
		if q.Value != 100 {
			t.Errorf("single-observation quantile = %v, want 100", q.Value)
		}
	}
}

func TestParsePromErrors(t *testing.T) {
	for _, bad := range []string{
		`x{a="1" 5`,       // unterminated labels
		`x{a=1} 5`,        // unquoted value
		`x{a="1"} notnum`, // bad value
		`justaname`,       // no value
	} {
		if _, err := ParseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("ParseProm(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseProm: ParseProm never panics, whatever it reads, and every
// sample of a snapshot of counters and gauges survives WriteProm and
// ParseProm — names, labels (escapes included) and values, an int64
// past float64's 53-bit mantissa rounded the way float64(v) rounds it.
// The fuzzer's strings become a valid family name and a label value
// with any byte but ',', which separates pairs in a registry key.
func FuzzParseProm(f *testing.F) {
	f.Add("# TYPE x counter\nx{a=\"1\"} 5\n", "press_requests_total", `a"b\c`, int64(1729000000123456789), int64(-3))
	f.Add("x{a=\"\\", "", "\n}{=", int64(0), int64(1<<53+1))
	f.Add("x 1 2\ny{} NaN\n", "9lives", "", int64(-1<<63), int64(1<<63-1))
	f.Fuzz(func(t *testing.T, text, family, label string, counter, gauge int64) {
		_, _ = ParseProm(strings.NewReader(text))

		fam := []byte("m_")
		for _, c := range []byte(family) {
			if c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
				fam = append(fam, c)
			}
		}
		label = strings.ReplaceAll(label, ",", "")
		s := metrics.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}}
		s.Counters[metrics.Key(string(fam)+"_total", "node=0", "v="+label)] = counter
		s.Counters[metrics.Key(string(fam)+"_total")] = gauge
		s.Gauges[metrics.Key(string(fam), "v="+label)] = gauge
		s.Gauges[metrics.Key("press_epoch", "epoch="+strconv.FormatInt(counter, 10), "node=1")] = 1
		want := map[string]float64{}
		for _, m := range []map[string]int64{s.Counters, s.Gauges} {
			for k, v := range m {
				want[k] = float64(v)
			}
		}

		var b strings.Builder
		if err := WriteProm(&b, s); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseProm(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("parsing our own output: %v\n%s", err, b.String())
		}
		got := map[string]float64{}
		for _, p := range samples {
			labels := make([]string, 0, len(p.Labels))
			for k, v := range p.Labels {
				labels = append(labels, k+"="+v)
			}
			got[metrics.Key(p.Name, labels...)] = p.Value
		}
		if len(samples) != len(want) || !maps.Equal(got, want) {
			t.Fatalf("round trip of %v gave %v\n%s", want, got, b.String())
		}
	})
}
