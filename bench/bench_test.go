package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestQuantileIsExact(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sample []int64
		q      float64
		want   int64
	}{
		{nil, 0.5, 0},
		{[]int64{7}, 0.5, 7},
		{[]int64{7}, 0.999, 7},
		{ten, 0.5, 5},
		{ten, 0.9, 9},
		{ten, 0.91, 10},
		{ten, 0.99, 10},
		{ten, 1, 10},
		{ten, 0, 1},
		{[]int64{1, 2, 3, 4}, 0.5, 2},
		{[]int64{1, 2, 3}, 0.5, 2},
	} {
		if got := quantile(c.sample, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %d, want %d", c.sample, c.q, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) is [7.5, 15.0, 22.5].
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestSequenceFollowsSeed(t *testing.T) {
	draw := func(seed int64, client int) [][2]int {
		s := newSequence(seed, client, 256, 4)
		out := make([][2]int, 1000)
		for i := range out {
			out[i][0], out[i][1] = s.next()
		}
		return out
	}
	a := draw(1, 0)
	if !reflect.DeepEqual(a, draw(1, 0)) {
		t.Error("same seed and client gave different sequences")
	}
	if reflect.DeepEqual(a, draw(2, 0)) {
		t.Error("seeds 1 and 2 gave the same sequence")
	}
	if reflect.DeepEqual(a, draw(1, 1)) {
		t.Error("clients 0 and 1 of one seed gave the same sequence")
	}
	for _, p := range a {
		if p[0] < 0 || p[0] >= 256 || p[1] < 0 || p[1] >= 4 {
			t.Fatalf("draw %v out of range", p)
		}
	}
}

// file builds a result file with one workload whose runs report the given
// throughputs and p50 latencies.
func file(rps, p50 []float64) *File {
	w := WorkloadResult{Name: "fwd-tcp"}
	for i := range rps {
		v := Values{}
		v.set("throughput_rps", rps[i])
		v.set("latency_p50_us", p50[i])
		layer := Values{}
		layer.set("driver.null_rps", 70000)
		w.Runs = append(w.Runs, RunResult{Seed: int64(i + 1), EndToEnd: v, PerLayer: layer})
	}
	return &File{Workloads: []WorkloadResult{w}}
}

func TestCompare(t *testing.T) {
	status := func(rows []Row) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r.Metric.Name] = r.Status
		}
		return m
	}
	base := file([]float64{1000, 1010, 990}, []float64{50, 51, 49})
	// shifted returns base's runs made worse by the given multiple of each
	// metric's bound (better, when negative).
	bound := map[string]float64{}
	for _, m := range EndToEnd {
		bound[m.Name] = m.Bound
	}
	shifted := func(by float64) *File {
		rps, p50 := 1-by*bound["throughput_rps"], 1+by*bound["latency_p50_us"]
		return file([]float64{1000 * rps, 1010 * rps, 990 * rps}, []float64{50 * p50, 51 * p50, 49 * p50})
	}

	// Within the bounds both ways: higher-is-better down, lower-is-better up.
	got := status(Compare(base, shifted(0.5)))
	if got["throughput_rps"] != StatusOK || got["latency_p50_us"] != StatusOK {
		t.Errorf("half a bound worse: %v, want ok", got)
	}
	rows := Compare(base, shifted(1.5))
	got = status(rows)
	if got["throughput_rps"] != StatusRegressed || got["latency_p50_us"] != StatusRegressed {
		t.Errorf("one and a half bounds worse: %v, want regressed", got)
	}
	if !Regressed(rows) {
		t.Error("Regressed = false with regressed rows")
	}
	// Better is never a regression.
	got = status(Compare(base, shifted(-2)))
	if got["throughput_rps"] != StatusOK || got["latency_p50_us"] != StatusOK {
		t.Errorf("two bounds better: %v, want ok", got)
	}
	// A spread wider than the bound resolves nothing, whatever the medians.
	got = status(Compare(base, file([]float64{600, 1000, 1400}, []float64{50, 50, 50})))
	if got["throughput_rps"] != StatusUnresolved || got["latency_p50_us"] != StatusOK {
		t.Errorf("wide spread: %v, want throughput unresolved, latency ok", got)
	}
	// One run a side has no spread and is judged on the values alone.
	got = status(Compare(file([]float64{1000}, []float64{50}), file([]float64{500}, []float64{50})))
	if got["throughput_rps"] != StatusRegressed || got["latency_p50_us"] != StatusOK {
		t.Errorf("single runs: %v, want throughput regressed, latency ok", got)
	}

	var out strings.Builder
	WriteComparison(&out, base, base)
	for _, want := range []string{"throughput_rps", "1.0000 (1000)", "driver.null_rps", "not gated"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func TestNamesAndManifest(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the form %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			check(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not of the form %v", m.Name, m.Unit, unit)
			}
			if m.Better != higher && m.Better != lower {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if float64(mf.RunSeconds) != DefaultSeconds {
		t.Errorf("run_seconds = %d, DefaultSeconds = %v", mf.RunSeconds, DefaultSeconds)
	}
	if len(mf.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(mf.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if mf.Workloads[i].Name != w.Name || mf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, mf.Workloads[i], w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(mf.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n code           %+v", mf.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(mf.PerLayer, PerLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n code           %+v", mf.PerLayer, PerLayer)
	}
}

// TestSmoke drives every workload for 0.3 s, one set-up each, and checks
// what must hold at any run length: every response verified, the
// preconditions on counts, every end-to-end metric reported and nonzero.
func TestSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := runUntraced(w, Options{Seed: 1, Seconds: 0.3}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d first=%v", r.Correct, r.Attempted, r.Failed, r.FirstErr)
			}
			for _, v := range r.Violations {
				t.Error(v)
			}
			if miss := r.Metrics.missing(EndToEnd); len(miss) > 0 {
				t.Errorf("missing %v", miss)
			}
			for name, x := range r.Metrics {
				if x.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, x.Value)
				}
			}
		})
	}
}

// TestTracedReportsEveryLayer runs the traced run once, short, and checks
// that it reports exactly the per-layer table and writes the span file.
func TestTracedReportsEveryLayer(t *testing.T) {
	w, err := ByName("fwd-via-v0")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := RunTraced(w, Options{Seed: 1, Seconds: 1.2, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v failed=%d first=%v", r.Correct, r.Failed, r.FirstErr)
	}
	for _, v := range r.Violations {
		t.Error(v)
	}
	if miss := r.Metrics.missing(PerLayer); len(miss) > 0 {
		t.Errorf("missing %v", miss)
	}
	if len(r.Metrics) != len(PerLayer) {
		t.Errorf("%d metrics reported, the table has %d", len(r.Metrics), len(PerLayer))
	}
	for _, name := range []string{"server.phase.net_us", "server.comm_share", "via.sends_per_req", "tracing.spans_per_req"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on a forwarding VIA workload", name, r.Metrics[name].Value)
		}
	}
	if st, err := os.Stat(dir + "/fwd-via-v0.trace.json"); err != nil || st.Size() == 0 {
		t.Errorf("span file: %v", err)
	}
}
