package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// Env records where a result file was measured. Traffic crosses the
// host's loopback interface, never a real link; the cluster and the
// driver share one process.
type Env struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

// File is bench/out/result.json: every metric of every workload by name
// and unit, one entry per run of the suite.
type File struct {
	Env       Env              `json:"env"`
	Seconds   float64          `json:"seconds"`
	Workloads []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's runs.
type WorkloadResult struct {
	Name string      `json:"name"`
	Why  string      `json:"why"`
	Runs []RunResult `json:"runs"`
}

// RunResult is one suite pass over one workload: the end-to-end metrics
// of its untraced run and the per-layer metrics of its traced run.
type RunResult struct {
	Seed       int64    `json:"seed"`
	EndToEnd   Values   `json:"end_to_end,omitempty"`
	PerLayer   Values   `json:"per_layer,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	StatusOK         = "ok"
	StatusRegressed  = "regressed"
	StatusUnresolved = "unresolved"
)

// Row compares one metric of one workload between a base file and a new
// one. A and B are medians over the files' runs; Ratio is B/A, so its
// base is A; Spread is the wider of the two sides' interquartile ranges
// as a share of the side's median (0 with fewer than two runs a side).
type Row struct {
	Workload string
	Metric   Metric
	A, B     float64
	Ratio    float64
	Spread   float64
	Status   string
}

// samples collects one metric's value over a workload's runs.
func samples(w *WorkloadResult, name string, pick func(*RunResult) Values) []float64 {
	var xs []float64
	for i := range w.Runs {
		if x, ok := pick(&w.Runs[i])[name]; ok {
			xs = append(xs, x.Value)
		}
	}
	return xs
}

// spread is the interquartile range of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(append([]float64(nil), xs...)))
}

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(xs, n=4) uses, so that spreads computed
// here and by the PR driver agree.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th quartile cut
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// worse is by how much b is worse than a, as a share of a.
func worse(m Metric, a, b float64) float64 {
	if m.Better == higher {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

func byWorkload(f *File) map[string]*WorkloadResult {
	m := make(map[string]*WorkloadResult, len(f.Workloads))
	for i := range f.Workloads {
		m[f.Workloads[i].Name] = &f.Workloads[i]
	}
	return m
}

// Compare judges every (workload, end-to-end metric) pair present in both
// files: unresolved when the run-to-run spread is wider than the metric's
// bound, regressed when b is worse than a by more than the bound, ok
// otherwise.
func Compare(a, b *File) []Row {
	endToEnd := func(r *RunResult) Values { return r.EndToEnd }
	inB := byWorkload(b)
	var rows []Row
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		for _, m := range EndToEnd {
			xa, xb := samples(wa, m.Name, endToEnd), samples(wb, m.Name, endToEnd)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := Row{Workload: wa.Name, Metric: m, Spread: max(spread(xa), spread(xb))}
			r.A, r.B = median(xa), median(xb)
			r.Ratio = ratio(r.B, r.A)
			switch {
			case r.Spread > m.Bound:
				r.Status = StatusUnresolved
			case worse(m, r.A, r.B) > m.Bound:
				r.Status = StatusRegressed
			default:
				r.Status = StatusOK
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// Regressed reports whether any row regressed.
func Regressed(rows []Row) bool {
	for _, r := range rows {
		if r.Status == StatusRegressed {
			return true
		}
	}
	return false
}

// WriteComparison prints the gated rows, then the per-layer metrics
// beside them, which are never gated.
func WriteComparison(out io.Writer, a, b *File) []Row {
	rows := Compare(a, b)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tb/a (base a)\tbound\tspread\tstatus")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f (%.6g)\t%.2f\t%.4f\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit, r.A, r.B, r.Ratio, r.A, r.Metric.Bound, r.Spread, r.Status)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "workload\tper-layer metric (not gated)\tunit\ta\tb\tb/a (base a)")
	perLayer := func(r *RunResult) Values { return r.PerLayer }
	inB := byWorkload(b)
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb, ok := inB[wa.Name]
		if !ok {
			continue
		}
		for _, m := range PerLayer {
			xa, xb := samples(wa, m.Name, perLayer), samples(wb, m.Name, perLayer)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f (%.6g)\n", wa.Name, m.Name, m.Unit, ma, mb, ratio(mb, ma), ma)
		}
	}
	tw.Flush()
	return rows
}
