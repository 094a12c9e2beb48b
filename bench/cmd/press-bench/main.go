// Command press-bench runs the PRESS performance ledger.
//
// With no -trace flag it runs the suite: each workload in a fresh child
// process, untraced for the end-to-end metrics and then traced for the
// per-layer metrics, and writes every metric by name and unit to
// bench/out/result.json.
//
// With -workload W -trace 0|1 it is that child: it runs the one workload
// in this process and prints, as its last line, the result object the PR
// driver reads (BENCHMARK.json).
//
// With -compare a.json b.json it judges b against a.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"press/bench"
)

// result is the last line a single run prints.
type result struct {
	Correct   bool         `json:"correct"`
	Attempted int64        `json:"attempted"`
	Failed    int64        `json:"failed"`
	Metrics   bench.Values `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload")
		seed      = flag.Int64("seed", 1, "seed of the request sequence and target choice")
		seconds   = flag.Float64("seconds", bench.DefaultSeconds, "measured phase of the untraced run")
		trace     = flag.Int("trace", -1, "0 or 1: run -workload once in this process, untraced or traced, and print the result line")
		traceOnly = flag.Bool("trace-only", false, "suite: skip the untraced runs")
		runs      = flag.Int("runs", 1, "suite: passes over the workloads, at seeds seed, seed+1, ...")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and the trace files")
		compare   = flag.Bool("compare", false, "compare two result files: press-bench -compare a.json b.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *trace >= 0:
		err = runOne(*workload, *trace == 1, bench.Options{Seed: *seed, Seconds: *seconds, OutDir: *outDir})
	default:
		err = runSuite(*workload, *seed, *seconds, *runs, *traceOnly, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "press-bench:", err)
		os.Exit(1)
	}
}

// errViolations marks a run or suite whose preconditions did not hold.
var errViolations = errors.New("preconditions violated")

// runOne is the PR driver's contract: one workload, one process, the
// result object as the last line of standard output. A run whose
// workload did not have the shape it exists for prints no result.
func runOne(name string, traced bool, o bench.Options) error {
	w, err := bench.ByName(name)
	if err != nil {
		return err
	}
	run, want := bench.RunUntraced, bench.EndToEnd
	if traced {
		run, want = bench.RunTraced, bench.PerLayer
	}
	r, err := run(w, o)
	if err != nil {
		return err
	}
	for _, v := range r.Violations {
		fmt.Fprintln(os.Stderr, "press-bench: precondition:", v)
	}
	if len(r.Violations) > 0 {
		return errViolations
	}
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "press-bench: %d of %d requests failed, first: %v\n", r.Failed, r.Attempted, r.FirstErr)
	}
	for _, m := range want {
		fmt.Printf("%-40s %v %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
	}
	line, err := json.Marshal(result{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// child runs this binary as a single run and parses its last line.
func child(workload string, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %s): %w", workload, t, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var r result
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return nil, fmt.Errorf("%s (trace %s): result line: %w", workload, t, err)
	}
	return &r, nil
}

func runSuite(only string, seed int64, seconds float64, runs int, traceOnly bool, outDir string) error {
	file := bench.File{Env: environment(), Seconds: seconds}
	failed := false
	for _, w := range bench.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		wr := bench.WorkloadResult{Name: w.Name, Why: w.Why}
		for pass := 0; pass < runs; pass++ {
			rr := bench.RunResult{Seed: seed + int64(pass)}
			for _, traced := range []bool{false, true} {
				if traceOnly && !traced {
					continue
				}
				fmt.Fprintf(os.Stderr, "press-bench: %s seed %d traced=%v\n", w.Name, rr.Seed, traced)
				r, err := child(w.Name, rr.Seed, seconds, traced, outDir)
				if err != nil {
					rr.Violations = append(rr.Violations, err.Error())
					failed = true
					continue
				}
				if r.Failed > 0 {
					rr.Violations = append(rr.Violations, fmt.Sprintf("error_rate: %d of %d requests failed", r.Failed, r.Attempted))
					failed = true
				}
				if traced {
					rr.PerLayer = r.Metrics
				} else {
					rr.EndToEnd = r.Metrics
				}
			}
			wr.Runs = append(wr.Runs, rr)
		}
		file.Workloads = append(file.Workloads, wr)
	}
	if len(file.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printSummary(&file)
	fmt.Fprintln(os.Stderr, "press-bench: wrote", path)
	if failed {
		return errViolations
	}
	return nil
}

// printSummary prints every metric by name and unit, one line each.
func printSummary(f *bench.File) {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	for _, w := range f.Workloads {
		for _, r := range w.Runs {
			for _, part := range []struct {
				table  []bench.Metric
				values bench.Values
			}{{bench.EndToEnd, r.EndToEnd}, {bench.PerLayer, r.PerLayer}} {
				for _, m := range part.table {
					if x, ok := part.values[m.Name]; ok {
						fmt.Fprintf(out, "%-14s seed %-3d %-40s %14.6g %s\n", w.Name, r.Seed, m.Name, x.Value, x.Unit)
					}
				}
			}
		}
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("-compare takes two result files")
	}
	a, err := bench.ReadFile(args[0])
	if err != nil {
		return err
	}
	b, err := bench.ReadFile(args[1])
	if err != nil {
		return err
	}
	if bench.Regressed(bench.WriteComparison(os.Stdout, a, b)) {
		return errors.New("regressed")
	}
	return nil
}

// environment records what the numbers were measured on. GOMAXPROCS and
// GOGC stay at their defaults; they are recorded, not set.
func environment() bench.Env {
	env := bench.Env{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "default",
		Kernel:     "unknown",
		Clients:    bench.Clients,
	}
	if v, ok := os.LookupEnv("GOGC"); ok {
		env.GOGC = v
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.GitRev = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}
