package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"

	"press/server"
	"press/trace"
)

func loadgenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Synthesize(trace.Spec{
		Name: "lg", NumFiles: 12, AvgFileKB: 4,
		NumRequests: 300, AvgReqKB: 3, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunAgainstRealCluster(t *testing.T) {
	tr := loadgenTrace(t)
	cl, err := server.Start(server.Config{
		Nodes: 2, Trace: tr, Transport: server.TransportVIA,
		CacheBytes: 1 << 20, DiskDelay: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	targets := make([]string, 2)
	for i, a := range cl.Addrs() {
		targets[i] = "http://" + a
	}
	sizes := map[string]int64{}
	for _, f := range tr.Files {
		sizes[f.Name] = f.Size
	}
	res, err := Run(context.Background(), Config{
		Targets:     targets,
		Trace:       tr,
		Concurrency: 4,
		Requests:    200,
		Seed:        3,
		Verify: func(name string, body []byte) error {
			want := server.SynthesizeContent(name, sizes[name])
			if !bytes.Equal(body, want) {
				return fmt.Errorf("content mismatch for %s", name)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 {
		t.Errorf("requests = %d", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Throughput <= 0 || res.LatencyMean <= 0 {
		t.Errorf("throughput %v latency %v", res.Throughput, res.LatencyMean)
	}
	if res.LatencyMax < res.LatencyMean {
		t.Errorf("latency max %v below mean %v", res.LatencyMax, res.LatencyMean)
	}
}

// TestAvailabilityKillNodeMidRun crashes one node of a VIA cluster
// while a load run is in flight. The cluster's failover machinery keeps
// it available: the run completes, the overwhelming majority of
// requests succeed, and whatever failed is accounted to an error class.
func TestAvailabilityKillNodeMidRun(t *testing.T) {
	tr, err := trace.Synthesize(trace.Spec{
		Name: "avail", NumFiles: 16, AvgFileKB: 4,
		NumRequests: 1200, AvgReqKB: 3, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 4
	const victim = 2
	cl, err := server.Start(server.Config{
		Nodes: nodes, Trace: tr, Transport: server.TransportVIA,
		CacheBytes: 1 << 20, DiskDelay: 50 * time.Microsecond,
		Health: server.HealthConfig{
			HeartbeatInterval: 100 * time.Millisecond,
			SuspectAfter:      300 * time.Millisecond,
			DeadAfter:         600 * time.Millisecond,
			FailoverTimeout:   1500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	targets := make([]string, nodes)
	for i, a := range cl.Addrs() {
		targets[i] = "http://" + a
	}
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Run(context.Background(), Config{
			Targets:     targets,
			Trace:       tr,
			Concurrency: 4,
			Seed:        9,
			Timeout:     10 * time.Second,
		})
		resCh <- res
		errCh <- err
	}()

	time.Sleep(150 * time.Millisecond) // run against a healthy cluster first
	if err := cl.CrashNode(victim); err != nil {
		t.Fatal(err)
	}

	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(tr.Requests)) {
		t.Errorf("run stopped early: %d of %d requests", res.Requests, len(tr.Requests))
	}
	if classes := res.ErrTimeout + res.ErrRefused + res.ErrShed + res.ErrServer + res.ErrOther; classes != res.Errors {
		t.Errorf("error classes sum to %d, total errors %d", classes, res.Errors)
	}
	// Availability: a single crashed node must not take down the run.
	// The crash legitimately fails its in-flight requests, nothing more.
	if res.Errors > res.Requests/5 {
		t.Errorf("%d of %d requests failed; cluster did not stay available", res.Errors, res.Requests)
	}
	// The cluster is still serving after the run, on every live node.
	for i := 0; i < nodes; i++ {
		if i == victim {
			continue
		}
		if _, err := server.Fetch(cl.URL(i), tr.Files[0].Name); err != nil {
			t.Errorf("fetch via node %d after crash: %v", i, err)
		}
	}
}

// TestClosedLoopDuration: with Duration set, a closed loop replays its
// trace in a cycle until the time is up, so a 10-request trace drives
// more than 10 requests, and the run ends within the duration plus one
// request timeout.
func TestClosedLoopDuration(t *testing.T) {
	tr := loadgenTrace(t)
	tr.Requests = tr.Requests[:10]
	cl, err := server.Start(server.Config{
		Nodes: 1, Trace: tr, Transport: server.TransportVIA,
		CacheBytes: 1 << 20, DiskDelay: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const duration, timeout = 300 * time.Millisecond, 2 * time.Second
	start := time.Now()
	res, err := Run(context.Background(), Config{
		Targets:     []string{"http://" + cl.Addrs()[0]},
		Trace:       tr,
		Concurrency: 2,
		Duration:    duration,
		Timeout:     timeout,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > duration+timeout {
		t.Errorf("closed loop ran %v, want at most %v", took, duration+timeout)
	}
	if res.Requests <= int64(len(tr.Requests)) {
		t.Errorf("closed loop issued %d requests over a %d-request trace in %v, want the trace cycled",
			res.Requests, len(tr.Requests), duration)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		want   errClass
	}{
		{nil, 200, classOther},
		{context.DeadlineExceeded, 0, classTimeout},
		{fmt.Errorf("wrap: %w", syscall.ECONNREFUSED), 0, classRefused},
		{fmt.Errorf("wrap: %w", syscall.ECONNRESET), 0, classRefused},
		{fmt.Errorf("loadgen: GET x: 500 Internal Server Error"), 500, classServer},
		{fmt.Errorf("loadgen: GET x: 503 Service Unavailable"), 503, classShed},
		{fmt.Errorf("content mismatch"), 200, classOther},
		{fmt.Errorf("some transport error"), 0, classOther},
	}
	for i, c := range cases {
		if got := classify(c.err, c.status); got != c.want {
			t.Errorf("case %d: classify(%v, %d) = %v, want %v", i, c.err, c.status, got, c.want)
		}
	}
}

// TestOpenLoopPoisson drives a small cluster in open-loop mode and
// checks the arrival process delivered roughly Rate * Duration
// requests, independent of service time, with quantiles populated.
func TestOpenLoopPoisson(t *testing.T) {
	tr := loadgenTrace(t)
	cl, err := server.Start(server.Config{
		Nodes: 2, Trace: tr, Transport: server.TransportVIA,
		CacheBytes: 1 << 20, DiskDelay: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	targets := make([]string, 2)
	for i, a := range cl.Addrs() {
		targets[i] = "http://" + a
	}
	const rate = 400.0
	duration := 1500 * time.Millisecond
	res, err := Run(context.Background(), Config{
		Targets:  targets,
		Trace:    tr,
		Rate:     rate,
		Duration: duration,
		Seed:     41,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A Poisson process with lambda = rate*duration = 600 has stddev
	// ~24.5; a 5-sigma band is [477, 723]. Far looser than the bound a
	// closed-loop generator would show if service time gated arrivals.
	want := rate * duration.Seconds()
	if float64(res.Requests) < want*0.8 || float64(res.Requests) > want*1.2 {
		t.Errorf("open loop issued %d requests, want ~%.0f", res.Requests, want)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d (timeout %d refused %d shed %d server %d other %d)",
			res.Errors, res.ErrTimeout, res.ErrRefused, res.ErrShed, res.ErrServer, res.ErrOther)
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Errorf("quantiles p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
	// Seeded arrivals are reproducible: same seed, same request count.
	res2, err := Run(context.Background(), Config{
		Targets: targets, Trace: tr, Rate: rate, Duration: duration, Seed: 41,
		Requests: 100, // cap to keep the rerun quick
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Requests != 100 {
		t.Errorf("request cap in open loop: got %d, want 100", res2.Requests)
	}
}

// TestOpenLoopShedClass points the open-loop generator at an
// overload-controlled single node whose accept queue is tiny; the 503s
// it sheds must land in ErrShed, not ErrServer.
func TestOpenLoopShedClass(t *testing.T) {
	tr := loadgenTrace(t)
	cl, err := server.Start(server.Config{
		Nodes: 1, Trace: tr, Transport: server.TransportVIA,
		CacheBytes: 1 << 20, DiskDelay: 2 * time.Millisecond,
		Overload: server.OverloadConfig{
			AcceptQueue: 1,
			DiskQueue:   1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := Run(context.Background(), Config{
		Targets:  []string{"http://" + cl.Addrs()[0]},
		Trace:    tr,
		Rate:     2000, // far past what a 2ms-disk single node can serve
		Duration: 500 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrShed == 0 {
		t.Errorf("no sheds recorded under 2000 req/s against a 1-deep accept queue (errors: timeout %d refused %d shed %d server %d other %d)",
			res.ErrTimeout, res.ErrRefused, res.ErrShed, res.ErrServer, res.ErrOther)
	}
	if res.ErrServer != 0 {
		t.Errorf("%d sheds misclassified as server errors", res.ErrServer)
	}
	if sum := res.ErrTimeout + res.ErrRefused + res.ErrShed + res.ErrServer + res.ErrOther; sum != res.Errors {
		t.Errorf("error classes sum to %d, total errors %d", sum, res.Errors)
	}
}

func TestRunValidation(t *testing.T) {
	tr := loadgenTrace(t)
	if _, err := Run(context.Background(), Config{Trace: tr}); err == nil {
		t.Error("no targets accepted")
	}
	if _, err := Run(context.Background(), Config{Targets: []string{"http://x"}}); err == nil {
		t.Error("no trace accepted")
	}
}

func TestRunContextCancel(t *testing.T) {
	tr := loadgenTrace(t)
	// Point at a black-hole target; cancellation must end the run.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := Run(ctx, Config{
			Targets:     []string{"http://127.0.0.1:1"}, // refused
			Trace:       tr,
			Concurrency: 2,
			Requests:    50,
			Timeout:     100 * time.Millisecond,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if res.Errors == 0 {
			t.Error("expected connection errors")
		}
		if res.ErrRefused == 0 {
			t.Error("refused connections not classified")
		}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop on cancellation")
	}
}
