// Package loadgen drives a running PRESS cluster with a workload trace.
// The default mode follows the paper's methodology (Section 3.1):
// closed-loop clients issue requests as fast as possible — timing
// information in the trace is disregarded — against the cluster nodes
// in randomized fashion with equal probabilities. Setting Rate switches
// to an open-loop Poisson arrival process, which keeps offering load no
// matter how slowly the cluster answers — the only way to push a
// cluster past saturation and observe its overload behavior (a
// closed-loop generator self-throttles: every slow response delays the
// next request).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"press/metrics"
	"press/stats"
	"press/trace"
	"press/zipfdist"
)

// Config describes one load-generation run.
type Config struct {
	// Targets are the nodes' base URLs (e.g. "http://127.0.0.1:8001").
	Targets []string
	// Trace supplies the request stream.
	Trace *trace.Trace
	// Concurrency is the number of closed-loop clients (default 16).
	// Ignored in open-loop mode (Rate > 0).
	Concurrency int
	// Requests caps the run; 0 replays the whole trace once (closed loop
	// without Duration) or runs until Duration.
	Requests int
	// Rate, when positive, switches to open-loop mode: requests arrive
	// as a Poisson process at this many per second (seeded exponential
	// inter-arrival times), each on its own goroutine, regardless of how
	// many are still in flight.
	Rate float64
	// Duration bounds the run. An open loop offers arrivals for this
	// long (default 10 s); a closed loop with Duration set replays the
	// trace in a cycle until it has passed (0: one pass over the trace).
	Duration time.Duration
	// Hotspot, when positive, replaces the trace's request order with a
	// Zipf-hotspot stream: each request draws a popularity rank from a
	// Zipf(alpha=Hotspot) distribution over the trace's files and asks
	// for the file of that rank, concentrating traffic on the head far
	// beyond the trace's own skew. Alpha around 1.5–2 reproduces the
	// single-cacher hotspot the replication policy targets.
	Hotspot float64
	// Verify, if set, checks each response body.
	Verify func(name string, body []byte) error
	// Timeout bounds one request (default 30 s).
	Timeout time.Duration
	// Seed drives the random target choice and the arrival process.
	Seed int64
}

// Result summarizes a run.
type Result struct {
	Requests   int64
	Errors     int64
	Bytes      int64
	Elapsed    time.Duration
	Throughput float64 // successful requests per wall-clock second
	// Latency statistics in seconds (successful requests only).
	LatencyMean float64
	LatencyStd  float64
	LatencyMax  float64
	LatencyP50  float64
	LatencyP99  float64

	// Error classes, for availability analysis: a node that hangs shows
	// up as timeouts, a node whose listener is gone as refused
	// connections, a node shedding load under overload control as 503s,
	// and a node that answers but fails internally as server errors.
	// They sum to Errors (content-verification and other transport
	// failures land in ErrOther).
	ErrTimeout int64 // request or connection deadline exceeded
	ErrRefused int64 // TCP connection refused or reset
	ErrShed    int64 // HTTP 503: admission control or expired deadline
	ErrServer  int64 // other HTTP 5xx from a responding node
	ErrOther   int64

	// Per-node request accounting, in cfg.Targets order: requests
	// booked against each target and the successful subset. Imbalance
	// is the busiest target's share of successes over the mean share —
	// 1.0 is perfectly even; a dead or shedding node drags the others'
	// shares up and shows here long before aggregate error counts do.
	TargetRequests []int64
	TargetOK       []int64
	Imbalance      float64
}

// books is the shared run accounting both generator modes write into.
type books struct {
	requests, errs, bytes                                atomic.Int64
	errTimeout, errRefused, errShed, errServer, errOther atomic.Int64
	perTarget, okTarget                                  []atomic.Int64

	mu     sync.Mutex
	lat    stats.Welford
	latMax float64
	hist   *metrics.Histogram // nanoseconds, for P50/P99
}

// record books one finished request. Returns false when the request
// left the books (canceled mid-flight: says nothing about the cluster).
func (b *books) record(ctx context.Context, target int, err error, status int, body []byte, d time.Duration) bool {
	b.requests.Add(1)
	if err != nil && ctx.Err() != nil && errors.Is(err, context.Canceled) {
		b.requests.Add(-1)
		return false
	}
	b.perTarget[target].Add(1)
	if err != nil {
		b.errs.Add(1)
		switch classify(err, status) {
		case classTimeout:
			b.errTimeout.Add(1)
		case classRefused:
			b.errRefused.Add(1)
		case classShed:
			b.errShed.Add(1)
		case classServer:
			b.errServer.Add(1)
		default:
			b.errOther.Add(1)
		}
		return true
	}
	b.okTarget[target].Add(1)
	b.bytes.Add(int64(len(body)))
	b.hist.Observe(d.Nanoseconds())
	sec := d.Seconds()
	b.mu.Lock()
	b.lat.Add(sec)
	if sec > b.latMax {
		b.latMax = sec
	}
	b.mu.Unlock()
	return true
}

func (b *books) result(elapsed time.Duration) *Result {
	r := &Result{
		Requests:   b.requests.Load(),
		Errors:     b.errs.Load(),
		Bytes:      b.bytes.Load(),
		Elapsed:    elapsed,
		LatencyMax: b.latMax,
		ErrTimeout: b.errTimeout.Load(),
		ErrRefused: b.errRefused.Load(),
		ErrShed:    b.errShed.Load(),
		ErrServer:  b.errServer.Load(),
		ErrOther:   b.errOther.Load(),
	}
	if elapsed > 0 {
		r.Throughput = float64(r.Requests-r.Errors) / elapsed.Seconds()
	}
	r.LatencyMean = b.lat.Mean()
	r.LatencyStd = b.lat.Std()
	snap := b.hist.Snapshot()
	r.LatencyP50 = float64(snap.Quantile(0.5)) / 1e9
	r.LatencyP99 = float64(snap.Quantile(0.99)) / 1e9
	r.TargetRequests = make([]int64, len(b.perTarget))
	r.TargetOK = make([]int64, len(b.okTarget))
	var ok, maxOK int64
	for i := range b.perTarget {
		r.TargetRequests[i] = b.perTarget[i].Load()
		r.TargetOK[i] = b.okTarget[i].Load()
		ok += r.TargetOK[i]
		if r.TargetOK[i] > maxOK {
			maxOK = r.TargetOK[i]
		}
	}
	if ok > 0 {
		mean := float64(ok) / float64(len(b.okTarget))
		r.Imbalance = float64(maxOK) / mean
	}
	return r
}

// Run replays the trace and reports throughput. The context cancels the
// run early. Rate > 0 selects the open-loop Poisson mode.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if cfg.Trace == nil || len(cfg.Trace.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	concurrency := cfg.Concurrency
	if concurrency <= 0 {
		concurrency = 16
	}
	maxConns := concurrency
	if cfg.Rate > 0 {
		// Open loop: in-flight requests are unbounded by design; give the
		// client enough pooled connections that the generator itself is
		// not the bottleneck being measured.
		maxConns = 256
	}
	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: maxConns,
			MaxIdleConns:        maxConns * len(cfg.Targets),
		},
	}
	b := &books{
		hist:      metrics.NewHistogram(),
		perTarget: make([]atomic.Int64, len(cfg.Targets)),
		okTarget:  make([]atomic.Int64, len(cfg.Targets)),
	}
	pk, err := newPicker(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Rate > 0 {
		return runOpenLoop(ctx, cfg, client, b, pk)
	}
	return runClosedLoop(ctx, cfg, client, b, pk, concurrency)
}

// picker chooses the file for each request: the trace's own stream by
// default, a fresh Zipf(Hotspot) draw over popularity ranks when the
// hotspot preset is active.
type picker struct {
	trace *trace.Trace
	hot   *zipfdist.Dist
	order []int // popularity rank -> file index
}

func newPicker(cfg Config) (*picker, error) {
	p := &picker{trace: cfg.Trace}
	if cfg.Hotspot > 0 {
		d, err := zipfdist.New(len(cfg.Trace.Files), cfg.Hotspot)
		if err != nil {
			return nil, fmt.Errorf("loadgen: hotspot: %w", err)
		}
		p.hot = d
		p.order = cfg.Trace.PopularityOrder()
	}
	return p, nil
}

// file returns the trace file index of request i.
func (p *picker) file(i int64, rng *rand.Rand) int {
	if p.hot == nil {
		return int(p.trace.Requests[i])
	}
	return p.order[p.hot.Rank(rng.Float64())-1]
}

func runClosedLoop(ctx context.Context, cfg Config, client *http.Client, b *books, pk *picker, concurrency int) (*Result, error) {
	nTrace := int64(len(cfg.Trace.Requests))
	total := nTrace
	if cfg.Duration > 0 {
		total = math.MaxInt64 // cycle until the deadline
	}
	if cfg.Requests > 0 && int64(cfg.Requests) < total {
		total = int64(cfg.Requests)
	}
	var cursor atomic.Int64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			for {
				if ctx.Err() != nil || (cfg.Duration > 0 && time.Now().After(deadline)) {
					return
				}
				i := cursor.Add(1) - 1
				if i >= total {
					return
				}
				if !doOne(ctx, cfg, client, b, rng.Intn(len(cfg.Targets)), pk.file(i%nTrace, rng)) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return b.result(time.Since(start)), nil
}

// runOpenLoop offers requests at cfg.Rate per second with exponential
// inter-arrival times (a Poisson process), each dispatched on its own
// goroutine the moment it is due: a slow cluster does not slow the
// arrivals down, it just accumulates in-flight work — exactly the
// regime overload control exists for.
func runOpenLoop(ctx context.Context, cfg Config, client *http.Client, b *books, pk *picker) (*Result, error) {
	duration := cfg.Duration
	if duration <= 0 {
		duration = 10 * time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTrace := int64(len(cfg.Trace.Requests))
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}

	start := time.Now()
	deadline := start.Add(duration)
	next := start // absolute schedule: timer overshoot does not drift the rate
	var wg sync.WaitGroup
	var issued int64
	for {
		if ctx.Err() != nil {
			break
		}
		if cfg.Requests > 0 && issued >= int64(cfg.Requests) {
			break
		}
		// Exponential inter-arrival with mean 1/Rate.
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		fi := pk.file(issued%nTrace, rng)
		tgt := rng.Intn(len(cfg.Targets))
		issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			doOne(ctx, cfg, client, b, tgt, fi)
		}()
	}
	wg.Wait()
	return b.result(time.Since(start)), nil
}

// doOne issues one request for trace file fi against the given target
// and books the outcome; false means the run is being canceled.
func doOne(ctx context.Context, cfg Config, client *http.Client, b *books, target, fi int) bool {
	name := cfg.Trace.Files[fi].Name
	t0 := time.Now()
	body, status, err := get(ctx, client, cfg.Targets[target]+name)
	d := time.Since(t0)
	if err == nil && cfg.Verify != nil {
		err = cfg.Verify(name, body)
	}
	return b.record(ctx, target, err, status, body, d)
}

// errClass buckets one failed request for availability analysis.
type errClass int

const (
	classOther errClass = iota
	classTimeout
	classRefused
	classShed
	classServer
)

// classify maps a request failure to its class. status is the HTTP
// status when a response arrived, 0 otherwise. 503 is its own class:
// under overload control it means the cluster shed the request on
// purpose (admission or expired deadline), which availability analysis
// must not conflate with the cluster failing.
func classify(err error, status int) errClass {
	if err == nil {
		return classOther
	}
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return classTimeout
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return classRefused
	}
	if status == http.StatusServiceUnavailable {
		return classShed
	}
	if status >= 500 {
		return classServer
	}
	return classOther
}

// get fetches one URL. status is the HTTP status of any response that
// arrived (0 when the request never produced one); a non-2xx status is
// also reported as an error.
func get(ctx context.Context, client *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, fmt.Errorf("loadgen: GET %s: %s", url, resp.Status)
	}
	return body, resp.StatusCode, nil
}
