package telemetry

import (
	"sort"
	"strconv"
	"sync"

	"press/metrics"
)

// Point is one sample: plane-clock nanoseconds and a value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SeriesDump is one series copied out of its ring, oldest point first.
// Keys are the registry instrument key plus a kind suffix:
//
//	press_requests_total{node=0}:rate    counter, delta per second
//	press_queue_depth{node=0}            gauge, level
//	press_queue_delay_ns{node=0}:p99     histogram, window quantile
//	press_queue_delay_ns{node=0}:rate    histogram, observations per second
type SeriesDump struct {
	Key    string  `json:"key"`
	Points []Point `json:"points"`
}

// series is one ring of points. Rings are allocated once, at first
// sight of the key; steady-state sampling reuses the slots.
type series struct {
	buf []Point
	n   int64
}

func (s *series) push(t int64, v float64) {
	s.buf[s.n%int64(len(s.buf))] = Point{T: t, V: v}
	s.n++
}

// Sampler converts registry snapshots into time series. Each Sample
// takes one Snapshot, Diffs it against the previous one, and pushes
// rate/level/quantile points into per-key rings. Counter resets (a
// crashed-and-wiped node re-registering) are detected by a negative
// delta and treated as the instrument restarting from zero, so one
// reset costs at most one low sample rather than a huge negative spike.
type Sampler struct {
	reg       *metrics.Registry
	capacity  int
	quantiles []float64
	qsuffix   []string // precomputed ":p50"-style suffixes
	watch     string   // counter family summed into WatchRate

	// mu guards everything below: Sample runs on the polling
	// goroutine, but Dump may be called from a signal handler's
	// goroutine (SIGQUIT incident) while a sample is in flight.
	mu        sync.Mutex
	primed    bool
	prev      metrics.Snapshot
	prevT     int64
	series    map[string]*series
	watchRate float64
}

func newSampler(reg *metrics.Registry, capacity int, quantiles []float64, watch string) *Sampler {
	s := &Sampler{
		reg:       reg,
		capacity:  capacity,
		quantiles: quantiles,
		watch:     watch,
		series:    make(map[string]*series),
	}
	for _, q := range quantiles {
		s.qsuffix = append(s.qsuffix, ":p"+strconv.FormatFloat(q*100, 'g', -1, 64))
	}
	return s
}

func (s *Sampler) ring(key string) *series {
	r, ok := s.series[key]
	if !ok {
		r = &series{buf: make([]Point, s.capacity)}
		s.series[key] = r
	}
	return r
}

// Sample takes one registry snapshot at time now and appends points.
// The first call only primes the diff base (rates need two snapshots);
// gauges record from the first call since they are levels.
func (s *Sampler) Sample(now int64) {
	snap := s.reg.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.primed && now <= s.prevT {
		// A same-instant poll (e.g. the end-of-run flush landing on the
		// last periodic tick) has no new window; a second point at the
		// same timestamp would only corrupt the series.
		return
	}
	for k, v := range snap.Gauges {
		s.ring(k).push(now, float64(v))
	}
	for k, v := range snap.FloatGauges {
		s.ring(k).push(now, v)
	}
	if !s.primed {
		s.primed = true
		s.prev, s.prevT = snap, now
		return
	}
	dt := float64(now-s.prevT) / 1e9
	if dt <= 0 {
		s.prev, s.prevT = snap, now
		return
	}
	s.watchRate = 0
	for k, v := range snap.Counters {
		delta := v - s.prev.Counters[k]
		if delta < 0 {
			delta = v // counter reset: the new value is the whole delta
		}
		rate := float64(delta) / dt
		s.ring(k+":rate").push(now, rate)
		if fam, _ := metrics.Family(k); fam == s.watch {
			s.watchRate += rate
		}
	}
	for k, h := range snap.Histograms {
		base := s.prev.Histograms[k]
		if h.Count < base.Count {
			base = metrics.HistogramSnapshot{} // reset: diff against zero
		}
		d := h.Diff(base)
		s.ring(k+":rate").push(now, float64(d.Count)/dt)
		if d.Count <= 0 {
			continue // no new observations; quantiles undefined this window
		}
		for i, q := range s.quantiles {
			s.ring(k+s.qsuffix[i]).push(now, d.Quantile(q))
		}
	}
	s.prev, s.prevT = snap, now
}

// WatchRate returns the last window's summed rate of the watched
// counter family (the shed-spike trigger input).
func (s *Sampler) WatchRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watchRate
}

// Dump copies every series out, oldest point first, dropping points
// older than since, with keys sorted for stable output.
func (s *Sampler) Dump(since int64) []SeriesDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.series))
	for k := range s.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]SeriesDump, 0, len(keys))
	for _, k := range keys {
		r := s.series[k]
		size := int64(len(r.buf))
		start := r.n - size
		if start < 0 {
			start = 0
		}
		d := SeriesDump{Key: k}
		for i := start; i < r.n; i++ {
			pt := r.buf[i%size]
			if pt.T >= since {
				d.Points = append(d.Points, pt)
			}
		}
		if len(d.Points) > 0 {
			out = append(out, d)
		}
	}
	return out
}
