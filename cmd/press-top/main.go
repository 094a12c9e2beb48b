// Command press-top is a live terminal dashboard for a running PRESS
// cluster: it scrapes /_press/metrics on every target each interval,
// computes windowed rates client-side from successive scrapes, and
// renders per-node sparklines — request and goodput rates, accept-queue
// delay, and intra-cluster (dissemination) traffic.
//
// Usage:
//
//	press-top -targets http://HOST:PORT[,http://HOST:PORT...]
//	          [-interval 1s] [-width 40] [-iterations 0] [-no-clear]
//
// Point -targets at the scrape URLs pressd prints (or any endpoint
// serving the press families in Prometheus text format); the
// accept-queue delay panel needs pressd -metrics, the rest does not.
// An in-process cluster run with -metrics shares one registry, so
// scraping any one node yields every node's series; press-top dedupes
// by the node label, so listing every address is still correct and
// survives individual node deaths.
//
// -iterations N stops after N refreshes and -no-clear appends frames
// instead of redrawing in place; together they make the dashboard
// scriptable (and testable) as a plain text filter.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"press/stats"
	"press/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("press-top: ")
	var (
		targets    = flag.String("targets", "", "comma-separated node base URLs (e.g. http://127.0.0.1:8080,http://127.0.0.1:8081)")
		interval   = flag.Duration("interval", time.Second, "scrape and refresh interval")
		width      = flag.Int("width", 40, "sparkline width in cells")
		iterations = flag.Int("iterations", 0, "stop after N refreshes (0 = run until interrupted)")
		noClear    = flag.Bool("no-clear", false, "append frames instead of redrawing in place")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-scrape HTTP timeout")
	)
	flag.Parse()
	if *targets == "" {
		log.Fatal("no targets: pass -targets with at least one node URL (pressd prints them)")
	}
	urls := strings.Split(*targets, ",")
	for i, u := range urls {
		urls[i] = strings.TrimSuffix(strings.TrimSpace(u), "/") + "/_press/metrics"
	}

	top := newTop(*width)
	client := &http.Client{Timeout: *timeout}
	for n := 0; *iterations <= 0 || n < *iterations; n++ {
		if n > 0 {
			//presslint:ignore naked-sleep the dashboard refresh cadence IS the -interval flag; nothing to model
			time.Sleep(*interval)
		}
		var samples []telemetry.PromSample
		var up, down int
		for _, u := range urls {
			s, err := scrape(client, u)
			if err != nil {
				down++
				continue
			}
			up++
			samples = append(samples, s...)
		}
		top.observe(time.Now(), samples)
		if !*noClear {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Printf("press-top  %s  targets %d up / %d down  interval %v\n\n",
			time.Now().Format("15:04:05"), up, down, *interval)
		if err := top.render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// scrape fetches one exposition endpoint and parses its samples.
func scrape(client *http.Client, url string) ([]telemetry.PromSample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return telemetry.ParseProm(resp.Body)
}

// nodePanels is one node's dashboard block: four sparklines fed by
// client-side rate computation.
type nodePanels struct {
	rps     *stats.Sparkline // press_requests_total rate
	goodput *stats.Sparkline // press_goodput_requests_total rate
	delay   *stats.Sparkline // windowed mean accept-queue delay
	net     *stats.Sparkline // press_msg_bytes rate, all types summed
}

// nodeCounters are the per-node cumulative values one scrape yields;
// successive scrapes difference them into rates.
type nodeCounters struct {
	requests   float64
	goodput    float64
	delaySum   float64 // press_queue_delay_ns_sum
	delayCount float64 // press_queue_delay_ns_count
	msgBytes   float64 // all message types summed
}

type top struct {
	width  int
	panels map[string]*nodePanels
	prev   map[string]nodeCounters
	prevT  time.Time
	primed bool
}

func newTop(width int) *top {
	return &top{
		width:  width,
		panels: make(map[string]*nodePanels),
		prev:   make(map[string]nodeCounters),
	}
}

// collect folds one scrape's samples into per-node cumulative counters.
// Counters are monotonic and an in-process cluster serves the identical
// registry from every node, so duplicate series across targets dedupe
// by keeping the maximum value seen for a node.
func collect(samples []telemetry.PromSample) map[string]nodeCounters {
	perNode := make(map[string]map[string]float64) // node -> family-ish key -> max
	add := func(node, key string, v float64) {
		m, ok := perNode[node]
		if !ok {
			m = make(map[string]float64)
			perNode[node] = m
		}
		if v > m[key] {
			m[key] = v
		}
	}
	bytesByType := make(map[string]map[string]float64) // node -> type -> max
	for _, s := range samples {
		node := s.Label("node")
		if node == "" {
			continue
		}
		switch s.Name {
		case "press_requests_total":
			add(node, "requests", s.Value)
		case "press_goodput_requests_total":
			add(node, "goodput", s.Value)
		case "press_queue_delay_ns_sum":
			add(node, "delaySum", s.Value)
		case "press_queue_delay_ns_count":
			add(node, "delayCount", s.Value)
		case "press_msg_bytes":
			m, ok := bytesByType[node]
			if !ok {
				m = make(map[string]float64)
				bytesByType[node] = m
			}
			if t := s.Label("type"); s.Value > m[t] {
				m[t] = s.Value
			}
		}
	}
	out := make(map[string]nodeCounters, len(perNode))
	for node, m := range perNode {
		c := nodeCounters{
			requests:   m["requests"],
			goodput:    m["goodput"],
			delaySum:   m["delaySum"],
			delayCount: m["delayCount"],
		}
		for _, v := range bytesByType[node] {
			c.msgBytes += v
		}
		out[node] = c
	}
	for node, m := range bytesByType {
		if _, ok := out[node]; !ok {
			var c nodeCounters
			for _, v := range m {
				c.msgBytes += v
			}
			out[node] = c
		}
	}
	return out
}

// observe differences this scrape against the previous one and pushes
// one point per panel. The first scrape only primes the baseline.
func (t *top) observe(now time.Time, samples []telemetry.PromSample) {
	cur := collect(samples)
	defer func() { t.prev, t.prevT, t.primed = cur, now, true }()
	if !t.primed {
		return
	}
	dt := now.Sub(t.prevT).Seconds()
	if dt <= 0 {
		return
	}
	for node, c := range cur {
		p, ok := t.panels[node]
		if !ok {
			p = &nodePanels{
				rps:     stats.NewSparkline("  req/s  ", t.width, "req/s"),
				goodput: stats.NewSparkline("  good/s ", t.width, "req/s"),
				delay:   stats.NewSparkline("  delay  ", t.width, "ms"),
				net:     stats.NewSparkline("  net    ", t.width, "KB/s"),
			}
			t.panels[node] = p
		}
		base := t.prev[node] // zero value for a freshly appeared node
		p.rps.Add(rate(c.requests, base.requests, dt))
		p.goodput.Add(rate(c.goodput, base.goodput, dt))
		if dc := c.delayCount - base.delayCount; dc > 0 {
			p.delay.Add((c.delaySum - base.delaySum) / dc / 1e6) // ns -> ms
		} else {
			p.delay.Add(0) // idle window: no accepts queued
		}
		p.net.Add(rate(c.msgBytes, base.msgBytes, dt) / 1024)
	}
}

// rate differences a monotonic counter over dt seconds, treating a
// negative delta (node restarted, counter wiped) as a restart from
// zero, mirroring the telemetry sampler's reset rule.
func rate(cur, prev, dt float64) float64 {
	delta := cur - prev
	if delta < 0 {
		delta = cur
	}
	return delta / dt
}

func (t *top) render(w io.Writer) error {
	if len(t.panels) == 0 {
		_, err := fmt.Fprintln(w, "waiting for samples (need two scrapes for rates; are the targets up?)")
		return err
	}
	nodes := make([]string, 0, len(t.panels))
	for n := range t.panels {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, errA := strconv.Atoi(nodes[i])
		b, errB := strconv.Atoi(nodes[j])
		if errA != nil || errB != nil {
			return nodes[i] < nodes[j]
		}
		return a < b
	})
	blocks := make([]stats.Renderer, 0, len(nodes))
	for _, n := range nodes {
		p := t.panels[n]
		blocks = append(blocks, stats.Titled("node "+n,
			multi{p.rps, p.goodput, p.delay, p.net}))
	}
	return stats.RenderAll(w, blocks...)
}

// multi stacks several renderers into one block, one per line.
type multi []stats.Renderer

func (m multi) Render() string {
	var b strings.Builder
	for _, r := range m {
		b.WriteString(r.Render())
		b.WriteString("\n")
	}
	return b.String()
}
