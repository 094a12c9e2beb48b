package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"press/tracing"
	"press/zipfdist"
)

// The driver is the benchmark's own load generator: a closed loop of
// Clients clients speaking HTTP/1.1 over raw loopback connections. It
// allocates nothing per request, so allocs_per_req and cpu_us_per_req
// read the server, not the harness; the null-server calibration measures
// what is left.

// requestTimeout bounds one request; a request that hits it is failed.
const requestTimeout = 10 * time.Second

// item is one file as the driver sees it: the request to send and the
// body that must come back, byte for byte.
type item struct {
	name string
	req  []byte
	want []byte
}

func newItem(name string, want []byte) item {
	return item{name: name, req: []byte("GET " + name + " HTTP/1.1\r\nHost: press\r\n\r\n"), want: want}
}

// sequence is one client's request stream: a file by Zipf popularity
// rank and a target node uniformly at random, both from the seed.
type sequence struct {
	rng   *rand.Rand
	zipf  *zipfdist.Dist
	nodes int
}

func newSequence(seed int64, client, files, nodes int) *sequence {
	return &sequence{
		rng:   rand.New(rand.NewSource(seed*Clients + int64(client))),
		zipf:  zipfdist.MustNew(files, ZipfAlpha),
		nodes: nodes,
	}
}

func (s *sequence) next() (file, node int) {
	file = s.zipf.Rank(s.rng.Float64()) - 1
	node = s.rng.Intn(s.nodes)
	return file, node
}

// conn is one keep-alive connection to one node.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

// client is one closed-loop client.
type client struct {
	addrs []string
	conns []*conn
	seq   *sequence
	body  []byte             // response buffer, as large as the largest file
	lat   []int64            // ns per verified response of the current phase
	col   *tracing.Collector // driver-side spans; nil when untraced
}

var (
	errMismatch = errors.New("body differs from server.SynthesizeContent")
	errHeader   = errors.New("malformed response header")
)

// fetch sends one request to one node and verifies the response. After
// any failure the connection is dropped: its stream position is unknown.
func (c *client) fetch(node int, it *item) error {
	cn := c.conns[node]
	if cn == nil {
		nc, err := net.DialTimeout("tcp", c.addrs[node], requestTimeout)
		if err != nil {
			return err
		}
		cn = &conn{c: nc, br: bufio.NewReaderSize(nc, 16<<10)}
		c.conns[node] = cn
	}
	err := cn.roundTrip(it, c.body)
	if err != nil {
		cn.c.Close()
		c.conns[node] = nil
	}
	return err
}

func (cn *conn) roundTrip(it *item, body []byte) error {
	if err := cn.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return err
	}
	if _, err := cn.c.Write(it.req); err != nil {
		return err
	}
	n, err := readHeader(cn.br)
	if err != nil {
		return err
	}
	if n != len(it.want) {
		return fmt.Errorf("%w: %d bytes announced, want %d", errMismatch, n, len(it.want))
	}
	if _, err := io.ReadFull(cn.br, body[:n]); err != nil {
		return err
	}
	if !bytes.Equal(body[:n], it.want) {
		return errMismatch
	}
	return nil
}

var (
	statusOK      = []byte("HTTP/1.1 200 ")
	contentLength = []byte("content-length:")
)

// readHeader consumes a response header and returns the body length. Any
// status but 200, and any response without a Content-Length, is an error.
func readHeader(br *bufio.Reader) (int, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if !bytes.HasPrefix(line, statusOK) {
		return 0, fmt.Errorf("status %q", bytes.TrimSpace(line))
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 { // "\r\n": end of header
			break
		}
		if k := len(contentLength); len(line) > k && bytes.EqualFold(line[:k], contentLength) {
			length = 0
			for _, b := range bytes.TrimSpace(line[k:]) {
				if b < '0' || b > '9' {
					return 0, errHeader
				}
				length = length*10 + int(b-'0')
			}
		}
	}
	if length < 0 {
		return 0, errHeader
	}
	return length, nil
}

func (c *client) close() {
	for i, cn := range c.conns {
		if cn != nil {
			cn.c.Close()
			c.conns[i] = nil
		}
	}
}

// driver drives one set of servers with Clients clients.
type driver struct {
	items   []item
	clients []*client
}

// newDriver prepares the clients; connections are dialled on first use
// and kept. col, when non-nil, receives one span per request.
func newDriver(addrs []string, items []item, seed int64, col *tracing.Collector) *driver {
	largest := 0
	for i := range items {
		if n := len(items[i].want); n > largest {
			largest = n
		}
	}
	d := &driver{items: items}
	for k := 0; k < Clients; k++ {
		d.clients = append(d.clients, &client{
			addrs: addrs,
			conns: make([]*conn, len(addrs)),
			seq:   newSequence(seed, k, len(items), len(addrs)),
			body:  make([]byte, largest),
			col:   col,
		})
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.close()
	}
}

// fetchAll fetches every file once, least popular first so the popular
// head is what the caches hold at the end, file i through node i mod N.
func (d *driver) fetchAll() error {
	errs := make([]error, len(d.clients))
	var wg sync.WaitGroup
	for k, c := range d.clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := len(d.items) - 1 - k; i >= 0; i -= len(d.clients) {
				if err := c.fetch(i%len(c.addrs), &d.items[i]); err != nil {
					errs[k] = fmt.Errorf("set-up fetch of file %d: %w", i, err)
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// windows is how many equal slices a phase is cut into for
// rps_first_window and rps_last_window.
const windows = 5

// tally is what the clients counted over one phase.
type tally struct {
	elapsed   time.Duration
	attempted int64
	ok        int64
	mismatch  int64   // failures that were a wrong body, not a missing one
	bytes     int64   // body bytes of verified responses
	lat       []int64 // ns per verified response; ascending after sortLatencies
	window    [windows]int64
	firstErr  error
}

func (t *tally) failed() int64 { return t.attempted - t.ok }

func (t *tally) rps() float64 { return float64(t.ok) / t.elapsed.Seconds() }

func (t *tally) sortLatencies() {
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
}

// reserve allocates the latency samples of a phase of length dur, so that
// the phase itself allocates nothing on the driver's side. Sized for
// 100k req/s per client; append grows it if a faster server needs more.
func (d *driver) reserve(dur time.Duration) {
	for _, c := range d.clients {
		c.lat = make([]int64, 0, int(dur.Seconds()*100e3)+1024)
	}
}

// run drives the closed loop for dur and returns what was counted. Every
// request started is completed before run returns, so counters read
// before and after cover exactly these requests.
func (d *driver) run(dur time.Duration) tally {
	parts := make([]tally, len(d.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for k, c := range d.clients {
		wg.Add(1)
		go func(t *tally, c *client) {
			defer wg.Done()
			c.loop(d.items, start, dur, t)
		}(&parts[k], c)
	}
	wg.Wait()
	total := tally{elapsed: time.Since(start)}
	for i := range parts {
		p := &parts[i]
		total.attempted += p.attempted
		total.ok += p.ok
		total.mismatch += p.mismatch
		total.bytes += p.bytes
		for w := range p.window {
			total.window[w] += p.window[w]
		}
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	// The first client's buffer takes the others' samples; reserve left
	// room only for its own, so this may allocate, after the phase.
	for _, c := range d.clients {
		total.lat = append(total.lat, c.lat...)
		c.lat = nil
	}
	return total
}

func (c *client) loop(items []item, start time.Time, dur time.Duration, t *tally) {
	for {
		file, node := c.seq.next()
		it := &items[file]
		sent := time.Now()
		if sent.Sub(start) >= dur {
			return
		}
		span := c.col.StartTrace("driver-request")
		err := c.fetch(node, it)
		done := time.Now()
		span.End()
		t.attempted++
		if err != nil {
			if errors.Is(err, errMismatch) {
				t.mismatch++
			}
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("GET %s from node %d: %w", it.name, node, err)
			}
			continue
		}
		t.ok++
		t.bytes += int64(len(it.want))
		c.lat = append(c.lat, int64(done.Sub(sent)))
		w := int(done.Sub(start) * windows / dur)
		if w >= windows {
			w = windows - 1
		}
		t.window[w]++
	}
}

// quantile returns the exact q-quantile of an ascending sample by the
// nearest-rank rule: the smallest value with at least q of the sample at
// or below it. It returns 0 for an empty sample.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a product such as 0.9*10 = 9.000000000000002 from
	// rounding up a rank.
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (mean of the two middles when even);
// xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }
