package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press/metrics"
	"press/trace"
	"press/tracing"
)

// The request path's budget (DESIGN.md "The request path's budget"): a
// request is recycled, so the tests here are about the new way to serve
// the wrong bytes — a request handed to the next client while the main
// loop still holds it — and about the numbers the budget pins.

// rawClient is one keep-alive HTTP/1.1 connection driven by hand, the
// shape of the ledger's driver: it allocates nothing per request, so a
// benchmark over it reads the server.
type rawClient struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialRaw(t testing.TB, addr string, largest int) *rawClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawClient{c: c, br: bufio.NewReaderSize(c, 16<<10), body: make([]byte, largest)}
}

func rawRequest(method, name string) []byte {
	return []byte(method + " " + name + " HTTP/1.1\r\nHost: press\r\n\r\n")
}

var rawContentLength = []byte("content-length:")

// do sends one prepared request and reads the response: the status, the
// announced Content-Length (-1 when absent) and, unless the request was
// a HEAD, that many body bytes, which stay valid until the next call.
func (rc *rawClient) do(req []byte) (status, clen int, body []byte, err error) {
	if err = rc.c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return
	}
	if _, err = rc.c.Write(req); err != nil {
		return
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, 0, nil, fmt.Errorf("status line %q", line)
	}
	for _, b := range line[9:12] {
		status = status*10 + int(b-'0')
	}
	clen = -1
	for {
		if line, err = rc.br.ReadSlice('\n'); err != nil {
			return
		}
		if len(line) <= 2 {
			break
		}
		if k := len(rawContentLength); len(line) > k && bytes.EqualFold(line[:k], rawContentLength) {
			clen = 0
			for _, b := range bytes.TrimSpace(line[k:]) {
				clen = clen*10 + int(b-'0')
			}
		}
	}
	if clen <= 0 || bytes.HasPrefix(req, []byte("HEAD ")) {
		return status, clen, nil, nil
	}
	if clen > len(rc.body) {
		rc.body = make([]byte, clen)
	}
	_, err = io.ReadFull(rc.br, rc.body[:clen])
	return status, clen, rc.body[:clen], err
}

// newRequest takes a request for name at n out of the pool, as ServeHTTP
// does.
func (n *Node) newRequest(name string) *clientRequest {
	r := clientRequests.Get().(*clientRequest)
	r.node, r.name = n, name
	return r
}

// sizedTrace is one file per size, named by its index.
func sizedTrace(sizes ...int64) *trace.Trace {
	tr := &trace.Trace{Name: "reqpath", Files: make([]trace.File, len(sizes))}
	for i, s := range sizes {
		tr.Files[i] = trace.File{Name: fmt.Sprintf("/reqpath/doc%03d.html", i), Size: s}
	}
	return tr
}

// recordRequests empties the request pool and, until the test ends,
// returns every request made from then on.
func recordRequests(t *testing.T) func() []*clientRequest {
	runtime.GC()
	runtime.GC() // a pooled object outlives one collection in the victim cache
	var mu sync.Mutex
	var made []*clientRequest
	orig := clientRequests.New
	clientRequests.New = func() any {
		r := orig().(*clientRequest)
		mu.Lock()
		made = append(made, r)
		mu.Unlock()
		return r
	}
	t.Cleanup(func() { clientRequests.New = orig })
	return func() []*clientRequest {
		mu.Lock()
		defer mu.Unlock()
		return append([]*clientRequest(nil), made...)
	}
}

// parked reports whether a timer is in the state its owner keeps it in
// between uses: not armed, nothing in C. Stop disarms what it finds
// armed, so a caller asks once.
func parked(tm *time.Timer) bool { return !tm.Stop() && len(tm.C) == 0 }

// waitHandlersReturned waits until every ServeHTTP that enqueued a
// request at n has returned: the load is the count of those still in.
func waitHandlersReturned(t *testing.T, n *Node) {
	t.Helper()
	waitFor(t, 5*time.Second, "the handlers to return", func() bool { return n.loadMirror.Load() == 0 })
}

// TestClientRequestRelease pins the release helper: a request whose
// timer fired stays out of the pool untouched, and one that goes back is
// indistinguishable from new.
func TestClientRequestRelease(t *testing.T) {
	n := &Node{}
	t.Run("fired timer is not recycled", func(t *testing.T) {
		r := n.newRequest("/x")
		r.timer.Reset(time.Nanosecond)
		time.Sleep(5 * time.Millisecond)
		r.release()
		if r.node != n || r.name != "/x" {
			t.Fatal("a request whose safety net fired was reset for reuse")
		}
	})
	t.Run("recycled request is clean", func(t *testing.T) {
		r := n.newRequest("/y")
		now := time.Now()
		r.span, r.accept, r.dsp = &tracing.Span{}, &tracing.Span{}, &tracing.Span{}
		r.id, r.enqueued, r.deadline = 7, now, now.Add(time.Second)
		r.timer.Reset(clientTimeout)
		r.resp <- clientResult{}
		<-r.resp
		r.release()
		if r.span != nil || r.accept != nil || r.dsp != nil {
			t.Error("spans survive recycling")
		}
		if !r.enqueued.IsZero() || !r.deadline.IsZero() || r.name != "" || r.node != nil || r.id != 0 {
			t.Errorf("request state survives recycling: %+v", r)
		}
		if len(r.resp) != 0 || cap(r.resp) != 1 || r.lookedUp == nil {
			t.Error("a recycled request lost what it owns")
		}
		if !parked(r.timer) {
			t.Error("a recycled request's timer is armed or has fired into C")
		}
	})
}

// TestFullQueueSheds: behind a full accept queue and a main loop that
// does not drain it, a request at a node with the default Config is
// shed at once — 503 with Retry-After, booked as an accept-queue shed —
// and not recycled, for nothing has answered it.
func TestFullQueueSheds(t *testing.T) {
	tr := sizedTrace(1 << 10)
	reg := metrics.NewRegistry()
	cl, err := Start(Config{Nodes: 1, Trace: tr, Transport: TransportVIA, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n := cl.Nodes()[0]
	h := &nodeHandler{node: n}
	shed := reg.Counter("press_shed_total", "node=0", "queue="+shedQueueAccept, "reason="+shedReasonFull)

	isParked := make(chan struct{})
	n.inject(func() {
		close(isParked)
		<-n.stop
	})
	<-isParked
	for i := 0; i < cap(n.httpCh); i++ {
		n.httpCh <- n.newRequest(tr.Files[0].Name)
	}
	made := recordRequests(t)
	shedBefore := shed.Value()

	rec, done := httptest.NewRecorder(), make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, httptest.NewRequest("GET", tr.Files[0].Name, nil))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler waited behind the full queue instead of shedding")
	}
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != retryAfterSeconds {
		t.Errorf("status %d, Retry-After %q; want 503 and %q", rec.Code, rec.Header().Get("Retry-After"), retryAfterSeconds)
	}
	if got := shed.Value() - shedBefore; got != 1 {
		t.Errorf("press_shed_total{queue=accept,reason=full} moved by %d, want 1", got)
	}
	reqs := made()
	if len(reqs) != 1 {
		t.Fatalf("%d requests were made, want 1", len(reqs))
	}
	if r := reqs[0]; r.node != n || r.name == "" || !parked(r.timer) {
		t.Error("the shed request was recycled, or left its safety net armed")
	}
}

// TestServeHTTPContentLength: the Content-Length header comes from a
// table now, so it is checked against the body on every serve path, for
// both methods, at the sizes where it could go wrong: one byte, one and
// many pages, and a file the V0 channel sends in two chunks. (No empty
// file: trace.Validate refuses one and cache.LRU panics on it.)
func TestServeHTTPContentLength(t *testing.T) {
	sizes := []int64{1, 1 << 10, 64 << 10, 40000}
	// Two files per size: a disk read happens once per file, and both
	// methods have to cross it.
	tr := sizedTrace(append(append([]int64(nil), sizes...), sizes...)...)
	cl := startRecvBufCluster(t, tr, 2, TransportVIA, "V0", nil)
	home, away := dialRaw(t, cl.Addrs()[0], 64<<10), dialRaw(t, cl.Addrs()[1], 64<<10)

	check := func(rc *rawClient, method string, f trace.File, path string) {
		t.Helper()
		status, clen, body, err := rc.do(rawRequest(method, f.Name))
		if err != nil || status != http.StatusOK {
			t.Fatalf("%s %s (%s, %d B): status %d, err %v", method, f.Name, path, f.Size, status, err)
		}
		if int64(clen) != f.Size {
			t.Errorf("%s %s (%s): Content-Length %d, want %d", method, f.Name, path, clen, f.Size)
		}
		if method == "GET" && !bytes.Equal(body, SynthesizeContent(f.Name, f.Size)) {
			t.Errorf("GET %s (%s): wrong body (%d bytes)", f.Name, path, len(body))
		}
	}
	for id, f := range tr.Files {
		first := []string{"GET", "HEAD"}[id/len(sizes)]
		before := cl.Stats().Nodes
		check(home, first, f, "disk")
		warmAt(t, cl, tr, id, 0)
		for _, m := range []string{"GET", "HEAD"} {
			check(home, m, f, "local hit")
			check(away, m, f, "forwarded")
		}
		after := cl.Stats().Nodes
		if d, l, fw := after.DiskReads-before.DiskReads, after.LocalHits-before.LocalHits,
			after.Forwarded-before.Forwarded; d != 1 || l != 3 || fw != 2 {
			t.Fatalf("%s: %d disk reads, %d local hits, %d forwards; want 1, 3, 2", f.Name, d, l, fw)
		}
	}
}

// TestClientRequestRecycleStress drives every way a request can end —
// local hit, disk read, forwarded reply, 404 and, under overload control
// with a one-slot accept queue, sheds and expiries — from eight
// keep-alive clients at once, and checks every answer: a 200 carries the
// file's bytes, anything else is the status that request may get. A
// request recycled while the main loop still held it shows as another
// client's body, or under the race detector. The 4-node legs run on
// every receive path (recvBufTransports), so they also guard the main
// loop's one inbound Message: a handler that kept it would serve the
// next message's name.
func TestClientRequestRecycleStress(t *testing.T) {
	const clients = 8
	perClient := 625 // × 8 clients = 5 000 requests per leg
	if testing.Short() {
		perClient = 100
	}
	sizes := make([]int64, 48)
	for i := range sizes {
		sizes[i] = int64(200 + 997*i) // to 47 KB: the largest go in two V0 chunks
	}
	tr := sizedTrace(sizes...)
	want := make([][]byte, len(tr.Files))
	for i, f := range tr.Files {
		want[i] = SynthesizeContent(f.Name, f.Size)
	}
	v0 := recvBufTransports[1]

	drive := func(t *testing.T, nodes int, kind TransportKind, version string, overload bool) {
		cl := startRecvBufCluster(t, tr, nodes, kind, version, func(cfg *Config) {
			cfg.CacheBytes = 512 << 10 // half the population: disk reads never stop
			if overload {
				// Every disk read outlives its request; hits do not.
				cfg.DiskDelay = 4 * time.Millisecond
				cfg.Overload = OverloadConfig{AcceptQueue: 1, RequestTimeout: 2 * time.Millisecond}
			}
		})

		var ok, notFound, refused atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			conns := make([]*rawClient, nodes)
			for i, addr := range cl.Addrs() {
				conns[i] = dialRaw(t, addr, 64<<10)
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				for i := 0; i < perClient; i++ {
					// Skewed to the low ids, so the cache holds a hot
					// head; one request in thirteen names no file.
					id, name := rng.Intn(rng.Intn(len(tr.Files)+4)+1), "/reqpath/missing.html"
					if rng.Intn(13) == 0 {
						id = len(tr.Files)
					}
					if id < len(tr.Files) {
						name = tr.Files[id].Name
					}
					status, _, body, err := conns[rng.Intn(nodes)].do(rawRequest("GET", name))
					switch {
					case err != nil:
						t.Errorf("client %d: GET %s: %v", c, name, err)
						return
					case status == http.StatusOK && id < len(tr.Files) && bytes.Equal(body, want[id]):
						ok.Add(1)
					case status == http.StatusNotFound && id >= len(tr.Files):
						notFound.Add(1)
					case status == http.StatusServiceUnavailable && overload:
						refused.Add(1)
					default:
						t.Errorf("client %d: GET %s: status %d with %d body bytes", c, name, status, len(body))
						return
					}
				}
			}(c)
		}
		wg.Wait()
		s := cl.Stats().Nodes
		t.Logf("%d ok, %d not found, %d refused; %+v", ok.Load(), notFound.Load(), refused.Load(), s)
		if ok.Load() == 0 || notFound.Load() == 0 || s.LocalHits == 0 || s.DiskReads == 0 {
			t.Error("the drive missed one of: 200, 404, local hit, disk read")
		}
		if nodes > 1 && s.Forwarded == 0 {
			t.Error("nothing was forwarded")
		}
		if overload && (refused.Load() == 0 || s.Shed+s.DeadlineExpired == 0) {
			t.Error("overload control refused nothing")
		}
	}

	for _, nodes := range []int{1, 4} {
		for _, overload := range []bool{false, true} {
			t.Run(fmt.Sprintf("nodes=%d/overload=%v", nodes, overload), func(t *testing.T) {
				if nodes == 1 {
					drive(t, nodes, v0.kind, v0.version, overload)
					return
				}
				for _, tp := range recvBufTransports {
					t.Run(tp.name, func(t *testing.T) { drive(t, nodes, tp.kind, tp.version, overload) })
				}
			})
		}
	}
}

// BenchmarkLocalHit1K is the budget of the path every request takes: one
// node, one cached 1 KiB file, one GET per iteration over a client that
// allocates nothing, so allocs/op is the server's — net/http's own ~17
// and what PRESS adds to them. check.sh fails above 20: the ledger's
// null server, a bare net/http handler, costs 21.
func BenchmarkLocalHit1K(b *testing.B) {
	tr := sizedTrace(1 << 10)
	cl := startRecvBufCluster(b, tr, 1, TransportVIA, "", nil)
	rc := dialRaw(b, cl.Addrs()[0], 1<<10)
	req, want := rawRequest("GET", tr.Files[0].Name), SynthesizeContent(tr.Files[0].Name, 1<<10)
	get := func() {
		status, _, body, err := rc.do(req)
		if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
			b.Fatalf("status %d, %d body bytes, err %v", status, len(body), err)
		}
	}
	get() // the disk read
	get() // connection, pool and cache warm
	hitsBefore := cl.Stats().Nodes.LocalHits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
	b.StopTimer()
	if hits := cl.Stats().Nodes.LocalHits - hitsBefore; hits != int64(b.N) {
		b.Fatalf("%d of %d requests were local hits", hits, b.N)
	}
}

// BenchmarkForwarded1K is the message path's budget: two nodes, one
// 1 KiB file cached only at node 1, one GET per iteration at node 0 over
// a client that allocates nothing, so every request is a forward, its
// reply and BenchmarkLocalHit1K's path, on each receive path. check.sh
// fails above 20: what a forward adds over a local hit is its
// pendingRemote.
func BenchmarkForwarded1K(b *testing.B) {
	for _, tp := range recvBufTransports {
		b.Run(tp.name, func(b *testing.B) {
			tr := sizedTrace(1 << 10)
			cl := startRecvBufCluster(b, tr, 2, tp.kind, tp.version, nil)
			warmAt(b, cl, tr, 0, 1)
			rc := dialRaw(b, cl.Addrs()[0], 1<<10)
			req, want := rawRequest("GET", tr.Files[0].Name), SynthesizeContent(tr.Files[0].Name, 1<<10)
			get := func() {
				status, _, body, err := rc.do(req)
				if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
					b.Fatalf("status %d, %d body bytes, err %v", status, len(body), err)
				}
			}
			get() // connection, pools and frame scratch warm
			get()
			fwdBefore := cl.Stats().Nodes.Forwarded
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
			b.StopTimer()
			if fwd := cl.Stats().Nodes.Forwarded - fwdBefore; fwd != int64(b.N) {
				b.Fatalf("%d of %d requests were forwarded", fwd, b.N)
			}
		})
	}
}
