package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"press/cache"
	"press/core"
	"press/netmodel"
	"press/trace"
)

func TestRecvBufClasses(t *testing.T) {
	for _, c := range []struct{ n, class, capacity int }{
		{0, 0, 512}, {1, 0, 512}, {512, 0, 512}, {513, 1, 1024},
		{65536, 7, 65536}, {65537, 8, 131072}, {1 << 20, 11, 1 << 20},
		{1<<20 + 1, -1, 1<<20 + 1},
	} {
		if got := recvClass(c.n); got != c.class {
			t.Errorf("recvClass(%d) = %d, want %d", c.n, got, c.class)
		}
		rb := getRecvBuf(c.n)
		if len(rb.b) != c.n || cap(rb.b) != c.capacity {
			t.Errorf("getRecvBuf(%d): len %d cap %d, want cap %d", c.n, len(rb.b), cap(rb.b), c.capacity)
		}
		rb.release()
	}
	(*recvBuf)(nil).release() // a result that owns no buffer
}

// uniformTrace is n files whose sizes step from lo by step, so a set can
// be laid inside one pool class with no two files the same length.
func uniformTrace(n int, lo, step int64) *trace.Trace {
	tr := &trace.Trace{Name: "recvbuf", Files: make([]trace.File, n)}
	for i := range tr.Files {
		tr.Files[i] = trace.File{Name: fmt.Sprintf("/recvbuf/doc%03d.html", i), Size: lo + int64(i)*step}
	}
	return tr
}

// recvBufTransports are the three receive paths that fill a receive
// buffer: the V5 file ring, the V0 regular channel, the TCP mesh.
var recvBufTransports = []struct {
	name    string
	kind    TransportKind
	version string
}{
	{"V5", TransportVIA, "V5"},
	{"V0", TransportVIA, "V0"},
	{"TCP", TransportTCP, ""},
}

func startRecvBufCluster(t testing.TB, tr *trace.Trace, nodes int, kind TransportKind, version string,
	tweak func(*Config)) *Cluster {
	t.Helper()
	cfg := testClusterConfig(tr, kind)
	cfg.Nodes = nodes
	cfg.CacheBytes = 8 << 20
	if version != "" {
		v, err := netmodel.VersionByName(version)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Version = v
	}
	if tweak != nil {
		tweak(&cfg)
	}
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// warmAt caches file id at node home (a first request is served where it
// lands) and waits until every node's directory says so, after which a
// request for it anywhere else is forwarded to home.
func warmAt(t testing.TB, cl *Cluster, tr *trace.Trace, id, home int) {
	t.Helper()
	f := tr.Files[id]
	got, err := Fetch(cl.URL(home), f.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, SynthesizeContent(f.Name, f.Size)) {
		t.Fatalf("warm %s at node %d: wrong body", f.Name, home)
	}
	waitFor(t, 5*time.Second, "every directory to learn of "+f.Name, func() bool {
		for _, n := range cl.Nodes() {
			if !dirCachers(t, n, cache.FileID(id)).Has(home) {
				return false
			}
		}
		return true
	})
}

// TestHandleFileChunk pins the ownership rule at the one place a reply
// becomes a result: a message that is the whole file is adopted without
// a copy, a reply in chunks is reassembled byte-exact in a buffer of its
// own, and a reply that is not exactly the stored file, in order, is
// refused before it sizes a buffer or completes a request.
func TestHandleFileChunk(t *testing.T) {
	tr := uniformTrace(2, 3000, 500)
	cl := startRecvBufCluster(t, tr, 2, TransportTCP, "", nil)
	n := cl.Nodes()[0]
	const id = 1
	want := SynthesizeContent(tr.Files[id].Name, tr.Files[id].Size)
	size := uint32(len(want))

	// chunk builds the message a transport would deliver: its payload in
	// a receive buffer the message owns.
	chunk := func(off, end int, total uint32) *Message {
		rb := getRecvBuf(end - off)
		copy(rb.b, want[off:])
		return &Message{Type: core.MsgFile, From: 1, Data: rb.b, buf: rb, Offset: uint32(off), Total: total}
	}
	// deliver registers a pending forward to node 1 and feeds it msgs on
	// the main loop; ok is false while the request is still pending.
	deliver := func(msgs ...*Message) (res clientResult, ok bool, stillPending bool) {
		type out struct {
			res         clientResult
			ok, pending bool
		}
		o := onMainLoop(t, n, func() (o out) {
			req := n.newRequest(tr.Files[id].Name)
			n.nextReqID++
			reqID := n.nextReqID
			n.pending[reqID] = &pendingRemote{req: req, file: id, dst: 1}
			for _, m := range msgs {
				m.ReqID = reqID
				n.handleFileChunk(m)
			}
			select {
			case o.res = <-req.resp:
				o.ok = true
			default:
			}
			_, o.pending = n.pending[reqID]
			delete(n.pending, reqID)
			return o
		})
		return o.res, o.ok, o.pending
	}

	t.Run("whole message is adopted", func(t *testing.T) {
		m := chunk(0, len(want), size)
		res, ok, pending := deliver(m)
		if !ok || pending || res.err != nil {
			t.Fatalf("answered %v, pending %v, err %v", ok, pending, res.err)
		}
		if &res.data[0] != &m.Data[0] || len(res.data) != len(want) || res.buf != m.buf {
			t.Fatal("the whole-file message was copied instead of adopted")
		}
		if !bytes.Equal(res.data, want) {
			t.Fatal("adopted reply differs from the stored file")
		}
	})

	t.Run("three chunks reassemble", func(t *testing.T) {
		a, b := len(want)/3, 2*len(want)/3
		first := chunk(0, a, size)
		if _, ok, pending := deliver(first); ok || !pending {
			t.Fatalf("after one chunk of three: answered %v, pending %v", ok, pending)
		}
		msgs := []*Message{chunk(0, a, size), chunk(a, b, size), chunk(b, len(want), size)}
		res, ok, pending := deliver(msgs...)
		if !ok || pending || res.err != nil {
			t.Fatalf("answered %v, pending %v, err %v", ok, pending, res.err)
		}
		if !bytes.Equal(res.data, want) {
			t.Fatal("reassembled reply differs from the stored file")
		}
		if res.buf == nil || &res.buf.b[0] != &res.data[0] {
			t.Fatal("the reassembled reply does not own its buffer")
		}
		for i, m := range msgs {
			if res.buf == m.buf {
				t.Fatalf("the reply's buffer is chunk %d's frame, which went back to the pool", i)
			}
		}
	})

	a := len(want) / 2
	refusals := []struct {
		name string
		msgs []*Message
	}{
		{"total larger than the file", []*Message{chunk(0, a, 1<<32-1)}},
		{"total smaller than the file", []*Message{chunk(0, a, uint32(a))}},
		{"total changes between chunks", []*Message{chunk(0, a, size), chunk(a, len(want), size-1)}},
		{"gap", []*Message{chunk(0, a, size), chunk(a+1, len(want), size)}},
		{"duplicate chunk", []*Message{chunk(0, a, size), chunk(0, a, size)}},
		{"first chunk not at zero", []*Message{chunk(a, len(want), size)}},
		{"payload past the end", []*Message{chunk(0, a, size), {Type: core.MsgFile, From: 1,
			Data: make([]byte, len(want)-a+1), Offset: uint32(a), Total: size}}},
	}
	for _, c := range refusals {
		t.Run("refuses "+c.name, func(t *testing.T) {
			errsBefore := n.Stats().Errors
			res, ok, pending := deliver(c.msgs...)
			if !ok || pending {
				t.Fatalf("answered %v, pending %v: a refused reply must finish the request", ok, pending)
			}
			if res.err == nil || !strings.Contains(res.err.Error(), "corrupt file reply") {
				t.Fatalf("err = %v, want corrupt file reply", res.err)
			}
			if res.data != nil || res.buf != nil {
				t.Fatal("a refused reply carries bytes")
			}
			if got := n.Stats().Errors - errsBefore; got != 1 {
				t.Fatalf("press_errors_total moved by %d, want 1", got)
			}
		})
	}

	t.Run("stale sender is dropped", func(t *testing.T) {
		m := chunk(0, len(want), size)
		m.From = 0 // not the node the request is pending on
		if _, ok, pending := deliver(m); ok || !pending {
			t.Fatalf("answered %v, pending %v: a stale reply must leave the request alone", ok, pending)
		}
	})
}

// TestFailoverMidReassembly: a request fails over with a third of its
// reply already in the reassembly buffer. The partial buffer is dropped
// (not released: nothing may recycle it, nothing may serve it), the rest
// of the old reply is refused as stale, and the new service node's reply
// is what the client gets.
func TestFailoverMidReassembly(t *testing.T) {
	for _, tp := range recvBufTransports {
		t.Run(tp.name, func(t *testing.T) {
			tr := uniformTrace(2, 40000, 1000)
			cl := startRecvBufCluster(t, tr, 3, tp.kind, tp.version, nil)
			n := cl.Nodes()[0]
			const id = 1
			f := tr.Files[id]
			want := SynthesizeContent(f.Name, f.Size)
			warmAt(t, cl, tr, id, 2) // the replica the request fails over to

			third := len(want) / 3
			req := n.newRequest(f.Name)
			partial := onMainLoop(t, n, func() *recvBuf {
				n.nextReqID++
				reqID := n.nextReqID
				p := &pendingRemote{req: req, file: id, dst: 1, tried: cache.NodeSetOf(0, 1)}
				n.pending[reqID] = p
				old := func(off, end int) *Message {
					return &Message{Type: core.MsgFile, From: 1, ReqID: reqID, Data: want[off:end],
						Offset: uint32(off), Total: uint32(len(want))}
				}
				n.handleFileChunk(old(0, third))
				partial := p.buf
				n.failover(reqID, p, failoverTimeout)
				if p.buf != nil || p.received != 0 || p.dst != 2 {
					t.Errorf("after failover: buf %v, received %d, dst %d", p.buf != nil, p.received, p.dst)
				}
				n.handleFileChunk(old(third, len(want))) // node 1's reply, late
				return partial
			})
			if partial == nil {
				t.Fatal("no reassembly buffer after the first chunk")
			}
			// Were the partial buffer recycled or served, this would show.
			for i := range partial.b {
				partial.b[i] = 0xEE
			}
			select {
			case res := <-req.resp:
				if res.err != nil {
					t.Fatal(res.err)
				}
				if !bytes.Equal(res.data, want) {
					t.Fatal("the failed-over request was answered with the wrong bytes")
				}
				if res.buf == partial {
					t.Fatal("the failed-over request was answered out of the abandoned buffer")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the failed-over request was never answered")
			}
		})
	}
}

// TestReplicaPullKeepsItsBuffer: a replica pull lands the reply's bytes
// in the cache, so its receive buffer must never go back to the pool.
// After the pull, forwarded traffic of the same size class cycles the
// pool many times over; the cached replica must still be the file.
func TestReplicaPullKeepsItsBuffer(t *testing.T) {
	for _, tp := range recvBufTransports {
		t.Run(tp.name, func(t *testing.T) {
			tr := uniformTrace(8, 36000, 1500) // one class, whole or in two chunks
			cl := startRecvBufCluster(t, tr, 2, tp.kind, tp.version, func(cfg *Config) {
				// The layer is on so a pull is accepted; the policy itself
				// never acts.
				cfg.Replication = core.ReplicationConfig{Enabled: true, HotRate: 1e12,
					HalfLife: time.Hour, Interval: time.Hour, Cooldown: time.Hour, MaxReplicas: 2}
			})
			for id := range tr.Files {
				warmAt(t, cl, tr, id, 0)
			}
			n := cl.Nodes()[1]
			const replica = 0
			f := tr.Files[replica]
			want := SynthesizeContent(f.Name, f.Size)
			onMainLoop(t, n, func() bool {
				n.handleReplicate(&Message{Type: core.MsgReplicate, From: 0, Name: f.Name})
				return true
			})
			waitFor(t, 5*time.Second, "the replica pull to land", func() bool { return nodeCaches(t, n, replica) })

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						g := tr.Files[1+(w+i)%(len(tr.Files)-1)]
						got, err := Fetch(cl.URL(1), g.Name)
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got, SynthesizeContent(g.Name, g.Size)) {
							t.Errorf("%s: wrong body", g.Name)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if fwd := n.Stats().Forwarded; fwd < 200 {
				t.Fatalf("only %d requests were forwarded: the pool was not cycled", fwd)
			}
			cached := onMainLoop(t, n, func() []byte { return append([]byte(nil), n.content[replica]...) })
			if !bytes.Equal(cached, want) {
				t.Fatal("the pulled replica's bytes changed under the cache: its buffer was recycled")
			}
			if pulls := n.Stats().ReplicaPulls; pulls != 1 {
				t.Fatalf("replica pulls = %d, want 1", pulls)
			}
		})
	}
}

// BenchmarkForwardedReply64K is the allocation budget of one forwarded
// reply on the path zero-copy is for: a V5 pair, a cached 64 KiB file,
// one GET per iteration at the node that does not cache it. The whole
// exchange — client, HTTP edge, both main loops, the file ring — runs
// in-process, so B/op holds everything but the payload's one receive
// buffer, which is pooled. check.sh fails above 16 KiB/op: a per-arrival
// or a reassembly allocation coming back quintuples it.
func BenchmarkForwardedReply64K(b *testing.B) {
	tr := uniformTrace(1, 64<<10, 0)
	cl := startRecvBufCluster(b, tr, 2, TransportVIA, "V5", nil)
	warmAt(b, cl, tr, 0, 1)
	url := cl.URL(0) + tr.Files[0].Name
	get := func() {
		resp, err := http.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != 64<<10 {
			b.Fatalf("read %d bytes: %v", n, err)
		}
	}
	get() // connection and pool warm
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
}
