package server

import (
	"fmt"
	"testing"
	"time"

	"press/cache"
	"press/core"
	"press/metrics"
	"press/tracing"
)

// idleTransport is a Transport nothing is sent over: a node built on it
// and never started has no send thread, so the test plays its main loop
// and its peers. Only PeerDown is ever reached.
type idleTransport struct{ Transport }

func (idleTransport) PeerDown(int, error) {}

// TestForwardEndsOnce is a table over every way a forward ends. Each row
// starts a forward from node 0 to node 1 of a 3-node cluster whose
// directory lists node 2 as a second cacher, ends it, and lets the
// peers answer whatever went out again. Then no pending entry is left,
// every peer's pace is back to 0 outstanding, the forward span has
// ended, and the client was answered exactly once, with an error where
// the row fails — or, for a replica pull, the Replicator released the
// pull.
func TestForwardEndsOnce(t *testing.T) {
	tr := uniformTrace(2, 2000, 500)
	const file, pull = 0, 1 // pull is cached nowhere but at node 1
	content := func(id cache.FileID) []byte { return SynthesizeContent(tr.Files[id].Name, tr.Files[id].Size) }
	reply := func(from int, reqID uint64, id cache.FileID) *Message {
		data := content(id)
		return &Message{Type: core.MsgFile, From: from, ReqID: reqID, Data: data, Total: uint32(len(data))}
	}

	rows := []struct {
		name  string
		pull  bool // a replica pull, with no client
		shed  bool // the dispatch queue is full when the forward starts
		fails bool // the client is answered with an error
		end   func(n *Node, reqID uint64, p *pendingRemote)
	}{
		{name: "reply", end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.handleFileChunk(reply(1, reqID, file))
		}},
		{name: "corrupt reply", fails: true, end: func(n *Node, reqID uint64, p *pendingRemote) {
			m := reply(1, reqID, file)
			m.Total++
			n.handleFileChunk(m)
		}},
		{name: "send failure, then failover", end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.handleSendFailure(sendFailure{dst: 1, msg: Message{Type: core.MsgForward, ReqID: reqID}, err: errSuperseded})
		}},
		{name: "send-queue expiry", fails: true, end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.handleSendFailure(sendFailure{dst: 1, msg: Message{Type: core.MsgForward, ReqID: reqID}, err: ErrDeadlineExpired})
		}},
		{name: "dispatch shed", shed: true},
		{name: "pending expiry", fails: true, end: func(n *Node, reqID uint64, p *pendingRemote) {
			// Overdue as well: an expired forward is not failed over first.
			p.req.deadline = time.Now().Add(-time.Millisecond)
			n.sweepPending(p.deadline.Add(time.Millisecond))
		}},
		{name: "overdue-reply failover", end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.sweepPending(p.deadline.Add(time.Millisecond))
		}},
		{name: "peer death", end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.health.markDead(1, time.Now())
			n.onPeerDead(1, failoverPeerDead)
		}},
		{name: "crash", fails: true, end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.crashLocalState()
		}},
		{name: "abandoned replica pull", pull: true, end: func(n *Node, reqID uint64, p *pendingRemote) {
			n.sweepPending(p.deadline.Add(time.Millisecond))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tracer := tracing.New()
			cfg, err := (&Config{Nodes: 3, Trace: tr, Tracer: tracer,
				Overload: OverloadConfig{RequestTimeout: time.Hour},
				// The layer is on so a pull is accepted; the policy never acts.
				Replication: core.ReplicationConfig{Enabled: true, HotRate: 1e12,
					HalfLife: time.Hour, Interval: time.Hour, Cooldown: time.Hour, MaxReplicas: 2},
			}).withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			n := newNode(0, cfg, metrics.NewRegistry(), NewStore(tr, 0), idleTransport{}, nil)
			n.dir.HandleMessage(&Message{Type: core.MsgCaching, From: 2, Name: tr.Files[file].Name, Cached: true})

			var req *clientRequest
			var fwd *tracing.Span
			if row.pull {
				n.handleReplicate(&Message{Type: core.MsgReplicate, From: 1, Name: tr.Files[pull].Name})
			} else {
				req = n.newRequest(tr.Files[file].Name)
				req.resp = make(chan clientResult, 4) // room to see a second answer
				req.span = n.trc.StartTrace("request")
				fwd = req.span.StartChild("forward")
				if row.shed {
					for n.sendQ.push(outMsg{}) {
					}
				}
				n.startForward(&pendingRemote{req: req, file: file, span: fwd, tried: cache.NodeSetOf(0)}, 1)
			}
			if reqID := n.nextReqID; row.end != nil {
				p := n.pending[reqID]
				if p == nil {
					t.Fatal("the forward did not start")
				}
				row.end(n, reqID, p)
			}
			// The peers answer whatever went out again, and the disk serves
			// what fell back to it.
			for i := 0; i < 4 && (len(n.pending) > 0 || len(n.waiting) > 0); i++ {
				for reqID, p := range n.pending {
					n.handleFileChunk(reply(p.dst, reqID, p.file))
				}
				for name := range n.waiting {
					n.handleDiskDone(diskDone{name: name, data: content(n.nameToID[name])})
				}
			}

			if len(n.pending) != 0 {
				t.Errorf("%d pending entries left", len(n.pending))
			}
			for dst, pace := range n.ov.pace {
				if pace.outstanding != 0 {
					t.Errorf("node %d's pace has %d forwards outstanding", dst, pace.outstanding)
				}
			}
			if row.pull {
				if !n.repl.Offer(pull, false, true) {
					t.Error("the Replicator still counts the pull in flight: neither Installed nor Aborted")
				}
				return
			}
			ended := false
			for _, rec := range tracer.Records() {
				ended = ended || rec.Span == fwd.ID()
			}
			if !ended {
				t.Error("the forward span never ended")
			}
			if got := len(req.resp); got != 1 {
				t.Fatalf("the client was answered %d times", got)
			}
			if res := <-req.resp; (res.err != nil) != row.fails {
				t.Errorf("the client was answered with error %v", res.err)
			}
		})
	}
}

// TestNoSendToDeadPeer: once a survivor has declared a partitioned node
// dead — on the one send that found the link down — nothing more is
// queued for it, caching broadcasts of new files included, so none of it
// fails in the transport and the survivor counts no further send errors
// and no further errors.
func TestNoSendToDeadPeer(t *testing.T) {
	const nodes, victim, survivor = 4, 3, 0
	cfg, tr, reg := chaosClusterConfig(t, nodes)
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n := cl.Nodes()[survivor]
	sendErrs := func() int64 {
		var sum int64
		for mt := core.MsgType(0); mt < core.NumMsgTypes; mt++ {
			sum += reg.Counter("press_node_send_errors_total", fmt.Sprintf("node=%d", survivor), "type="+mt.String()).Value()
		}
		return sum
	}

	if err := cl.PartitionNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the survivor to declare the victim dead", func() bool {
		return n.PeerState(victim) == StateDead
	})
	waitQuiet(t, "sends queued before the death to fail", sendErrs)
	errsBefore, errorsBefore := sendErrs(), n.Stats().Errors

	for _, f := range tr.Files { // nothing is cached yet: every file is new
		if _, err := Fetch(cl.URL(survivor), f.Name); err != nil {
			t.Fatalf("fetch %s: %v", f.Name, err)
		}
	}
	if got := n.Stats().LocalMisses; got == 0 {
		t.Fatal("no file was read from disk and cached on the survivor")
	}
	waitQuiet(t, "the survivor's broadcasts to drain", func() int64 { return int64(n.sendQ.len()) })
	if got := sendErrs() - errsBefore; got != 0 {
		t.Errorf("the survivor counted %d send errors after declaring the victim dead", got)
	}
	if got := n.Stats().Errors - errorsBefore; got != 0 {
		t.Errorf("the survivor counted %d errors after declaring the victim dead", got)
	}
}
