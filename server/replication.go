package server

import (
	"time"

	"press/cache"
	"press/core"
	"press/telemetry"
)

// The server's driver of core.Replicator, which holds the policy and
// all of its state: a push travels as a MsgReplicate, a pull as an
// ordinary MsgForward tracked as a pendingRemote with no client, a drop
// is a cache eviction announced over the caching path, and the machine
// is told what became of each. n.repl is nil when the layer is off.

// replView adapts the node to core.ReplicaView: the request-distribution
// view plus what only the replication policy asks.
type replView struct{ nodeView }

func (v replView) Cached() []cache.FileID     { return v.n.lru.Files() }
func (v replView) Size(id cache.FileID) int64 { return v.n.files[id].Size }
func (v replView) Eligible(p int) bool {
	return !v.n.peers.dead(p) && !v.n.peers.browned(p)
}

// replTick runs the policy on the main-loop ticker and carries out its
// decisions (none when the layer is off): a push is a MsgReplicate; a
// drop evicts the copy and announces it over the caching (RMW) path.
func (n *Node) replTick(now time.Time) {
	for _, a := range n.repl.Tick(now, replView{nodeView{n}}) {
		switch f := n.files[a.File]; {
		case !a.Drop:
			n.m.replPushes.Inc()
			n.send(a.Dst, Message{Type: core.MsgReplicate, Name: f.Name})
		case n.lru.Remove(a.File):
			n.uncache(a.File)
			n.repl.Dropped(a.File, now)
			n.m.replDrops.Inc()
			n.tel.Event(telemetry.EvReplicaDrop, n.id, -1, f.Name, f.Size)
		}
	}
}

// handleReplicate is the pull side of a replica push: if the policy
// accepts the offer, a MsgForward back to the pusher whose reply
// reassembles through handleFileChunk like any other.
func (n *Node) handleReplicate(m *Message) {
	id, ok := n.nameToID[m.Name]
	if !ok || !n.repl.Offer(id, n.lru.Contains(id), !n.peers.dead(m.From)) {
		return
	}
	n.startForward(&pendingRemote{file: id, tried: cache.NodeSetOf(n.id)}, m.From)
}

// finish is the one completion of a pending forward, already taken out
// of n.pending: its span ends, and the waiting client gets its answer.
// A replica pull instead lands in the cache, registering pages for
// zero-copy transmit and announcing the caching change exactly as a
// disk read would, or is abandoned; the Replicator hears which. The
// cache then holds res.data for as long as the replica lives, so its
// receive buffer (res.buf) is never released.
func (p *pendingRemote) finish(n *Node, res clientResult) {
	p.span.End()
	if p.req != nil {
		p.req.resp <- res
		return
	}
	// A local disk read may have cached the file while the pull flew,
	// and a copy larger than the whole cache is no replica.
	if res.err == nil && !n.lru.Contains(p.file) {
		n.insertCache(p.file, res.data)
		if n.lru.Contains(p.file) {
			n.repl.Installed(p.file, time.Now())
			n.m.replPulls.Inc()
			n.tel.Event(telemetry.EvReplicaCreate, n.id, p.dst, n.files[p.file].Name, int64(len(res.data)))
			return
		}
	}
	n.repl.Aborted(p.file)
}
