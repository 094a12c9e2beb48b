package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"press/core"
	"press/tracing"
)

// tcpTransport connects the cluster over kernel TCP sockets, the
// paper's portable baseline. Flow control is TCP's own, transparent to
// the server (Section 2.2), so no flow messages appear on the wire.
//
// This file is the data plane: peer table, framing, Send, read loop.
// How connections come to exist is mesh.go: the MsgJoin handshake every
// one opens with, epochs, and connect, which dials each higher-indexed
// peer once and leaves a peer that is not up yet to the health prober,
// as the VIA transport does. There is one mode: sibling nodes of an
// in-process Cluster pair up over loopback exactly as pressd processes
// do across hosts.
type tcpTransport struct {
	self      int
	nodes     int
	peerAddrs []string
	inbound   chan Message
	names     nameTable // interns the names received messages carry
	ins       transportInstruments
	trc       *tracing.Collector
	// ctx ends at Close, which hangs up every handshake still running.
	ctx    context.Context
	cancel context.CancelFunc
	meshState

	// peersMu guards the peer table and the closed flag; peers[i] is
	// replaced wholesale when a connection is re-established.
	peersMu sync.RWMutex
	peers   []*tcpPeer // indexed by node, nil for self
	closed  bool

	closeOnce sync.Once
	wg        sync.WaitGroup
	ln        net.Listener
}

type tcpPeer struct {
	conn  net.Conn
	mu    sync.Mutex // serializes frame writes
	frame []byte     // under mu: encode scratch of at most maxKeptFrame bytes

	// id and epoch are fixed at handshake time: the peer's node index
	// and the epoch of the process life that opened this connection. A
	// conn whose epoch falls behind the highest accepted for the same id
	// is from a previous life; its messages are dropped, never served.
	id    int
	epoch uint64

	downMu  sync.Mutex
	downErr error
}

// markDown records the first failure and closes the socket, unblocking
// any reader or writer parked on it.
func (p *tcpPeer) markDown(err error) {
	p.downMu.Lock()
	if p.downErr == nil {
		p.downErr = err
	}
	p.downMu.Unlock()
	p.conn.Close()
}

// down returns the recorded failure, nil while healthy.
func (p *tcpPeer) down() error {
	p.downMu.Lock()
	defer p.downMu.Unlock()
	return p.downErr
}

const maxFrame = 8 << 20

// maxKeptFrame is the largest scratch a peer keeps: one regular chunk's
// frame. A larger file's frame is not kept, so no peer pins its size.
var maxKeptFrame = 4 + msgHeaderLen + msgMaxExtLen + maxNameLen + viaChunkBytes

// appendFrame appends m's length-prefixed frame to dst.
func appendFrame(dst []byte, m *Message) ([]byte, error) {
	at := len(dst)
	dst, err := m.Encode(append(dst, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst, nil
}

// peer returns the live connection to dst, nil if none.
func (t *tcpTransport) peer(dst int) *tcpPeer {
	t.peersMu.RLock()
	defer t.peersMu.RUnlock()
	if dst < 0 || dst >= len(t.peers) {
		return nil
	}
	return t.peers[dst]
}

// setPeer installs a fresh connection and starts its reader, retiring
// any predecessor so its read loop exits and blocked writers fail over.
// The closed check, the install and the reader's registration are one
// critical section: a redial that wins the race against Close must not
// resurrect a table entry (Close has already snapshotted the table),
// leak its conn, or add to wg after Close's Wait, so a closing
// transport refuses the install, closes the conn, and reports false. An
// install is also refused when a connection from a newer epoch of the
// same peer is already seated — the stale dialer lost.
func (t *tcpTransport) setPeer(id int, p *tcpPeer) bool {
	t.peersMu.Lock()
	if t.closed {
		t.peersMu.Unlock()
		p.markDown(fmt.Errorf("%w: transport closed", ErrPeerDown))
		return false
	}
	old := t.peers[id]
	if old != nil && old.epoch > p.epoch {
		t.peersMu.Unlock()
		p.markDown(fmt.Errorf("%w: node %d epoch %d superseded by %d", ErrPeerDown, id, p.epoch, old.epoch))
		return false
	}
	t.peers[id] = p
	t.wg.Add(1)
	go t.readLoop(p)
	t.peersMu.Unlock()
	if old != nil {
		// Not a death — the peer has just proven it is alive — so sends
		// riding the old connection bounce to this one (see Send).
		old.markDown(fmt.Errorf("%w: node %d", errSuperseded, id))
	}
	return true
}

// PeerDown marks the connection to dst dead: blocked writes unblock
// (the socket closes under them) and future sends fail fast with
// ErrPeerDown until a reconnect installs a fresh connection.
func (t *tcpTransport) PeerDown(dst int, reason error) {
	if p := t.peer(dst); p != nil {
		p.markDown(fmt.Errorf("%w: node %d: %v", ErrPeerDown, dst, reason))
	}
}

// Reconnect re-dials dst with the full join handshake. Either side of a
// pair may call it — the peer that died may be exactly the one a fixed
// dialer role would have assigned — and epoch supersession in setPeer
// resolves the races.
func (t *tcpTransport) Reconnect(dst int) error {
	if dst == t.self || dst < 0 || dst >= t.nodes {
		return fmt.Errorf("server: bad reconnect destination %d", dst)
	}
	return t.dialJoin(dst)
}

// acceptLoop hands every inbound connection to the acceptor half of the
// join handshake, run off the accept path so a slow or hostile dialer
// cannot block other peers.
func (t *tcpTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Safe to Add here: acceptLoop itself is counted in wg, so
		// Close's Wait cannot have completed yet.
		t.wg.Add(1)
		go t.meshAccept(conn)
	}
}

func (t *tcpTransport) Send(dst int, m *Message) error {
	if dst < 0 || dst >= t.nodes || dst == t.self {
		return fmt.Errorf("server: bad destination %d", dst)
	}
	// A reconnect can replace the connection under the send; it bounces
	// (supersedeBounces). The receiver discards whatever part of the
	// frame reached the closed connection.
	for bounce := 0; ; bounce++ {
		p := t.peer(dst)
		if p == nil {
			return fmt.Errorf("server: no connection to %d", dst)
		}
		err := t.sendOn(p, m)
		if !bounces(err) || bounce == supersedeBounces || t.peer(dst) == p {
			return err
		}
	}
}

// sendOn runs one send attempt over a specific connection, encoding into
// the peer's scratch. The four counted sites, appendFrame's append and
// Encode's three, grow it once; a frame over maxKeptFrame allocates.
//
//presslint:hotpath budget=4
func (t *tcpTransport) sendOn(p *tcpPeer, m *Message) error {
	if err := p.down(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var cp *tracing.Span
	if m.Type == core.MsgFile {
		// The frame build is the payload copy handed to the kernel, the
		// TCP analogue of the VIA staging copy.
		cp = t.trc.StartSpan("staging-copy", m.TraceID, m.ParentSpan)
	}
	frame, err := appendFrame(p.frame[:0], m)
	if err != nil {
		cp.Cancel()
		return err
	}
	if cap(frame) <= maxKeptFrame {
		p.frame = frame
	}
	t.ins.acct.add(m.Type, int64(len(frame)-4))
	if m.Type == core.MsgFile {
		t.ins.copied.Add(int64(len(m.Data)))
		cp.Annotate("bytes", int64(len(m.Data)))
	}
	cp.End()
	if _, err = p.conn.Write(frame); err != nil {
		// A TCP write error is a hard connection fault; poison the peer
		// so subsequent sends fail fast instead of each timing out. If a
		// reconnect closed the socket under the write, the supersede —
		// already recorded, and the first failure sticks — is the story.
		p.markDown(err)
		return p.down()
	}
	return nil
}

// readFrame reads one length-prefixed Message of at most max bytes into
// m. hdr is the caller's scratch, so a read loop pays for it once.
func (nt nameTable) readFrame(r io.Reader, hdr *[4]byte, max uint32, m *Message) error {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > max {
		return fmt.Errorf("server: oversized frame of %d bytes", n)
	}
	buf := getRecvBuf(int(n))
	if _, err := io.ReadFull(r, buf.b); err != nil {
		buf.release()
		return err
	}
	return nt.decodeFrame(m, buf)
}

func (t *tcpTransport) readLoop(p *tcpPeer) {
	defer t.wg.Done()
	conn := p.conn
	fail := func(err error) {
		select {
		case <-t.ctx.Done(): // orderly shutdown, not a peer fault
		default:
			p.markDown(err)
		}
	}
	var hdr [4]byte
	var m Message
	for {
		if err := t.names.readFrame(conn, &hdr, maxFrame, &m); err != nil {
			fail(err)
			return
		}
		if m.From != p.id || p.epoch != t.peerEpoch[p.id].Load() {
			// A frame from a previous life of the peer (or one lying
			// about its identity): the connection's epoch has been
			// superseded by a newer join. Never serve it.
			t.staleDrops.Add(1)
			continue
		}
		// Blocking here is the flow control: TCP backpressure reaches
		// the sender when the main loop is saturated.
		select {
		case t.inbound <- m:
		case <-t.ctx.Done():
			return
		}
	}
}

func (t *tcpTransport) Inbound() <-chan Message { return t.inbound }

// Metrics snapshots the transport's counters. CopiedBytes is the
// send-side volume handed to the kernel TCP stack, which copies every
// payload at the sender and again at the receiver; CreditStalls is
// always zero, as TCP's flow control is the kernel's.
func (t *tcpTransport) Metrics() TransportMetrics { return t.ins.metrics() }

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		t.cancel()
		t.peersMu.Lock()
		t.closed = true
		peers := append([]*tcpPeer(nil), t.peers...)
		t.peersMu.Unlock()
		t.ln.Close()
		for _, p := range peers {
			if p != nil {
				p.conn.Close()
			}
		}
		t.wg.Wait()
	})
	return nil
}
