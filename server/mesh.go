package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"press/core"
	"press/metrics"
	"press/tracing"
)

// The membership plane of the TCP transport: peers on real addresses
// from a static seed list — other OS processes under StartNode, sibling
// nodes on loopback under Start — and every connection opened with a
// versioned MsgJoin handshake. Epochs order a node's process lives; a
// connection from a superseded life is refused at the handshake and,
// should a frame of one still be in flight, dropped before the node
// ever sees it.

const (
	// meshHelloTimeout bounds each half of the join handshake, so a
	// half-open or hostile dialer cannot park an accept goroutine.
	meshHelloTimeout = 5 * time.Second
	// meshDialTimeout bounds the TCP connect of a join dial.
	meshDialTimeout = 3 * time.Second
	// meshJoinMaxFrame bounds a handshake frame; join payloads are tiny,
	// so anything larger is garbage on the port.
	meshJoinMaxFrame = 4096
	// meshDialBackoffBase/Cap pace the startup dialers: a peer that is
	// not up yet is re-dialed on a doubling schedule until it answers or
	// the transport closes. After the first success, redials are the
	// health prober's job.
	meshDialBackoffBase = 100 * time.Millisecond
	meshDialBackoffCap  = 2 * time.Second
)

// meshState is the membership side of a tcpTransport.
type meshState struct {
	// info is the self hello: node id, cluster size, epoch, strategy,
	// transport. Sent verbatim (flags aside) on every dial and ack.
	info JoinInfo
	// peerEpoch[i] is the highest epoch accepted from node i; a join or
	// frame below it is from a previous life of i.
	peerEpoch []atomic.Uint64
	// staleDrops counts frames dropped by the epoch filter — the
	// "zero stale-epoch serves" evidence.
	staleDrops atomic.Int64
}

// epochTransport is the membership observability surface of a
// transport: the epochs it runs under and the stale frames it refused.
type epochTransport interface {
	SelfEpoch() uint64
	PeerEpoch(id int) uint64
	StaleEpochDrops() int64
}

// newMeshTCPTransport builds one node's side of the mesh. ln is this
// node's intra-cluster listener; peerAddrs[i] is node i's listen address
// (peerAddrs[info.Node] is our own) — the caller has checked that info
// and peerAddrs agree on the cluster. No connection exists at return:
// startup dialers run in the background with a doubling backoff until
// each peer answers, and peers dial us symmetrically, so whichever side
// comes up last completes the pair. names interns received file names;
// account is the node's account registry.
func newMeshTCPTransport(ln net.Listener, info JoinInfo, peerAddrs []string, names nameTable,
	account *metrics.Registry, trc *tracing.Collector) *tcpTransport {
	if info.Epoch == 0 {
		info.Epoch = newEpoch()
	}
	info.Proto = joinProtoVersion
	info.Ack, info.OK, info.Reason = false, false, ""
	t := &tcpTransport{
		self:      info.Node,
		nodes:     info.Nodes,
		peerAddrs: append([]string(nil), peerAddrs...),
		peers:     make([]*tcpPeer, info.Nodes),
		inbound:   make(chan Message, 1024),
		names:     names,
		done:      make(chan struct{}),
		ln:        ln,
		ins:       newTransportInstruments(account, info.Node),
		trc:       trc,
		meshState: meshState{
			info:      info,
			peerEpoch: make([]atomic.Uint64, info.Nodes),
		},
		unseated: info.Nodes - 1,
		seated:   make(chan struct{}),
	}
	if t.unseated == 0 {
		close(t.seated)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for j := 0; j < info.Nodes; j++ {
		if j == info.Node {
			continue
		}
		t.wg.Add(1)
		go t.meshDialLoop(j)
	}
	return t
}

func (t *tcpTransport) SelfEpoch() uint64 { return t.info.Epoch }

func (t *tcpTransport) PeerEpoch(id int) uint64 {
	if id < 0 || id >= t.nodes {
		return 0
	}
	return t.peerEpoch[id].Load()
}

func (t *tcpTransport) StaleEpochDrops() int64 { return t.staleDrops.Load() }

// awaitSeated blocks until every peer has had a connection installed.
// Start binds every listener before the first dial, so one dial and
// both handshake halves bound the wait unless a handshake is wedged.
func (t *tcpTransport) awaitSeated() error {
	const timeout = meshDialTimeout + 2*meshHelloTimeout
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-t.seated:
		return nil
	case <-timer.C:
		return fmt.Errorf("server: node %d: mesh not seated within %v", t.self, timeout)
	}
}

// casMax raises a to at least v.
func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// writeJoinFrame sends one MsgJoin handshake frame under a deadline.
func writeJoinFrame(conn net.Conn, from int, j *JoinInfo) error {
	payload, err := encodeJoinInfo(j, nil)
	if err != nil {
		return err
	}
	frame, err := appendFrame(nil, &Message{Type: core.MsgJoin, From: from, Data: payload})
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(meshHelloTimeout))
	_, err = conn.Write(frame)
	conn.SetWriteDeadline(time.Time{})
	return err
}

// readJoinFrame reads one MsgJoin handshake frame under a deadline.
func readJoinFrame(conn net.Conn) (*JoinInfo, error) {
	conn.SetReadDeadline(time.Now().Add(meshHelloTimeout))
	defer conn.SetReadDeadline(time.Time{})
	var hdr [4]byte
	var m Message
	if err := nameTable(nil).readFrame(conn, &hdr, meshJoinMaxFrame, &m); err != nil {
		return nil, err
	}
	if m.Type != core.MsgJoin {
		return nil, fmt.Errorf("server: expected join frame, got %v", m.Type)
	}
	return decodeJoinInfo(m.Data)
}

// notifyJoin surfaces a completed handshake to the node as a synthetic
// inbound MsgJoin (wire handshake frames themselves never leave the
// transport). The node treats it as proof of life — a restarted peer
// reintegrates and gets its directory replayed immediately instead of
// after its first data frame.
func (t *tcpTransport) notifyJoin(peer int, j *JoinInfo) {
	payload, err := encodeJoinInfo(j, nil)
	if err != nil {
		return
	}
	m := Message{Type: core.MsgJoin, From: peer, Data: payload}
	t.inboundMu.RLock()
	defer t.inboundMu.RUnlock()
	if t.inClosed {
		return
	}
	//presslint:ignore mutex-across-block bounded: Close closes t.done before taking the write lock, so the select always exits
	select {
	case t.inbound <- m:
	case <-t.done:
	}
}

// dialJoin opens a connection to dst with the full join handshake:
// send our hello, read the ack, install the connection under the
// acceptor's epoch. Called by Reconnect (health probes) and the
// startup dialers; a refused join surfaces as *JoinRejectedError.
func (t *tcpTransport) dialJoin(dst int) error {
	select {
	case <-t.done:
		return fmt.Errorf("server: transport closed")
	default:
	}
	conn, err := net.DialTimeout("tcp", t.peerAddrs[dst], meshDialTimeout)
	if err != nil {
		return err
	}
	// TCP self-connect: dialing a not-yet-bound loopback port in the
	// ephemeral range can simultaneous-open onto itself (local addr ==
	// remote addr). The phantom connection would wedge the handshake
	// AND hold the peer's listen port hostage (its bind then fails
	// with EADDRINUSE), so drop it immediately and let backoff retry.
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		conn.Close()
		return fmt.Errorf("server: self-connect dialing node %d at %s", dst, t.peerAddrs[dst])
	}
	hello := t.info
	if err := writeJoinFrame(conn, t.self, &hello); err != nil {
		conn.Close()
		return err
	}
	ack, err := readJoinFrame(conn)
	if err != nil {
		conn.Close()
		return err
	}
	if !ack.Ack {
		conn.Close()
		return fmt.Errorf("server: node %d answered the join with a hello", dst)
	}
	if !ack.OK {
		conn.Close()
		return &JoinRejectedError{Reason: ack.Reason}
	}
	if ack.Node != dst {
		conn.Close()
		return fmt.Errorf("server: dialed node %d, answered by %d", dst, ack.Node)
	}
	casMax(&t.peerEpoch[dst], ack.Epoch)
	p := &tcpPeer{conn: conn, id: dst, epoch: ack.Epoch}
	if !t.setPeer(dst, p) {
		// setPeer closed the conn: transport closing, or a newer epoch
		// of dst seated itself first — either way this dial lost.
		return fmt.Errorf("server: connection to node %d superseded", dst)
	}
	t.notifyJoin(dst, ack)
	return nil
}

// meshAccept runs the acceptor half of the join handshake on one
// freshly accepted connection: read the hello, validate it against our
// own configuration and the peer's epoch history, then ack and install
// or reject with a typed reason and close.
func (t *tcpTransport) meshAccept(conn net.Conn) {
	defer t.wg.Done()
	hello, err := readJoinFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	reject := func(reason string) {
		nack := t.info
		nack.Ack, nack.OK, nack.Reason = true, false, reason
		writeJoinFrame(conn, t.self, &nack)
		conn.Close()
	}
	switch {
	case hello.Ack:
		conn.Close()
		return
	case hello.Node < 0 || hello.Node >= t.nodes || hello.Node == t.self:
		reject(joinRejectBadNode)
		return
	case hello.Nodes != t.nodes:
		reject(joinRejectClusterSize)
		return
	case hello.Strategy != t.info.Strategy:
		reject(joinRejectStrategy)
		return
	case hello.Epoch < t.peerEpoch[hello.Node].Load():
		reject(joinRejectStaleEpoch)
		return
	}
	// Record the epoch, then ack: whoever has read the ack may rely on
	// PeerEpoch, and a dialer of an older life is refused from here on.
	casMax(&t.peerEpoch[hello.Node], hello.Epoch)
	ack := t.info
	ack.Ack, ack.OK = true, true
	if err := writeJoinFrame(conn, t.self, &ack); err != nil {
		conn.Close()
		return
	}
	p := &tcpPeer{conn: conn, id: hello.Node, epoch: hello.Epoch}
	if t.setPeer(hello.Node, p) { // else setPeer closed the conn
		t.notifyJoin(hello.Node, hello)
	}
}

// meshDialLoop brings up the initial connection to dst: re-dial on a
// doubling backoff until a connection exists (ours or one dst dialed
// to us), the transport closes, or dst tells us our epoch is stale —
// a newer life of this node id is running, so this process must not
// fight it. The higher-indexed side of each pair defers briefly so
// one dial usually wins outright; epoch supersession absorbs the rest.
func (t *tcpTransport) meshDialLoop(dst int) {
	defer t.wg.Done()
	rng := rand.New(rand.NewSource(int64(t.self)<<16 | int64(dst)))
	var wait time.Duration
	if t.self > dst {
		wait = meshDialBackoffBase + time.Duration(rng.Int63n(int64(meshDialBackoffBase)))
	}
	step := meshDialBackoffBase
	var pause sleeper
	for {
		if wait > 0 && !pause.sleep(wait, t.done) {
			return
		}
		if p := t.peer(dst); p != nil && p.down() == nil {
			return
		}
		err := t.dialJoin(dst)
		if err == nil {
			return
		}
		var jr *JoinRejectedError
		if errors.As(err, &jr) && jr.Reason == joinRejectStaleEpoch {
			return // we are the previous life; stop dialing
		}
		half := step / 2
		wait = half + time.Duration(rng.Int63n(int64(half)+1))
		step *= 2
		if step > meshDialBackoffCap {
			step = meshDialBackoffCap
		}
	}
}
