package server

import (
	"context"
	"fmt"
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
// and peerAddrs agree on the cluster. No connection exists and no
// goroutine runs at return: connect brings the mesh up. names interns
// received file names; account is the node's account registry.
func newMeshTCPTransport(ln net.Listener, info JoinInfo, peerAddrs []string, names nameTable,
	account *metrics.Registry, trc *tracing.Collector) *tcpTransport {
	if info.Epoch == 0 {
		info.Epoch = newEpoch()
	}
	info.Proto = joinProtoVersion
	info.Ack, info.OK, info.Reason = false, false, ""
	ctx, cancel := context.WithCancel(context.Background())
	return &tcpTransport{
		self:      info.Node,
		nodes:     info.Nodes,
		peerAddrs: append([]string(nil), peerAddrs...),
		peers:     make([]*tcpPeer, info.Nodes),
		inbound:   make(chan Message, 1024),
		names:     names,
		ctx:       ctx,
		cancel:    cancel,
		ln:        ln,
		ins:       newTransportInstruments(account, info.Node),
		trc:       trc,
		meshState: meshState{
			info:      info,
			peerEpoch: make([]atomic.Uint64, info.Nodes),
		},
	}
}

// connect brings this node's side of the mesh up the way the VIA
// transport does: lower-indexed peers dial in through the accept loop,
// and this node dials each higher-indexed one once with dialJoin. With
// await it returns the first dial error, or nil once every dialed
// connection is acked; an acceptor installs its connection before it
// writes the ack, so by then the pair is in both peer tables. Without
// await the dials run in the background, and a peer that is not up yet
// is found by the health prober, as after a crash.
func (t *tcpTransport) connect(await bool) error {
	t.wg.Add(1)
	go t.acceptLoop()
	errc := make(chan error, t.nodes)
	for j := t.self + 1; j < t.nodes; j++ {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			errc <- t.dialJoin(j)
		}()
	}
	for j := t.self + 1; await && j < t.nodes; j++ {
		if err := <-errc; err != nil {
			return err
		}
	}
	return nil
}

func (t *tcpTransport) SelfEpoch() uint64 { return t.info.Epoch }

func (t *tcpTransport) PeerEpoch(id int) uint64 {
	if id < 0 || id >= t.nodes {
		return 0
	}
	return t.peerEpoch[id].Load()
}

func (t *tcpTransport) StaleEpochDrops() int64 { return t.staleDrops.Load() }

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
	select {
	case t.inbound <- Message{Type: core.MsgJoin, From: peer, Data: payload}:
	case <-t.ctx.Done():
	}
}

// dialJoin opens a connection to dst with the full join handshake:
// send our hello, read the ack, install the connection under the
// acceptor's epoch. Called by connect, once per higher-indexed peer, and
// by Reconnect (health probes); a refused join surfaces as
// *JoinRejectedError. Close hangs up a dial still in its handshake.
func (t *tcpTransport) dialJoin(dst int) error {
	d := net.Dialer{Timeout: meshDialTimeout}
	conn, err := d.DialContext(t.ctx, "tcp", t.peerAddrs[dst])
	if err != nil {
		return err
	}
	stop := context.AfterFunc(t.ctx, func() { conn.Close() })
	defer stop()
	// TCP self-connect: dialing a not-yet-bound loopback port in the
	// ephemeral range can simultaneous-open onto itself (local addr ==
	// remote addr). The phantom connection would wedge the handshake
	// AND hold the peer's listen port hostage (its bind then fails
	// with EADDRINUSE), so drop it immediately; the prober dials again.
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
// own configuration and the peer's epoch history, then install and ack,
// or reject with a typed reason and close. Close hangs up a dialer that
// is still in the handshake.
func (t *tcpTransport) meshAccept(conn net.Conn) {
	defer t.wg.Done()
	stop := context.AfterFunc(t.ctx, func() { conn.Close() })
	defer stop()
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
	// Record the epoch, install the connection, then ack: whoever has
	// read the ack may rely on PeerEpoch and on the pair being in both
	// peer tables, and a dialer of an older life is refused from here
	// on. The peer's write lock is held from the install until the ack
	// is out, so the ack is the connection's first frame.
	casMax(&t.peerEpoch[hello.Node], hello.Epoch)
	p := &tcpPeer{conn: conn, id: hello.Node, epoch: hello.Epoch}
	p.mu.Lock()
	if !t.setPeer(hello.Node, p) { // setPeer closed the conn
		p.mu.Unlock()
		return
	}
	ack := t.info
	ack.Ack, ack.OK = true, true
	err = writeJoinFrame(conn, t.self, &ack)
	p.mu.Unlock()
	if err != nil {
		p.markDown(err)
		return
	}
	t.notifyJoin(hello.Node, hello)
}
