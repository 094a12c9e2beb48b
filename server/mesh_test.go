package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"press/core"
	"press/metrics"
	"press/telemetry"
)

// The mesh transport tests run real handshakes over loopback sockets:
// two newMeshTCPTransport instances pair up exactly as two pressd
// processes would, and raw-socket dials probe the acceptor's rejection
// paths deterministically.

const meshTestStrategy = "PB"

func meshListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln := meshListener(t)
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func startMesh(t *testing.T, ln net.Listener, node, nodes int, epoch uint64, peerAddrs []string) *tcpTransport {
	t.Helper()
	return startMeshAs(t, ln, JoinInfo{Node: node, Nodes: nodes, Epoch: epoch, Strategy: meshTestStrategy}, peerAddrs)
}

func startMeshAs(t *testing.T, ln net.Listener, info JoinInfo, peerAddrs []string) *tcpTransport {
	t.Helper()
	info.Transport = "tcp"
	tr := newMeshTCPTransport(ln, info, peerAddrs, nil, nil, nil)
	t.Cleanup(func() { tr.Close() })
	if err := tr.connect(false); err != nil {
		t.Fatal(err)
	}
	return tr
}

// waitMeshLive waits until tr holds a live connection to dst, nudging
// Reconnect the way the health prober would if a symmetric-dial race
// retired both initial connections.
func waitMeshLive(t *testing.T, tr *tcpTransport, dst int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	nudge := time.Now().Add(500 * time.Millisecond)
	for {
		if p := tr.peer(dst); p != nil && p.down() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live connection to node %d within %v", dst, timeout)
		}
		if time.Now().After(nudge) {
			_ = tr.Reconnect(dst)
			nudge = time.Now().Add(500 * time.Millisecond)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recvType reads inbound until a message of the wanted type arrives,
// skipping the synthetic MsgJoin notifications the handshake raises.
func recvType(t *testing.T, tr *tcpTransport, want core.MsgType, timeout time.Duration) Message {
	t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case m := <-tr.Inbound():
			if m.Type == want {
				return m
			}
		case <-deadline.C:
			t.Fatalf("no %v message within %v", want, timeout)
		}
	}
}

// TestMeshHandshake pairs two mesh transports over real sockets and
// checks the epochs land on both sides and data flows both ways.
func TestMeshHandshake(t *testing.T) {
	lnA, lnB := meshListener(t), meshListener(t)
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a := startMesh(t, lnA, 0, 2, 100, addrs)
	b := startMesh(t, lnB, 1, 2, 200, addrs)

	waitMeshLive(t, a, 1, 5*time.Second)
	waitMeshLive(t, b, 0, 5*time.Second)

	if got := a.SelfEpoch(); got != 100 {
		t.Fatalf("a.SelfEpoch() = %d, want 100", got)
	}
	if got := a.PeerEpoch(1); got != 200 {
		t.Fatalf("a.PeerEpoch(1) = %d, want 200", got)
	}
	if got := b.PeerEpoch(0); got != 100 {
		t.Fatalf("b.PeerEpoch(0) = %d, want 100", got)
	}

	if err := a.Send(1, &Message{Type: core.MsgLoad, From: 0, Load: 7}); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, b, core.MsgLoad, 5*time.Second); m.From != 0 || m.Load != 7 {
		t.Fatalf("b received %+v", m)
	}
	if err := b.Send(0, &Message{Type: core.MsgLoad, From: 1, Load: 9}); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, a, core.MsgLoad, 5*time.Second); m.From != 1 || m.Load != 9 {
		t.Fatalf("a received %+v", m)
	}
	if d := a.StaleEpochDrops() + b.StaleEpochDrops(); d != 0 {
		t.Fatalf("healthy pair dropped %d frames as stale", d)
	}
}

// TestMeshLateJoin starts one side long after the other: the early
// node's one startup dial finds nobody, and a Reconnect — the health
// prober's, nudged here by waitMeshLive — must carry it across the gap.
func TestMeshLateJoin(t *testing.T) {
	lnA, lnB := meshListener(t), meshListener(t)
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a := startMesh(t, lnA, 0, 2, 100, addrs)

	time.Sleep(700 * time.Millisecond) // the startup dial has long failed
	b := startMesh(t, lnB, 1, 2, 200, addrs)

	waitMeshLive(t, a, 1, 10*time.Second)
	waitMeshLive(t, b, 0, 10*time.Second)
	if err := a.Send(1, &Message{Type: core.MsgLoad, From: 0, Load: 3}); err != nil {
		t.Fatal(err)
	}
	if m := recvType(t, b, core.MsgLoad, 5*time.Second); m.Load != 3 {
		t.Fatalf("late joiner received %+v", m)
	}
}

// rawJoin dials addr and plays one handshake frame by hand, returning
// the acceptor's answer. The conn is left open on success so the
// installed peer entry stays live for follow-up probes.
func rawJoin(t *testing.T, addr string, hello *JoinInfo) (*JoinInfo, net.Conn, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJoinFrame(conn, hello.Node, hello); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	ack, err := readJoinFrame(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return ack, conn, nil
}

// prefixedConn reads r (bytes already taken off the conn, then the conn).
type prefixedConn struct {
	net.Conn
	r io.Reader
}

func (c prefixedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestMeshAckFollowsEpoch: the acceptor records the joiner's epoch
// before it acks, so whoever has read the ack may rely on PeerEpoch. On
// a synchronous pipe the acceptor stays parked inside its ack write
// until the whole frame is read; after the first byte the epoch must
// already be there.
func TestMeshAckFollowsEpoch(t *testing.T) {
	ln := meshListener(t)
	tr := startMesh(t, ln, 0, 2, 500, []string{ln.Addr().String(), deadAddr(t)})
	client, srv := net.Pipe()
	defer client.Close()
	tr.wg.Add(1)
	go tr.meshAccept(srv)

	hello := &JoinInfo{Node: 1, Nodes: 2, Epoch: 200, Strategy: meshTestStrategy, Transport: "tcp"}
	if err := writeJoinFrame(client, hello.Node, hello); err != nil {
		t.Fatal(err)
	}
	var first [1]byte
	if _, err := io.ReadFull(client, first[:]); err != nil {
		t.Fatal(err)
	}
	if got := tr.PeerEpoch(1); got != 200 {
		t.Errorf("PeerEpoch(1) = %d while the ack is on the wire, want 200", got)
	}
	ack, err := readJoinFrame(prefixedConn{client, io.MultiReader(bytes.NewReader(first[:]), client)})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Ack || !ack.OK {
		t.Fatalf("join acked %+v", ack)
	}
}

// TestMeshCloseHangsUpSilentDialer: Close ends every handshake still
// running instead of waiting out meshHelloTimeout. Node 0 dials a peer
// whose listener never answers, and a connection that sends nothing sits
// in the acceptor half; Close must return promptly all the same.
func TestMeshCloseHangsUpSilentDialer(t *testing.T) {
	ln, silent := meshListener(t), meshListener(t)
	defer silent.Close()
	tr := startMesh(t, ln, 0, 2, 500, []string{ln.Addr().String(), silent.Addr().String()})
	client, srv := net.Pipe()
	defer client.Close()
	tr.wg.Add(1)
	go tr.meshAccept(srv)

	start := time.Now()
	tr.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with silent handshakes open, want under 1s", d)
	}
	if _, err := client.Write([]byte{0}); err == nil {
		t.Fatal("the silent dialer's connection is still open after Close")
	}
}

// TestMeshAcceptRejections drives every typed rejection of the accept
// path with hand-built hellos on raw sockets.
func TestMeshAcceptRejections(t *testing.T) {
	ln := meshListener(t)
	addrs := []string{ln.Addr().String(), deadAddr(t)}
	tr := startMesh(t, ln, 0, 2, 500, addrs)
	addr := addrs[0]

	// A well-formed join seats node 1 at epoch 200.
	ack, conn, err := rawJoin(t, addr, &JoinInfo{Node: 1, Nodes: 2, Epoch: 200, Strategy: meshTestStrategy, Transport: "tcp"})
	if err != nil {
		t.Fatalf("valid join: %v", err)
	}
	defer conn.Close()
	if !ack.Ack || !ack.OK || ack.Node != 0 || ack.Epoch != 500 {
		t.Fatalf("valid join acked %+v", ack)
	}
	if got := tr.PeerEpoch(1); got != 200 {
		t.Fatalf("PeerEpoch(1) = %d after join, want 200", got)
	}

	expectReject := func(hello *JoinInfo, reason string) {
		t.Helper()
		ack, c, err := rawJoin(t, addr, hello)
		if err != nil {
			t.Fatalf("join for %s rejection: %v", reason, err)
		}
		c.Close()
		if !ack.Ack || ack.OK || ack.Reason != reason {
			t.Fatalf("want rejection %q, got %+v", reason, ack)
		}
	}
	// The previous life of node 1 dials back in: refused as stale.
	expectReject(&JoinInfo{Node: 1, Nodes: 2, Epoch: 100, Strategy: meshTestStrategy}, joinRejectStaleEpoch)
	// A node configured with a different dissemination strategy.
	expectReject(&JoinInfo{Node: 1, Nodes: 2, Epoch: 300, Strategy: "GG"}, joinRejectStrategy)
	// A node that thinks the cluster is a different size.
	expectReject(&JoinInfo{Node: 1, Nodes: 3, Epoch: 300, Strategy: meshTestStrategy}, joinRejectClusterSize)
	// A peer claiming our own id, and one past the end of the cluster.
	expectReject(&JoinInfo{Node: 0, Nodes: 2, Epoch: 300, Strategy: meshTestStrategy}, joinRejectBadNode)

	// An ack where a hello belongs is a protocol violation: the acceptor
	// hangs up without answering.
	if _, _, err := rawJoin(t, addr, &JoinInfo{Node: 1, Nodes: 2, Epoch: 300, Strategy: meshTestStrategy, Ack: true}); err == nil {
		t.Fatal("ack-flagged hello was answered, want close")
	}
	// A hello from a future protocol version fails to decode: hung up on.
	if _, _, err := rawJoin(t, addr, &JoinInfo{Proto: 99, Node: 1, Nodes: 2, Epoch: 300, Strategy: meshTestStrategy}); err == nil {
		t.Fatal("future-proto hello was answered, want close")
	}

	// The legitimate current life still joins fine after all the abuse.
	ack2, conn2, err := rawJoin(t, addr, &JoinInfo{Node: 1, Nodes: 2, Epoch: 400, Strategy: meshTestStrategy})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if !ack2.OK {
		t.Fatalf("epoch-400 rejoin refused: %+v", ack2)
	}
	if got := tr.PeerEpoch(1); got != 400 {
		t.Fatalf("PeerEpoch(1) = %d after rejoin, want 400", got)
	}

	// The same acceptor guards the nodes of a running in-process cluster:
	// impostors of node 1 — a previous life, a misconfigured build — dial
	// node 0 and are refused with the typed reason, and the cluster does
	// not notice.
	t.Run("running cluster", func(t *testing.T) {
		files := serverTestTrace(t, 8)
		cl, err := Start(testClusterConfig(files, TransportTCP))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		node0 := cl.procs[0].transport.(*tcpTransport)
		seated := node0.PeerEpoch(1)
		peerAddrs := cl.procs[0].cfg.Mesh.PeerAddrs
		strategy := cl.cfg.Dissemination.String()

		for _, tc := range []struct {
			hello  JoinInfo
			reason string
		}{
			{JoinInfo{Node: 1, Nodes: cl.cfg.Nodes, Epoch: seated - 1, Strategy: strategy}, joinRejectStaleEpoch},
			{JoinInfo{Node: 1, Nodes: cl.cfg.Nodes, Epoch: seated + 1, Strategy: strategy + "x"}, joinRejectStrategy},
		} {
			impostor := startMeshAs(t, meshListener(t), tc.hello, peerAddrs)
			err := impostor.Reconnect(0)
			var jr *JoinRejectedError
			if !errors.As(err, &jr) || jr.Reason != tc.reason {
				t.Fatalf("impostor dial returned %v, want JoinRejectedError(%s)", err, tc.reason)
			}
			impostor.Close()
		}

		if got := node0.PeerEpoch(1); got != seated {
			t.Fatalf("PeerEpoch(1) moved from %d to %d under rejected joins", seated, got)
		}
		for i := range cl.procs {
			for _, f := range files.Files {
				got, err := Fetch(cl.URL(i), f.Name)
				if err != nil {
					t.Fatalf("%s via node %d after rejected joins: %v", f.Name, i, err)
				}
				if !bytes.Equal(got, SynthesizeContent(f.Name, f.Size)) {
					t.Fatalf("%s via node %d: content mismatch", f.Name, i)
				}
			}
		}
		for i, pn := range cl.procs {
			if d := pn.transport.(*tcpTransport).StaleEpochDrops(); d != 0 {
				t.Fatalf("node %d dropped %d frames as stale", i, d)
			}
		}
	})
}

// TestMeshDialRejectedTyped checks the dialer side surfaces a refused
// join as *JoinRejectedError with the acceptor's reason code.
func TestMeshDialRejectedTyped(t *testing.T) {
	lnA := meshListener(t)
	addrs := []string{lnA.Addr().String(), deadAddr(t)}
	startMesh(t, lnA, 0, 2, 500, addrs)

	// Seat node 1 at epoch 300, then start a transport claiming to be
	// node 1's earlier life at epoch 200.
	_, conn, err := rawJoin(t, addrs[0], &JoinInfo{Node: 1, Nodes: 2, Epoch: 300, Strategy: meshTestStrategy})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	lnB := meshListener(t)
	stale := startMesh(t, lnB, 1, 2, 200, []string{addrs[0], lnB.Addr().String()})
	err = stale.Reconnect(0)
	var jr *JoinRejectedError
	if !errors.As(err, &jr) || jr.Reason != joinRejectStaleEpoch {
		t.Fatalf("stale dial returned %v, want JoinRejectedError(stale-epoch)", err)
	}
}

// TestMeshCloseReconnectRace races Close against a winning redial: the
// audit case where the redial's setPeer must not resurrect a peer entry
// in a closed transport or leak its connection. Run under -race.
func TestMeshCloseReconnectRace(t *testing.T) {
	for i := 0; i < 12; i++ {
		lnA, lnB := meshListener(t), meshListener(t)
		addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
		a := startMesh(t, lnA, 0, 2, 100, addrs)
		b := startMesh(t, lnB, 1, 2, 200, addrs)
		waitMeshLive(t, a, 1, 5*time.Second)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.Close()
		}()
		go func() {
			defer wg.Done()
			_ = a.Reconnect(1)
		}()
		wg.Wait()

		if err := a.Send(1, &Message{Type: core.MsgLoad, From: 0}); err == nil {
			t.Fatal("send succeeded on a closed transport")
		}
		// Whichever side won the race, the installed connection must be
		// closed: a winning redial's conn is either snapshotted by Close
		// or refused (and closed) by setPeer's closed check.
		if p := a.peer(1); p != nil {
			if _, err := p.conn.Write([]byte{0}); err == nil {
				t.Fatal("redial left a live connection in a closed transport")
			}
		}
		b.Close()
	}
}

// TestMeshSymmetricPeerDown kills one live pair of an in-process TCP
// cluster from both ends at once. Both health probers then re-dial —
// either side may — and whatever their dials do to each other, the pair
// must settle on one connection both ends agree on, both verdicts must
// return to alive, and the cluster must serve as if nothing happened.
// Run under -race.
func TestMeshSymmetricPeerDown(t *testing.T) {
	files := serverTestTrace(t, 12)
	cfg := testClusterConfig(files, TransportTCP)
	cfg.Health = chaosHealth()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, files, 1, 5)

	const a, b = 0, 1
	ta := cl.procs[a].transport.(*tcpTransport)
	tb := cl.procs[b].transport.(*tcpTransport)
	before := ta.peer(b)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ta.PeerDown(b, errors.New("test: both ends at once"))
	}()
	go func() {
		defer wg.Done()
		tb.PeerDown(a, errors.New("test: both ends at once"))
	}()
	wg.Wait()

	waitFor(t, 20*time.Second, "the pair to converge on one connection", func() bool {
		pa, pb := ta.peer(b), tb.peer(a)
		return pa != before && pa.down() == nil && pb.down() == nil &&
			pa.conn.LocalAddr().String() == pb.conn.RemoteAddr().String() &&
			pa.conn.RemoteAddr().String() == pb.conn.LocalAddr().String() &&
			cl.procs[a].node.PeerState(b) == StateAlive &&
			cl.procs[b].node.PeerState(a) == StateAlive
	})
	fetchAll(t, cl, files, 2, 6)
	if d := ta.StaleEpochDrops() + tb.StaleEpochDrops(); d != 0 {
		t.Fatalf("%d frames dropped as stale across a same-epoch reconnect", d)
	}
}

// TestMeshSendAcrossRedial parks a send inside a connection's Write —
// the receiver never drains, so its inbound queue and then the socket
// buffers fill — and seats a replacement connection underneath it, as a
// completed re-dial does. A reconnect proves the peer alive: the old
// connection must fail as superseded (not a hard error), and
// the parked send must bounce to the fresh connection and succeed. (The
// replacement is seated by hand so that this side retires the old
// connection first; when the far side's close wins that race the send
// sees a bare socket error, which is suspicion, not death, either way.)
func TestMeshSendAcrossRedial(t *testing.T) {
	lnA, lnB := meshListener(t), meshListener(t)
	addrs := []string{lnA.Addr().String(), lnB.Addr().String()}
	a := startMesh(t, lnA, 0, 2, 100, addrs)
	b := startMesh(t, lnB, 1, 2, 200, addrs)
	waitMeshLive(t, a, 1, 5*time.Second)
	waitMeshLive(t, b, 0, 5*time.Second)
	old := a.peer(1)

	var sent atomic.Int64
	result := make(chan error, 1)
	go func() {
		m := &Message{Type: core.MsgFile, From: 0, Data: make([]byte, 32<<10), Total: 32 << 10}
		for a.peer(1) == old { // one more send lands on the replacement
			if err := a.Send(1, m); err != nil {
				result <- err
				return
			}
			sent.Add(1)
		}
		result <- nil
	}()
	waitQuiet(t, "the sender to park in Write", sent.Load)

	// The replacement: a loopback connection whose far end just drains.
	sink := meshListener(t)
	defer sink.Close()
	go func() {
		if c, err := sink.Accept(); err == nil {
			io.Copy(io.Discard, c)
			c.Close()
		}
	}()
	conn, err := net.Dial("tcp", sink.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if !a.setPeer(1, &tcpPeer{conn: conn, id: 1, epoch: old.epoch}) {
		t.Fatal("replacement connection refused")
	}

	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("send across the re-dial failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the parked send never completed on the fresh connection")
	}
	if err := old.down(); !errors.Is(err, errSuperseded) || hardSendErr(err) {
		t.Fatalf("replaced connection failed with %v, want errSuperseded, which is not hard", err)
	}
}

// TestMeshSupersedeIsNotDeath forces re-dials of live pairs while a
// closed-loop drive keeps forwards and file replies riding them. A peer
// that has just reconnected has proven it is alive: whatever the sends
// in flight ran into, nobody may declare it dead or purge its directory
// entries, and every request is answered. Run under -race.
func TestMeshSupersedeIsNotDeath(t *testing.T) {
	files := serverTestTrace(t, 12)
	cfg := testClusterConfig(files, TransportTCP)
	cfg.Health = chaosHealth()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	plane := telemetry.New(telemetry.Config{Registry: reg})
	cfg.Telemetry = plane
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, files, 1, 7)

	var names []string
	for _, f := range files.Files {
		names = append(names, f.Name)
	}
	drv := startDrive(cl, []int{0, 1, 2}, names, 6)
	ta := cl.procs[0].transport.(*tcpTransport)
	for round := 0; round < 20; round++ {
		for b := 1; b < cfg.Nodes; b++ {
			if err := ta.Reconnect(b); err != nil {
				t.Fatalf("forced re-dial of node %d: %v", b, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ok, errs := drv.stop(); errs > 0 || ok == 0 {
		t.Errorf("drive across the re-dials: %d ok, %d failed", ok, errs)
	}

	for _, ev := range plane.Events() {
		if ev.Type == telemetry.EvPeerDead {
			t.Errorf("node %d declared node %d dead (%s) across a reconnect", ev.Node, ev.Peer, ev.Detail)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		if p := reg.Counter("press_dir_purged_total", fmt.Sprintf("node=%d", i)).Value(); p != 0 {
			t.Errorf("node %d purged %d directory entries across a reconnect", i, p)
		}
	}
}
