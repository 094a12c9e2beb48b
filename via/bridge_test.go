package via

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// bridgedPair builds two single-NIC fabrics in this process, joined by
// two bridges over real loopback sockets — the exact topology two
// pressd processes form, minus the fork.
type bridgedPair struct {
	fa, fb *Fabric
	na, nb *NIC
	ba, bb *Bridge
}

func newBridgedPair(t *testing.T) *bridgedPair {
	t.Helper()
	p := newBridges(t)
	// Each side proxies the other, exposing the service its real
	// listener runs under.
	if err := p.ba.Proxy("nodeB", p.bb.Addr(), "svc"); err != nil {
		t.Fatal(err)
	}
	if err := p.bb.Proxy("nodeA", p.ba.Addr(), "svc"); err != nil {
		t.Fatal(err)
	}
	return p
}

// newBridges is newBridgedPair before either side has been told about
// the other: two fabrics, a NIC and a bridge on each, no proxies.
func newBridges(t *testing.T) *bridgedPair {
	t.Helper()
	p := &bridgedPair{fa: NewFabric(), fb: NewFabric()}
	t.Cleanup(func() {
		p.ba.Close()
		p.bb.Close()
		p.fa.Close()
		p.fb.Close()
	})
	var err error
	if p.na, err = p.fa.CreateNIC("nodeA"); err != nil {
		t.Fatal(err)
	}
	if p.nb, err = p.fb.CreateNIC("nodeB"); err != nil {
		t.Fatal(err)
	}
	if p.ba, err = NewBridge(p.fa, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if p.bb, err = NewBridge(p.fb, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return p
}

// connect dials nodeA -> nodeB across the bridge and returns the bound
// pair (va in process A, vb in process B).
func (p *bridgedPair) connect(t *testing.T) (*VI, *VI) {
	t.Helper()
	ln, err := p.nb.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	vb, err := p.nb.CreateVI(ReliableDelivery, 16)
	if err != nil {
		t.Fatal(err)
	}
	va, err := p.na.CreateVI(ReliableDelivery, 16)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		acceptErr <- err
	}()
	if err := va.Connect("nodeB", "svc"); err != nil {
		t.Fatal(err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
	return va, vb
}

func TestBridgeSendReceive(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)

	for i := 0; i < 8; i++ {
		msg := []byte(fmt.Sprintf("cross-process message %d", i))
		rbuf := make([]byte, 64)
		rreg, err := p.nb.RegisterMemory(rbuf)
		if err != nil {
			t.Fatal(err)
		}
		rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: len(rbuf)})
		if err := vb.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		sreg, err := p.na.RegisterMemory(append([]byte(nil), msg...))
		if err != nil {
			t.Fatal(err)
		}
		sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: len(msg)})
		if err := va.PostSend(sd); err != nil {
			t.Fatal(err)
		}
		if err := sd.Wait(testTimeout); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := vb.RecvWait(testTimeout); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got := make([]byte, rd.Transferred())
		if err := rreg.Read(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d: got %q, want %q", i, got, msg)
		}
	}
}

func TestBridgeBidirectional(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)

	// B -> A over the same channel: replies and credits flow backward.
	rbuf := make([]byte, 32)
	rreg, _ := p.na.RegisterMemory(rbuf)
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: len(rbuf)})
	if err := va.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	sreg, _ := p.nb.RegisterMemory([]byte("reply"))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 5})
	if err := vb.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := va.RecvWait(testTimeout); err != nil {
		t.Fatalf("recv: %v", err)
	}
	got := make([]byte, rd.Transferred())
	_ = rreg.Read(got, 0)
	if string(got) != "reply" {
		t.Fatalf("got %q", got)
	}
}

func TestBridgeRDMAWrite(t *testing.T) {
	p := newBridgedPair(t)
	va, _ := p.connect(t)

	// Register a remote-writable region in process B; its handle would
	// normally reach A through a setup message.
	dst := make([]byte, 256*1024)
	dreg, err := p.nb.RegisterMemory(dst)
	if err != nil {
		t.Fatal(err)
	}
	dreg.EnableRemoteWrite()

	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	sreg, err := p.na.RegisterMemory(append([]byte(nil), payload...))
	if err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: len(payload)})
	if err := va.PostRDMAWrite(sd, dreg.Handle(), 4096); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatalf("rdma: %v", err)
	}
	// RDMA consumes no receive descriptor and raises no completion at
	// the target; poll the memory like the RMW load protocol does.
	deadline := time.Now().Add(testTimeout)
	got := make([]byte, len(payload))
	for {
		if err := dreg.Read(got, 4096); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, payload) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("remote write did not land in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBridgeReliableBreakPropagates(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)

	// Reliable send with no receive descriptor posted: process B must
	// break the pair, and the break must cross back to process A.
	sreg, _ := p.na.RegisterMemory([]byte("doomed"))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 6})
	if err := va.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	_ = sd.Wait(testTimeout)

	deadline := time.Now().Add(testTimeout)
	for {
		if errors.Is(vb.Err(), ErrNoRecvDescriptor) && va.Err() != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("break did not propagate: A=%v B=%v", va.Err(), vb.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Both ends now refuse traffic.
	sd2 := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 6})
	if err := va.PostSend(sd2); !errors.Is(err, ErrBroken) {
		t.Fatalf("post on broken VI: %v", err)
	}
}

func TestBridgeConnectSurvivesLateListener(t *testing.T) {
	p := newBridgedPair(t)
	// Dial before nodeB's real listener exists: the relayed dial must
	// keep retrying (multi-process startup is unordered) and succeed
	// once the service appears.
	va, err := p.na.CreateVI(ReliableDelivery, 4)
	if err != nil {
		t.Fatal(err)
	}
	dialErr := make(chan error, 1)
	go func() { dialErr <- va.Connect("nodeB", "svc") }()

	time.Sleep(600 * time.Millisecond) // several not-yet verdicts and redials pass
	ln, err := p.nb.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	vb, err := p.nb.CreateVI(ReliableDelivery, 4)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		acceptErr <- err
	}()
	if err := <-dialErr; err != nil {
		t.Fatalf("late-listener dial: %v", err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
}

// TestBridgeConnectBeforeProxy: a CONNECT that reaches a bridge before
// its Proxy call for the dialer (multi-process startup is unordered) is
// answered "not yet", not refused, so the dialer's next attempt
// connects once the proxy is registered.
func TestBridgeConnectBeforeProxy(t *testing.T) {
	p := newBridges(t)
	ln, err := p.nb.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	vb, err := p.nb.CreateVI(ReliableDelivery, 4)
	if err != nil {
		t.Fatal(err)
	}
	acceptErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		acceptErr <- err
	}()

	// A knows B; B does not know A yet.
	if err := p.ba.Proxy("nodeB", p.bb.Addr(), "svc"); err != nil {
		t.Fatal(err)
	}
	va, err := p.na.CreateVI(ReliableDelivery, 4)
	if err != nil {
		t.Fatal(err)
	}
	dialErr := make(chan error, 1)
	go func() { dialErr <- va.Connect("nodeB", "svc") }()
	select {
	case err := <-dialErr:
		t.Fatalf("dial resolved before the proxy existed: %v", err)
	case <-time.After(bridgeRetry / 2):
		// The first CONNECT has long crossed loopback; its verdict was "not yet".
	}
	if err := p.bb.Proxy("nodeA", p.ba.Addr(), "svc"); err != nil {
		t.Fatal(err)
	}
	if err := <-dialErr; err != nil {
		t.Fatalf("redial after Proxy: %v", err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
}

// TestBridgeLargeSendCrossesWhole: a send crosses as one frame, so a
// 100 KiB one arrives whole, in one receive.
func TestBridgeLargeSendCrossesWhole(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)

	rbuf := make([]byte, 128*1024)
	rreg, _ := p.nb.RegisterMemory(rbuf)
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: len(rbuf)})
	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 100*1024)
	for i := range big {
		big[i] = byte(i * 7)
	}
	sreg, _ := p.na.RegisterMemory(append([]byte(nil), big...))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: len(big)})
	if err := va.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatalf("large send: %v", err)
	}
	if err := rd.Wait(testTimeout); err != nil {
		t.Fatalf("large receive: %v", err)
	}
	got := make([]byte, rd.Transferred())
	if err := rreg.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("received %d bytes, want the %d sent", len(got), len(big))
	}
}

// TestBridgeRDMARaisesDoorbell: a remote write that arrives over the
// wire lands through the same delivery function as an in-process one,
// so it marks its region and raises the real NIC's bell too.
func TestBridgeRDMARaisesDoorbell(t *testing.T) {
	p := newBridgedPair(t)
	va, _ := p.connect(t)
	dreg, err := p.nb.RegisterMemory(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	dreg.EnableRemoteWrite()
	sreg, err := p.na.RegisterMemory([]byte("over the wire"))
	if err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 13})
	if err := va.PostRDMAWrite(sd, dreg.Handle(), 3); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.nb.Doorbell():
	case <-time.After(testTimeout):
		t.Fatal("bridged remote write raised no bell")
	}
	if got := p.nb.Written(nil); len(got) != 1 || got[0] != dreg {
		t.Fatalf("Written = %v, want the written region", got)
	}
	got := make([]byte, 13)
	if err := dreg.Read(got, 3); err != nil {
		t.Fatal(err)
	}
	if string(got) != "over the wire" {
		t.Errorf("region holds %q when the bell rings", got)
	}
}

// waitErr polls until cond holds for the pair's errors, or fails.
func waitErr(t *testing.T, va, vb *VI, cond func(a, b error) bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for !cond(va.Err(), vb.Err()) {
		if time.Now().After(deadline) {
			t.Fatalf("A=%v B=%v", va.Err(), vb.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBridgeConnectionLossBreaksChannel: the connection is the channel,
// so losing it (here: the remote bridge closes) breaks the local VI
// with nothing posted on either side.
func TestBridgeConnectionLossBreaksChannel(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)
	p.bb.Close()
	waitErr(t, va, vb, func(a, b error) bool {
		return errors.Is(a, ErrBroken) && b != nil
	})
}

// TestBridgeWriteToWedgedPeerFails: a peer process that stops reading
// fails the frame write once bridgeWriteTimeout passes, and the write
// closes the connection, so the channel's reader ends the channel
// instead of the poster hanging for good.
func TestBridgeWriteToWedgedPeerFails(t *testing.T) {
	old := bridgeWriteTimeout
	bridgeWriteTimeout = 20 * time.Millisecond
	t.Cleanup(func() { bridgeWriteTimeout = old })
	near, far := net.Pipe()
	defer far.Close()
	c := &bChan{conn: near}
	done := make(chan error, 1)
	go func() { done <- c.write(frameSend, nil, []byte("never read")) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a frame nobody reads was written")
		}
	case <-time.After(testTimeout):
		t.Fatal("a write to a peer that never reads outlived its deadline")
	}
	if _, err := near.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read after the failed write: %v, want the connection closed", err)
	}
}

// TestBridgeHangsUpSilentDialer: a connection to the bridge that never
// sends its CONNECT frame is closed once bridgeHelloTimeout passes,
// not held until the bridge closes.
func TestBridgeHangsUpSilentDialer(t *testing.T) {
	old := bridgeHelloTimeout
	bridgeHelloTimeout = 20 * time.Millisecond
	t.Cleanup(func() { bridgeHelloTimeout = old })
	p := newBridges(t)
	conn, err := net.Dial("tcp", p.ba.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("read from a bridge that was sent nothing: %v, want EOF", err)
	}
}

// TestBridgeRDMAProtectionBreaksChannel: a bridged remote write the real
// NIC refuses breaks both VIs, as it does in process, and the reason
// names the protection fault on both sides.
func TestBridgeRDMAProtectionBreaksChannel(t *testing.T) {
	p := newBridgedPair(t)
	va, vb := p.connect(t)
	dreg, err := p.nb.RegisterMemory(make([]byte, 16)) // not enabled for remote write
	if err != nil {
		t.Fatal(err)
	}
	sreg, err := p.na.RegisterMemory([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	if err := va.PostRDMAWrite(sd, dreg.Handle(), 0); err != nil {
		t.Fatal(err)
	}
	waitErr(t, va, vb, func(a, b error) bool {
		return errors.Is(b, ErrProtection) && a != nil && strings.Contains(a.Error(), ErrProtection.Error())
	})
}

// TestBridgeAcceptorSendsFirst: the acceptor's transport may send the
// instant Accept binds, before the bridge has answered the dialer; the
// REPLY still reaches the dialer first, and the send after it.
func TestBridgeAcceptorSendsFirst(t *testing.T) {
	p := newBridgedPair(t)
	for round := 0; round < 20; round++ {
		ln, err := p.nb.Listen("svc")
		if err != nil {
			t.Fatal(err)
		}
		va, _ := p.na.CreateVI(ReliableDelivery, 4)
		vb, _ := p.nb.CreateVI(ReliableDelivery, 4)
		rreg, _ := p.na.RegisterMemory(make([]byte, 16))
		rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 16})
		if err := va.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		sreg, _ := p.nb.RegisterMemory([]byte("first"))
		sendErr := make(chan error, 1)
		go func() {
			if _, err := ln.Accept(vb); err != nil {
				sendErr <- err
				return
			}
			sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 5})
			if err := vb.PostSend(sd); err != nil {
				sendErr <- err
				return
			}
			sendErr <- sd.Wait(testTimeout)
		}()
		if err := va.Connect("nodeB", "svc"); err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("round %d: acceptor's send: %v", round, err)
		}
		if err := rd.Wait(testTimeout); err != nil {
			t.Fatalf("round %d: dialer's receive: %v", round, err)
		}
		ln.Close()
		va.Close()
		vb.Close()
	}
}

// bridgeFrame encodes one bridge frame: length, kind, fields.
func bridgeFrame(kind byte, fields ...[]byte) []byte {
	body := []byte{kind}
	for _, f := range fields {
		body = append(body, f...)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func str8s(ss ...string) []byte {
	var out []byte
	for _, s := range ss {
		out = append(append(out, byte(len(s))), s...)
	}
	return out
}

// FuzzBridgeConn feeds arbitrary bytes into an accepted bridge
// connection: another process's input must not panic the bridge, a
// malformed frame closes the connection, and Close leaves no channel
// registered and no goroutine running.
func FuzzBridgeConn(f *testing.F) {
	connect := bridgeFrame(frameConnect, str8s("nodeA", "nodeB", "svc"))
	rdma := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), 8)
	f.Add(connect)
	f.Add(bytes.Join([][]byte{
		connect,
		bridgeFrame(frameSend, []byte("hello")),
		bridgeFrame(frameRDMA, rdma, []byte("remote")),
		bridgeFrame(frameBreak, str16(nil, "bye")),
	}, nil))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, maxBridgeFrame+1))
	f.Add(bridgeFrame(frameConnect, []byte{9, 'n', 'o'}))
	f.Fuzz(func(t *testing.T, in []byte) {
		base := runtime.NumGoroutine()
		fb := NewFabric()
		nb, err := fb.CreateNIC("nodeB")
		if err != nil {
			t.Fatal(err)
		}
		reg, _ := nb.RegisterMemory(make([]byte, 64)) // handle 1
		reg.EnableRemoteWrite()
		ln, _ := nb.Listen("svc")
		go func() {
			for {
				vi, err := nb.CreateVI(ReliableDelivery, 4)
				if err != nil {
					return
				}
				if _, err := ln.Accept(vi); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
		bb, err := NewBridge(fb, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := bb.Proxy("nodeA", "127.0.0.1:1"); err != nil {
			t.Fatal(err)
		}

		conn, err := net.Dial("tcp", bb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(in)
		_ = conn.(*net.TCPConn).CloseWrite()
		// Whatever the input, the bridge hangs up: at once on a
		// malformed frame, else at our EOF. A reset is a hang-up too.
		_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("bridge kept the connection open")
		}
		conn.Close()

		bb.Close()
		bb.mu.Lock()
		left := len(bb.chans)
		bb.mu.Unlock()
		if left != 0 {
			t.Fatalf("%d channels registered after Close", left)
		}
		fb.Close()
		deadline := time.Now().Add(testTimeout)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
