package via

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

const testTimeout = 5 * time.Second

// pair builds two connected VIs on fresh NICs of a new fabric.
func pair(t testing.TB) (*Fabric, *NIC, *NIC, *VI, *VI) {
	t.Helper()
	f := NewFabric()
	t.Cleanup(f.Close)
	na, err := f.CreateNIC("nodeA")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.CreateNIC("nodeB")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := nb.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := nb.CreateVI(ReliableDelivery, 16)
	if err != nil {
		t.Fatal(err)
	}
	va, err := na.CreateVI(ReliableDelivery, 16)
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
	return f, na, nb, va, vb
}

// wantFailedPost checks that a post returned want and completed d with
// the very error it returned: the post's return and the descriptor
// report one transfer.
func wantFailedPost(t *testing.T, what string, err error, d *Descriptor, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("%s: post returned %v, want %v", what, err, want)
	}
	if s, derr := d.Status(), d.Err(); s != DescError || derr != err {
		t.Fatalf("%s: descriptor %v with %v, want completed with the post's %v", what, s, derr, err)
	}
}

// sendRecv pushes msg from va to vb through registered buffers.
func sendRecv(t *testing.T, na, nb *NIC, va, vb *VI, msg []byte) []byte {
	t.Helper()
	rbuf := make([]byte, len(msg)+16)
	rreg, err := nb.RegisterMemory(rbuf)
	if err != nil {
		t.Fatal(err)
	}
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: len(rbuf)})
	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}

	sbuf := make([]byte, len(msg))
	copy(sbuf, msg)
	sreg, err := na.RegisterMemory(sbuf)
	if err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: len(msg)})
	if err := va.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatalf("send: %v", err)
	}
	c, err := vb.RecvWait(testTimeout)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if c.Desc != rd {
		t.Fatalf("unexpected completion %+v", c)
	}
	if err := rd.Err(); err != nil {
		t.Fatalf("recv descriptor: %v", err)
	}
	got := make([]byte, rd.Transferred())
	if err := rreg.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSendReceiveRoundTrip(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	msg := []byte("user-level communication in cluster-based servers")
	got := sendRecv(t, na, nb, va, vb, msg)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestSendGatherScatter(t *testing.T) {
	_, na, nb, va, vb := pair(t)

	// Gather from two segments; scatter into two segments.
	s1, _ := na.RegisterMemory([]byte("hello, "))
	s2, _ := na.RegisterMemory([]byte("world!"))
	sd := MustDescriptor(
		Segment{Region: s1, Offset: 0, Len: 7},
		Segment{Region: s2, Offset: 0, Len: 6},
	)

	rbuf := make([]byte, 16)
	rreg, _ := nb.RegisterMemory(rbuf)
	rd := MustDescriptor(
		Segment{Region: rreg, Offset: 0, Len: 4},
		Segment{Region: rreg, Offset: 7, Len: 9},
	)
	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := va.PostSend(sd); err != nil {
		t.Fatal(err)
	}
	if err := sd.Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
	if _, err := vb.RecvWait(testTimeout); err != nil {
		t.Fatal(err)
	}
	if rd.Transferred() != 13 {
		t.Fatalf("transferred %d", rd.Transferred())
	}
	got := make([]byte, 16)
	rreg.Read(got, 0)
	if string(got[0:4]) != "hell" || string(got[7:16]) != "o, world!" {
		t.Fatalf("scatter result %q", got)
	}
}

func TestInOrderDelivery(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	const n = 64
	rbufs := make([]*MemoryRegion, n)
	for i := range rbufs {
		r, _ := nb.RegisterMemory(make([]byte, 8))
		rbufs[i] = r
		if err := vb.PostRecv(MustDescriptor(Segment{Region: r, Offset: 0, Len: 8})); err != nil {
			// Queue depth is 16; throttle by draining later. Repost below.
			t.Fatal(err)
		}
		if i == 13 {
			break
		}
	}
	// Keep it simple: 14 posted receives, 14 sends, check payload order.
	for i := 0; i < 14; i++ {
		sbuf := []byte(fmt.Sprintf("msg%04d ", i))
		sreg, _ := na.RegisterMemory(sbuf)
		if err := va.PostSend(MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 8})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 14; i++ {
		c, err := vb.RecvWait(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		c.Desc.segments[0].Region.Read(got, 0)
		want := fmt.Sprintf("msg%04d ", i)
		if string(got) != want {
			t.Fatalf("message %d out of order: %q", i, got)
		}
	}
}

func TestReliableNoRecvDescriptorBreaksConnection(t *testing.T) {
	_, na, _, va, vb := pair(t)
	sreg, _ := na.RegisterMemory([]byte("data"))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	wantFailedPost(t, "send with no receive posted", va.PostSend(sd), sd, ErrNoRecvDescriptor)
	// Both ends are now broken.
	if err := va.PostSend(MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})); !errors.Is(err, ErrBroken) {
		t.Fatalf("post on broken VI: %v", err)
	}
	if vb.Err() == nil {
		t.Fatal("peer VI not marked broken")
	}
}

func TestRDMAWrite(t *testing.T) {
	_, na, nb, va, _ := pair(t)

	remote := make([]byte, 64)
	rreg, _ := nb.RegisterMemory(remote)
	rreg.EnableRemoteWrite()

	local, _ := na.RegisterMemory([]byte("remote memory write!"))
	d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 20})
	if err := va.PostRDMAWrite(d, rreg.Handle(), 8); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 20)
	rreg.Read(got, 8)
	if string(got) != "remote memory write!" {
		t.Fatalf("remote region = %q", got)
	}
	// No receive descriptor was consumed and no receive completed.
	if nb.Stats().RecvsComplete != 0 {
		t.Error("RDMA write consumed a receive")
	}
	if na.Stats().RDMAWrites != 1 {
		t.Errorf("rdma count = %d", na.Stats().RDMAWrites)
	}
}

func TestRDMAWriteProtection(t *testing.T) {
	_, na, nb, va, _ := pair(t)
	local, _ := na.RegisterMemory([]byte("data"))

	// Not enabled for remote write.
	rreg, _ := nb.RegisterMemory(make([]byte, 16))
	d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 4})
	wantFailedPost(t, "write to protected region", va.PostRDMAWrite(d, rreg.Handle(), 0), d, ErrProtection)
}

func TestRDMAWriteOutOfBounds(t *testing.T) {
	// The second offset overflows off+len: a bridge carries offsets off
	// the wire, so the bound must hold for any int.
	for _, off := range []int{4, math.MaxInt - 2} {
		_, na, nb, va, _ := pair(t)
		local, _ := na.RegisterMemory([]byte("0123456789"))
		rreg, _ := nb.RegisterMemory(make([]byte, 8))
		rreg.EnableRemoteWrite()
		d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 10})
		wantFailedPost(t, fmt.Sprintf("out-of-bounds write at %d", off), va.PostRDMAWrite(d, rreg.Handle(), off), d, ErrProtection)
	}
}

func TestRDMAWriteUnknownHandle(t *testing.T) {
	_, na, _, va, _ := pair(t)
	local, _ := na.RegisterMemory([]byte("data"))
	d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 4})
	wantFailedPost(t, "unknown handle", va.PostRDMAWrite(d, Handle(9999), 0), d, ErrProtection)
}

func TestPollOnSequenceNumber(t *testing.T) {
	// The PRESS pattern: RDMA-write a payload then its sequence number;
	// the receiver polls the sequence word and then reads the payload.
	_, na, nb, va, _ := pair(t)
	remote := make([]byte, 64)
	rreg, _ := nb.RegisterMemory(remote)
	rreg.EnableRemoteWrite()

	payload := []byte("file-name.html")
	buf := make([]byte, len(payload)+4)
	copy(buf, payload)
	buf[len(payload)] = 1 // sequence number 1, little-endian
	local, _ := na.RegisterMemory(buf)
	d := MustDescriptor(Segment{Region: local, Offset: 0, Len: len(buf)})
	if err := va.PostRDMAWrite(d, rreg.Handle(), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		seq, err := rreg.Load32(len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if seq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sequence number never arrived")
		}
	}
	got := make([]byte, len(payload))
	rreg.Read(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload %q", got)
	}
}

func TestMessageLargerThanRecvDescriptor(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	rreg, _ := nb.RegisterMemory(make([]byte, 4))
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 4})
	vb.PostRecv(rd)

	sreg, _ := na.RegisterMemory([]byte("way too long"))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 12})
	wantFailedPost(t, "send", va.PostSend(sd), sd, ErrTooLong)
	if err := rd.Err(); !errors.Is(err, ErrTooLong) {
		t.Fatalf("recv: %v", err)
	}
}

func TestCompletionQueueMultiplexes(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	hub, _ := f.CreateNIC("hub")
	cq, err := NewCompletionQueue(256)
	if err != nil {
		t.Fatal(err)
	}
	const peers = 4
	for i := 0; i < peers; i++ {
		addr := fmt.Sprintf("peer%d", i)
		peer, _ := f.CreateNIC(addr)
		ln, _ := hub.Listen("svc" + addr)
		hv, _ := hub.CreateVI(ReliableDelivery, 16)
		hv.SetRecvCQ(cq)
		rreg, _ := hub.RegisterMemory(make([]byte, 16))
		hv.PostRecv(MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 16}))
		pv, _ := peer.CreateVI(ReliableDelivery, 16)
		go ln.Accept(hv)
		if err := pv.Connect("hub", "svc"+addr); err != nil {
			t.Fatal(err)
		}
		sreg, _ := peer.RegisterMemory([]byte(addr))
		if err := pv.PostSend(MustDescriptor(Segment{Region: sreg, Offset: 0, Len: len(addr)})); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint32]bool{}
	for i := 0; i < peers; i++ {
		c, err := cq.Wait(testTimeout)
		if err != nil {
			t.Fatal(err)
		}
		seen[c.VI.ID()] = true
	}
	if len(seen) != peers {
		t.Fatalf("completions from %d VIs, want %d", len(seen), peers)
	}
	if _, ok := cq.Poll(); ok {
		t.Fatal("extra completion")
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	rreg, _ := nb.RegisterMemory(make([]byte, 1024))
	for i := 0; i < 16; i++ {
		if err := vb.PostRecv(MustDescriptor(Segment{Region: rreg, Offset: i, Len: 1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := vb.PostRecv(MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 1})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("17th recv: %v", err)
	}
	_ = na
	_ = va
}

// TestCreateVIRefusesOtherServiceLevels: reliable delivery is the one
// service level; the zero value and any other one are refused.
func TestCreateVIRefusesOtherServiceLevels(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	n, _ := f.CreateNIC("solo")
	for _, rel := range []Reliability{0, 2} {
		if vi, err := n.CreateVI(rel, 4); err == nil {
			vi.Close()
			t.Errorf("CreateVI(Reliability(%d)) succeeded", rel)
		}
	}
	if _, err := n.CreateVI(ReliableDelivery, 4); err != nil {
		t.Fatalf("CreateVI(ReliableDelivery): %v", err)
	}
}

func TestPostWithoutConnect(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	n, _ := f.CreateNIC("solo")
	v, _ := n.CreateVI(ReliableDelivery, 4)
	reg, _ := n.RegisterMemory(make([]byte, 4))
	err := v.PostSend(MustDescriptor(Segment{Region: reg, Offset: 0, Len: 4}))
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("got %v", err)
	}
}

func TestConnectErrors(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	na, _ := f.CreateNIC("a")
	nb, _ := f.CreateNIC("b")
	v, _ := na.CreateVI(ReliableDelivery, 4)
	if err := v.Connect("nowhere", "svc"); !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("unknown address: %v", err)
	}
	if err := v.Connect("b", "svc"); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("unknown service: %v", err)
	}
	_ = nb
}

func TestDoubleConnect(t *testing.T) {
	_, _, _, va, _ := pair(t)
	if err := va.Connect("nodeB", "svc"); !errors.Is(err, ErrAlreadyConnected) {
		t.Fatalf("double connect: %v", err)
	}
}

func TestDeregisteredRegionFailsTransfers(t *testing.T) {
	_, na, _, va, _ := pair(t)
	reg, _ := na.RegisterMemory(make([]byte, 8))
	if err := na.DeregisterMemory(reg); err != nil {
		t.Fatal(err)
	}
	d := MustDescriptor(Segment{Region: reg, Offset: 0, Len: 8})
	wantFailedPost(t, "send from released region", va.PostSend(d), d, ErrRegionReleased)
	if err := na.DeregisterMemory(reg); !errors.Is(err, ErrRegionReleased) {
		t.Fatalf("double deregister: %v", err)
	}
}

func TestDescriptorReuse(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	sreg, _ := na.RegisterMemory([]byte("abcd"))
	rreg, _ := nb.RegisterMemory(make([]byte, 4))
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	for i := 0; i < 5; i++ {
		rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 4})
		if err := vb.PostRecv(rd); err != nil {
			t.Fatal(err)
		}
		if err := va.PostSend(sd); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if err := sd.Wait(testTimeout); err != nil {
			t.Fatal(err)
		}
		if _, err := vb.RecvWait(testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if n := na.Stats().SendsComplete; n != 5 {
		t.Fatalf("sends = %d", n)
	}
}

func TestDoublePostRejected(t *testing.T) {
	_, na, _, va, _ := pair(t)
	// Install a slow fabric? Not needed: post the same descriptor twice
	// quickly; the second post must fail if the first is still pending.
	reg, _ := na.RegisterMemory(make([]byte, 4))
	d := MustDescriptor(Segment{Region: reg, Offset: 0, Len: 4})
	if err := d.markPosted(); err != nil {
		t.Fatal(err)
	}
	if err := d.markPosted(); err == nil {
		t.Fatal("double post accepted")
	}
	d.complete(0, nil)
	_ = va
}

func TestCloseUnblocksWaiters(t *testing.T) {
	f := NewFabric()
	na, _ := f.CreateNIC("a")
	nb, _ := f.CreateNIC("b")
	ln, _ := nb.Listen("svc")
	vb, _ := nb.CreateVI(ReliableDelivery, 4)
	va, _ := na.CreateVI(ReliableDelivery, 4)
	go ln.Accept(vb)
	if err := va.Connect("b", "svc"); err != nil {
		t.Fatal(err)
	}
	rreg, _ := nb.RegisterMemory(make([]byte, 4))
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 4})
	vb.PostRecv(rd)

	done := make(chan error, 1)
	go func() {
		_, err := vb.RecvWait(testTimeout)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("waiter got %v", err)
		}
	case <-time.After(testTimeout):
		t.Fatal("waiter stuck after Close")
	}
	if !errors.Is(rd.Err(), ErrClosed) {
		t.Fatalf("pending recv descriptor: %v", rd.Err())
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	const msgs = 200
	var wg sync.WaitGroup
	run := func(sn, rn *NIC, sv, rv *VI, tag byte) {
		defer wg.Done()
		rreg, _ := rn.RegisterMemory(make([]byte, msgs))
		sreg, _ := sn.RegisterMemory(bytes.Repeat([]byte{tag}, msgs))
		for i := 0; i < msgs; i++ {
			rd := MustDescriptor(Segment{Region: rreg, Offset: i, Len: 1})
			if err := rv.PostRecv(rd); err != nil {
				t.Error(err)
				return
			}
			sd := MustDescriptor(Segment{Region: sreg, Offset: i, Len: 1})
			if err := sv.PostSend(sd); err != nil {
				t.Error(err)
				return
			}
			if err := sd.Wait(testTimeout); err != nil {
				t.Error(err)
				return
			}
			if _, err := rv.RecvWait(testTimeout); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(2)
	go run(na, nb, va, vb, 'A')
	go run(nb, na, vb, va, 'B')
	wg.Wait()
}

func TestStatsAccounting(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	msg := []byte("12345678")
	sendRecv(t, na, nb, va, vb, msg)
	sa, sb := na.Stats(), nb.Stats()
	if sa.SendsPosted != 1 || sa.SendsComplete != 1 {
		t.Errorf("sender stats %+v", sa)
	}
	if sa.BytesSent != int64(len(msg)) {
		t.Errorf("bytes sent %d", sa.BytesSent)
	}
	if sb.RecvsPosted != 1 || sb.RecvsComplete != 1 {
		t.Errorf("receiver stats %+v", sb)
	}
}

func TestFabricDuplicateAddress(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.CreateNIC("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.CreateNIC("x"); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if _, err := f.CreateNIC(""); err == nil {
		t.Fatal("empty address accepted")
	}
}

func TestRegisterMemoryValidation(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	n, _ := f.CreateNIC("x")
	if _, err := n.RegisterMemory(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	other, _ := f.CreateNIC("y")
	reg, _ := n.RegisterMemory(make([]byte, 4))
	if err := other.DeregisterMemory(reg); err == nil {
		t.Fatal("cross-NIC deregister accepted")
	}
}

// Property: arbitrary payloads survive arbitrary gather/scatter segment
// splits bit-for-bit.
func TestGatherScatterIntegrityProperty(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	check := func(payload []byte, cut1, cut2 uint8) bool {
		if len(payload) == 0 {
			return true
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		// Split the send into up to three segments at random cuts.
		a := int(cut1) % (len(payload) + 1)
		b := a + int(cut2)%(len(payload)-a+1)
		sbuf := make([]byte, len(payload))
		copy(sbuf, payload)
		sreg, err := na.RegisterMemory(sbuf)
		if err != nil {
			return false
		}
		segs := []Segment{}
		for _, r := range [][2]int{{0, a}, {a, b}, {b, len(payload)}} {
			if r[1] > r[0] {
				segs = append(segs, Segment{Region: sreg, Offset: r[0], Len: r[1] - r[0]})
			}
		}
		if len(segs) == 0 {
			return true
		}
		rbuf := make([]byte, len(payload))
		rreg, err := nb.RegisterMemory(rbuf)
		if err != nil {
			return false
		}
		rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: len(payload)})
		if vb.PostRecv(rd) != nil {
			return false
		}
		sd := MustDescriptor(segs...)
		if va.PostSend(sd) != nil {
			return false
		}
		if sd.Wait(testTimeout) != nil {
			return false
		}
		if _, err := vb.RecvWait(testTimeout); err != nil {
			return false
		}
		got := make([]byte, len(payload))
		if rreg.Read(got, 0) != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bellRaised reports whether the NIC's doorbell is up, taking it down.
func bellRaised(n *NIC) bool {
	select {
	case <-n.Doorbell():
		return true
	default:
		return false
	}
}

// TestDoorbellCoalesces: any number of back-to-back remote writes, with
// nobody listening, raise the bell once and never block the poster, and
// each written region is listed once however often it was written.
func TestDoorbellCoalesces(t *testing.T) {
	_, na, nb, va, _ := pair(t)
	r1, _ := nb.RegisterMemory(make([]byte, 64))
	r2, _ := nb.RegisterMemory(make([]byte, 64))
	r1.EnableRemoteWrite()
	r2.EnableRemoteWrite()
	local, _ := na.RegisterMemory([]byte("ding"))

	if bellRaised(nb) || len(nb.Written(nil)) != 0 {
		t.Fatal("bell up before any remote write")
	}
	// Three send queues' worth, far more than the bell's one slot.
	const writes = 48
	descs := make([]*Descriptor, 16)
	for i := 0; i < writes; i++ {
		target := r1
		if i%4 == 3 {
			target = r2
		}
		d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 4})
		if err := va.PostRDMAWrite(d, target.Handle(), i); err != nil {
			t.Fatal(err)
		}
		if descs[i%len(descs)] = d; i%len(descs) != len(descs)-1 {
			continue
		}
		for _, d := range descs {
			if err := d.Wait(testTimeout); err != nil {
				t.Fatalf("write %d, bell never taken: %v", i, err)
			}
		}
	}
	if !bellRaised(nb) {
		t.Fatalf("%d remote writes raised no bell", writes)
	}
	if bellRaised(nb) {
		t.Error("bell raised twice between two receives")
	}
	got := nb.Written(nil)
	if len(got) != 2 || got[0] != r1 || got[1] != r2 {
		t.Errorf("Written = %v, want the two regions once each in first-write order", got)
	}
	if again := nb.Written(got[:0]); len(again) != 0 {
		t.Errorf("Written did not clear its marks: %v", again)
	}
	if bellRaised(na) {
		t.Error("the writer's own bell rang")
	}
	// A write after the marks were taken marks and rings again.
	d := MustDescriptor(Segment{Region: local, Offset: 0, Len: 4})
	if err := va.PostRDMAWrite(d, r2.Handle(), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(testTimeout); err != nil {
		t.Fatal(err)
	}
	if !bellRaised(nb) {
		t.Error("no bell for a write after Written")
	}
	if got := nb.Written(nil); len(got) != 1 || got[0] != r2 {
		t.Errorf("Written = %v, want r2", got)
	}
}

// TestDoorbellSilentOnRefusedWrite: a remote write the protection checks
// refuse — region not enabled, out of bounds, deregistered — lands
// nowhere and announces nothing.
func TestDoorbellSilentOnRefusedWrite(t *testing.T) {
	local := func(na *NIC) *Descriptor {
		reg, _ := na.RegisterMemory([]byte("0123456789"))
		return MustDescriptor(Segment{Region: reg, Offset: 0, Len: 10})
	}
	for _, tc := range []struct {
		name    string
		prepare func(nb *NIC) (Handle, int)
	}{
		{"not enabled", func(nb *NIC) (Handle, int) {
			r, _ := nb.RegisterMemory(make([]byte, 16))
			return r.Handle(), 0
		}},
		{"out of bounds", func(nb *NIC) (Handle, int) {
			r, _ := nb.RegisterMemory(make([]byte, 16))
			r.EnableRemoteWrite()
			return r.Handle(), 8
		}},
		{"deregistered", func(nb *NIC) (Handle, int) {
			r, _ := nb.RegisterMemory(make([]byte, 16))
			r.EnableRemoteWrite()
			_ = nb.DeregisterMemory(r)
			return r.Handle(), 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, na, nb, va, _ := pair(t)
			h, off := tc.prepare(nb)
			d := local(na)
			wantFailedPost(t, "refused write", va.PostRDMAWrite(d, h, off), d, ErrProtection)
			if bellRaised(nb) {
				t.Error("a refused write raised the bell")
			}
			if got := nb.Written(nil); len(got) != 0 {
				t.Errorf("a refused write marked %v", got)
			}
		})
	}
}

// TestPostAllocs: a one-copy post allocates nothing, its descriptor
// retargeted between posts by SetSegment included, and is done when it
// returns.
func TestPostAllocs(t *testing.T) {
	_, na, nb, va, _ := pair(t)
	dst, _ := nb.RegisterMemory(make([]byte, 8))
	dst.EnableRemoteWrite()
	src, _ := na.RegisterMemory([]byte("abcdefgh"))
	d := MustDescriptor(Segment{Region: src, Len: 4})
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		if err := d.SetSegment(0, Segment{Region: src, Offset: i % 4, Len: 4}); err != nil {
			t.Fatal(err)
		}
		if err := va.PostRDMAWrite(d, dst.Handle(), 0); err != nil {
			t.Fatal(err)
		}
		if s := d.Status(); s != DescDone {
			t.Fatalf("post %d is %v when it returns, want done", i, s)
		}
	})
	if allocs != 0 {
		t.Fatalf("a one-copy post allocates %.2f times, want 0", allocs)
	}
	got := make([]byte, 4)
	dst.Read(got, 0)
	if want := "abcdefgh"[i%4 : i%4+4]; string(got) != want {
		t.Errorf("last transfer wrote %q, want the retargeted segment %q", got, want)
	}
	if err := d.SetSegment(1, Segment{Region: src}); err == nil {
		t.Error("SetSegment past the segment list accepted")
	}
}

// TestWaitIgnoresStaleSignal: a receive wait that times out leaves the
// completion's signal behind when a send lands; the next wait on the
// reposted descriptor must take it as a reason to look, not as its own
// completion, and return with the second receive's status and count.
func TestWaitIgnoresStaleSignal(t *testing.T) {
	_, na, nb, va, vb := pair(t)
	src, _ := na.RegisterMemory([]byte("abcdefgh"))
	dst, _ := nb.RegisterMemory(make([]byte, 8))
	rd := MustDescriptor(Segment{Region: dst, Len: 8})
	send := func(n int) {
		t.Helper()
		if err := va.PostSend(MustDescriptor(Segment{Region: src, Len: n})); err != nil {
			t.Fatal(err)
		}
	}

	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := rd.SetSegment(0, Segment{Region: dst, Len: 4}); err == nil {
		t.Error("SetSegment of a posted descriptor accepted")
	}
	if err := rd.Wait(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a wait with no send returned %v, want ErrTimeout", err)
	}
	send(4)
	if s, n := rd.Status(), rd.Transferred(); s != DescDone || n != 4 {
		t.Fatalf("first receive is %v with %d bytes, want done with 4", s, n)
	}

	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	if err := rd.Wait(5 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a wait on the reposted receive returned %v before any send, want ErrTimeout", err)
	}
	send(8)
	if err := rd.Wait(testTimeout); err != nil {
		t.Fatalf("second wait: %v", err)
	}
	if s, n := rd.Status(), rd.Transferred(); s != DescDone || n != 8 {
		t.Fatalf("the second wait returned at status %v with %d bytes moved; want done with 8", s, n)
	}
}
