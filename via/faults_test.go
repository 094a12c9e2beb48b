package via

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPartitionBreaksReliableConnection(t *testing.T) {
	f, na, nb, va, vb := pair(t)
	// Healthy transfer first.
	msg := sendRecv(t, na, nb, va, vb, []byte("before"))
	if string(msg) != "before" {
		t.Fatal("pre-isolation transfer failed")
	}

	f.Isolate("nodeB")
	sreg, _ := na.RegisterMemory([]byte("lost"))
	d := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	wantFailedPost(t, "send to an isolated node", va.PostSend(d), d, ErrLinkDown)
	// The connection is broken; healing the link does not resurrect it
	// (the application must reconnect), matching the VIA error model.
	f.HealNode("nodeB")
	d2 := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	if err := va.PostSend(d2); !errors.Is(err, ErrBroken) {
		t.Fatalf("post after break: %v", err)
	}
	if vb.Err() == nil {
		t.Fatal("peer not marked broken")
	}
}

func TestPartitionFailsRDMAWrite(t *testing.T) {
	f, na, nb, va, _ := pair(t)

	// Remote-writable region on nodeB, the target of the RDMA writes.
	rbuf := make([]byte, 64)
	rreg, err := nb.RegisterMemory(rbuf)
	if err != nil {
		t.Fatal(err)
	}
	rreg.EnableRemoteWrite()

	sreg, err := na.RegisterMemory([]byte("rdma-payload"))
	if err != nil {
		t.Fatal(err)
	}

	// Healthy remote write first.
	d := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 12})
	if err := va.PostRDMAWrite(d, rreg.Handle(), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Wait(testTimeout); err != nil {
		t.Fatalf("pre-isolation RDMA write: %v", err)
	}
	got := make([]byte, 12)
	if err := rreg.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "rdma-payload" {
		t.Fatalf("remote memory = %q", got)
	}

	// To an isolated node the write must fail with a checked error,
	// returned by the post and recorded on the descriptor — never a
	// panic, never silent success.
	f.Isolate("nodeB")
	d2 := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 12})
	wantFailedPost(t, "RDMA write to an isolated node", va.PostRDMAWrite(d2, rreg.Handle(), 0), d2, ErrLinkDown)
	// The reliable connection is now broken; further posts report it.
	d3 := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 12})
	if err := va.PostRDMAWrite(d3, rreg.Handle(), 0); !errors.Is(err, ErrBroken) {
		t.Fatalf("RDMA write after break: %v, want ErrBroken", err)
	}
}

func TestPartitionCompletesPendingRecvWithError(t *testing.T) {
	f, na, nb, va, vb := pair(t)

	// Park a receive descriptor on nodeB before the link is cut.
	rreg, err := nb.RegisterMemory(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	rd := MustDescriptor(Segment{Region: rreg, Offset: 0, Len: 32})
	if err := vb.PostRecv(rd); err != nil {
		t.Fatal(err)
	}

	// Cut the link and trip the failure from the sender side.
	f.Isolate("nodeB")
	sreg, err := na.RegisterMemory([]byte("drop"))
	if err != nil {
		t.Fatal(err)
	}
	sd := MustDescriptor(Segment{Region: sreg, Offset: 0, Len: 4})
	wantFailedPost(t, "send to an isolated node", va.PostSend(sd), sd, ErrLinkDown)

	// The break propagates: the parked descriptor completes with a
	// checked error through the normal completion path.
	c, err := vb.RecvWait(testTimeout)
	if err != nil {
		t.Fatalf("RecvWait after break: %v", err)
	}
	if c.Desc != rd {
		t.Fatalf("unexpected completion %+v", c)
	}
	if err := rd.Err(); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("parked recv descriptor error = %v, want ErrLinkDown", err)
	}
	if rd.Status() != DescError {
		t.Fatalf("parked recv descriptor status = %v, want DescError", rd.Status())
	}
}

func TestHealRestoresNewConnections(t *testing.T) {
	f, na, nb, _, _ := pair(t)
	f.Isolate("nodeB")
	f.HealNode("nodeB")

	// A fresh VI pair over the healed link works.
	ln, err := nb.Listen("svc2")
	if err != nil {
		t.Fatal(err)
	}
	vb2, _ := nb.CreateVI(ReliableDelivery, 8)
	va2, _ := na.CreateVI(ReliableDelivery, 8)
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb2)
		done <- err
	}()
	if err := va2.Connect("nodeB", "svc2"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := sendRecv(t, na, nb, va2, vb2, []byte("healed"))
	if string(got) != "healed" {
		t.Fatal("transfer over healed link failed")
	}
}

func TestConnectOverSeveredLink(t *testing.T) {
	f, na, nb, _, _ := pair(t)
	f.Isolate("nodeB")

	ln, err := nb.Listen("svc2")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	va2, _ := na.CreateVI(ReliableDelivery, 8)
	if err := va2.Connect("nodeB", "svc2"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Connect to an isolated node: %v, want ErrLinkDown", err)
	}
	// Healing restores dialability.
	f.HealNode("nodeB")
	vb2, _ := nb.CreateVI(ReliableDelivery, 8)
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb2)
		done <- err
	}()
	if err := va2.Connect("nodeB", "svc2"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// triad builds a three-NIC fabric with a connected reliable VI pair
// between every pair of nodes, returned as vis[i][j] = the VI on node i
// facing node j.
func triad(t *testing.T) (*Fabric, [3]*NIC, [3][3]*VI) {
	t.Helper()
	f := NewFabric()
	t.Cleanup(f.Close)
	addrs := [3]string{"n0", "n1", "n2"}
	var nics [3]*NIC
	for i, a := range addrs {
		n, err := f.CreateNIC(a)
		if err != nil {
			t.Fatal(err)
		}
		nics[i] = n
	}
	var vis [3][3]*VI
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			svc := addrs[i] + "-" + addrs[j]
			ln, err := nics[j].Listen(svc)
			if err != nil {
				t.Fatal(err)
			}
			vj, _ := nics[j].CreateVI(ReliableDelivery, 8)
			vi, _ := nics[i].CreateVI(ReliableDelivery, 8)
			done := make(chan error, 1)
			go func() {
				_, err := ln.Accept(vj)
				done <- err
			}()
			if err := vi.Connect(addrs[j], svc); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			ln.Close()
			vis[i][j], vis[j][i] = vi, vj
		}
	}
	return f, nics, vis
}

// expectSend posts a 1-byte send on vi from nic and waits for the
// completion, returning its error.
func expectSend(t *testing.T, nic *NIC, vi *VI) error {
	t.Helper()
	reg, err := nic.RegisterMemory([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	d := MustDescriptor(Segment{Region: reg, Offset: 0, Len: 1})
	if err := vi.PostSend(d); err != nil {
		return err
	}
	return d.Wait(testTimeout)
}

// TestSlowNodeDelaysDelivery: a transfer between two slowed NICs
// sleeps the larger of their penalties, not the sum, and SlowNode with
// no delay restores a node's speed.
func TestSlowNodeDelaysDelivery(t *testing.T) {
	var slept struct {
		sync.Mutex
		d []time.Duration
	}
	old := sleep
	sleep = func(d time.Duration) {
		slept.Lock()
		slept.d = append(slept.d, d)
		slept.Unlock()
	}
	t.Cleanup(func() { sleep = old })
	f, na, nb, va, vb := pair(t)
	transfer := func(want ...time.Duration) {
		t.Helper()
		slept.Lock()
		slept.d = nil
		slept.Unlock()
		if got := sendRecv(t, na, nb, va, vb, []byte("slow")); string(got) != "slow" {
			t.Fatalf("received %q", got)
		}
		slept.Lock()
		defer slept.Unlock()
		if !slices.Equal(slept.d, want) {
			t.Fatalf("transfer slept %v, want %v", slept.d, want)
		}
	}

	f.SlowNode("nodeA", 3*time.Millisecond)
	f.SlowNode("nodeB", 5*time.Millisecond)
	transfer(5 * time.Millisecond)
	f.SlowNode("nodeB", 0)
	transfer(3 * time.Millisecond)
	f.SlowNode("nodeA", 0)
	transfer()
}

func TestIsolateSeversAllLinks(t *testing.T) {
	f, nics, vis := triad(t)

	// Receivers on every link touching n1, plus the bystander link.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i == j {
				continue
			}
			reg, _ := nics[i].RegisterMemory(make([]byte, 4))
			rd := MustDescriptor(Segment{Region: reg, Offset: 0, Len: 4})
			if err := vis[i][j].PostRecv(rd); err != nil {
				t.Fatal(err)
			}
		}
	}

	f.Isolate("n1")
	if err := expectSend(t, nics[0], vis[0][1]); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("n0->n1 after Isolate(n1): %v, want ErrLinkDown", err)
	}
	if err := expectSend(t, nics[1], vis[1][2]); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("n1->n2 after Isolate(n1): %v, want ErrLinkDown", err)
	}
	// The bystander pair is untouched.
	if err := expectSend(t, nics[0], vis[0][2]); err != nil {
		t.Fatalf("n0->n2 after Isolate(n1): %v, want success", err)
	}
}

func TestHealNodeRestoresDialing(t *testing.T) {
	f, nics, _ := triad(t)
	f.Isolate("n1")

	ln, err := nics[1].Listen("svc-heal")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dial, _ := nics[0].CreateVI(ReliableDelivery, 8)
	if err := dial.Connect("n1", "svc-heal"); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Connect to isolated node: %v, want ErrLinkDown", err)
	}

	// HealNode restores every link at once.
	f.HealNode("n1")
	acc, _ := nics[1].CreateVI(ReliableDelivery, 8)
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(acc)
		done <- err
	}()
	if err := dial.Connect("n1", "svc-heal"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := expectSend(t, nics[0], vis0to1Recv(t, nics[1], acc, dial)); err != nil {
		t.Fatalf("send over healed node: %v", err)
	}
}

// vis0to1Recv posts a receive on the accepted side and hands back the
// dialing VI so expectSend exercises the full path.
func vis0to1Recv(t *testing.T, rnic *NIC, acc, dial *VI) *VI {
	t.Helper()
	reg, err := rnic.RegisterMemory(make([]byte, 4))
	if err != nil {
		t.Fatal(err)
	}
	rd := MustDescriptor(Segment{Region: reg, Offset: 0, Len: 4})
	if err := acc.PostRecv(rd); err != nil {
		t.Fatal(err)
	}
	return dial
}

func TestVIPeer(t *testing.T) {
	_, _, _, va, vb := pair(t)
	addr, id, ok := va.Peer()
	if !ok || addr != "nodeB" || id != vb.ID() {
		t.Fatalf("peer = %q/%d/%v", addr, id, ok)
	}
	va.Close()
	if _, _, ok := va.Peer(); ok {
		t.Fatal("closed VI still reports a peer")
	}
}
