package server

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"press/via"
)

// ringFixture builds a connected VI pair with registered ring regions:
// writer on NIC a, reader rings on NIC b.
type ringFixture struct {
	na, nb  *via.NIC
	va      *via.VI
	ctrlIn  *rmwRingIn
	ctrlOut *rmwRingOut
	fileIn  *fileRingIn
	fileOut *fileRingOut
	src     *via.MemoryRegion
}

func newRingFixture(t *testing.T, dataRing int) *ringFixture {
	t.Helper()
	f := via.NewFabric()
	t.Cleanup(f.Close)
	na, err := f.CreateNIC("a")
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.CreateNIC("b")
	if err != nil {
		t.Fatal(err)
	}
	ln, err := nb.Listen("rings")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := nb.CreateVI(via.ReliableDelivery, 64)
	if err != nil {
		t.Fatal(err)
	}
	va, err := na.CreateVI(via.ReliableDelivery, 64)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		done <- err
	}()
	if err := va.Connect("b", "rings"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ctrlStage, err := na.RegisterMemory(make([]byte, ctrlSlotSize))
	if err != nil {
		t.Fatal(err)
	}
	metaStage, err := na.RegisterMemory(make([]byte, fileMetaSlotSize))
	if err != nil {
		t.Fatal(err)
	}
	src, err := na.RegisterMemory(make([]byte, dataRing))
	if err != nil {
		t.Fatal(err)
	}
	ctrlRegion, err := nb.RegisterMemory(make([]byte, ctrlSlots*ctrlSlotSize))
	if err != nil {
		t.Fatal(err)
	}
	metaRegion, err := nb.RegisterMemory(make([]byte, fileMetaSlots*fileMetaSlotSize))
	if err != nil {
		t.Fatal(err)
	}
	dataRegion, err := nb.RegisterMemory(make([]byte, dataRing))
	if err != nil {
		t.Fatal(err)
	}
	fx := &ringFixture{
		na: na, nb: nb, va: va,
		src:    src,
		ctrlIn: newRingIn(ctrlRegion),
		fileIn: newFileRingIn(metaRegion, dataRegion),
	}
	fx.ctrlOut = newRingOut(ctrlRegion.Handle(), ctrlSlots, ctrlStage)
	fx.fileOut = newFileRingOut(metaRegion.Handle(), dataRegion.Handle(), dataRing, metaStage)
	return fx
}

// pollCtrl waits briefly for the next control payload.
func (fx *ringFixture) pollCtrl(t *testing.T) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		payload, ok, err := fx.ctrlIn.poll()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return payload
		}
		if time.Now().After(deadline) {
			t.Fatal("control message never arrived")
		}
	}
}

func (fx *ringFixture) pollFile(t *testing.T, extraCopy bool) fileArrival {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		arr, ok, err := fx.fileIn.poll(extraCopy)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return arr
		}
		if time.Now().After(deadline) {
			t.Fatal("file never arrived")
		}
	}
}

func TestCtrlRingDeliversInOrder(t *testing.T) {
	fx := newRingFixture(t, 1<<16)
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("ctrl-%03d", i))
		if err := fx.ctrlOut.write(fx.va, msg, 0, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got := fx.pollCtrl(t)
		want := fmt.Sprintf("ctrl-%03d", i)
		if string(got) != want {
			t.Fatalf("message %d = %q, want %q", i, got, want)
		}
	}
}

func TestCtrlRingWrapsAround(t *testing.T) {
	// Write and consume more than ctrlSlots messages; sequence numbers
	// and slot reuse must stay consistent across the wrap. Acks flow
	// back so the writer's gate never starves.
	fx := newRingFixture(t, 1<<16)
	total := ctrlSlots*2 + 7
	wrote := 0
	read := 0
	for read < total {
		// Stay a full ack batch inside the window: acks trail reads by
		// up to 8, and the writer's gate must never block while this
		// loop is not consuming.
		for wrote < total && wrote-read < ctrlSlots-8 {
			msg := []byte(fmt.Sprintf("wrap-%04d", wrote))
			if err := fx.ctrlOut.write(fx.va, msg, 0, nil, 0, 0); err != nil {
				t.Fatal(err)
			}
			wrote++
		}
		got := fx.pollCtrl(t)
		want := fmt.Sprintf("wrap-%04d", read)
		if string(got) != want {
			t.Fatalf("message %d = %q, want %q", read, got, want)
		}
		read++
		if ack, due := fx.ctrlIn.ackDue(8); due {
			fx.ctrlOut.gate.setConsumed(int64(ack))
		}
	}
}

func TestCtrlRingRejectsOversized(t *testing.T) {
	fx := newRingFixture(t, 1<<16)
	big := make([]byte, ctrlSlotSize)
	if err := fx.ctrlOut.write(fx.va, big, 0, nil, 0, 0); err == nil {
		t.Fatal("oversized control message accepted")
	}
}

func TestFileRingRoundTrip(t *testing.T) {
	fx := newRingFixture(t, 1<<16)
	payload := SynthesizeContent("/ring.bin", 5000)
	if err := fx.src.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := fx.fileOut.write(fx.va, fx.src, 0, len(payload), 42, 0, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	arr := fx.pollFile(t, false)
	if arr.reqID != 42 {
		t.Fatalf("reqID = %d", arr.reqID)
	}
	if !bytes.Equal(arr.buf.b, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestFileRingWrapSkipsTail(t *testing.T) {
	// A data ring of 8 KB with 3 KB files: the third transfer does not
	// fit the tail (8-6=2 KB) and must skip to offset 0 without
	// corrupting in-flight data. Acks keep the writer's gates open.
	const ringSize = 8 << 10
	const fileSize = 3 << 10
	fx := newRingFixture(t, ringSize)
	for i := 0; i < 12; i++ {
		payload := SynthesizeContent(fmt.Sprintf("/wrap%d.bin", i), fileSize)
		if err := fx.src.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := fx.fileOut.write(fx.va, fx.src, 0, len(payload), uint64(i), 0, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		arr := fx.pollFile(t, i%2 == 0) // alternate extra-copy mode
		if arr.reqID != uint64(i) {
			t.Fatalf("transfer %d: reqID %d", i, arr.reqID)
		}
		if !bytes.Equal(arr.buf.b, payload) {
			t.Fatalf("transfer %d corrupted", i)
		}
		if meta, virt, due := fx.fileIn.ackDue(1); due {
			fx.fileOut.metaGate.setConsumed(int64(meta))
			fx.fileOut.dataGate.setConsumed(virt)
		}
	}
}

func TestFileRingRejectsOversized(t *testing.T) {
	fx := newRingFixture(t, 4<<10)
	payload := make([]byte, 8<<10)
	src, err := fx.na.RegisterMemory(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.fileOut.write(fx.va, src, 0, len(payload), 1, 0, nil, 0, 0); err == nil {
		t.Fatal("file larger than data ring accepted")
	}
}

func TestFileRingBlocksUntilAcked(t *testing.T) {
	// Fill the data ring without acking; the next write must block
	// until the consumer acks, then complete.
	const ringSize = 8 << 10
	fx := newRingFixture(t, ringSize)
	payload := SynthesizeContent("/block.bin", 4<<10)
	if err := fx.src.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fx.fileOut.write(fx.va, fx.src, 0, len(payload), uint64(i), 0, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- fx.fileOut.write(fx.va, fx.src, 0, len(payload), 99, 0, nil, 0, 0)
	}()
	select {
	case err := <-done:
		t.Fatalf("third write did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Consume one transfer and ack; the blocked writer proceeds.
	fx.pollFile(t, false)
	meta, virt, due := fx.fileIn.ackDue(1)
	if !due {
		t.Fatal("no ack due after consuming")
	}
	fx.fileOut.metaGate.setConsumed(int64(meta))
	fx.fileOut.dataGate.setConsumed(virt)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after ack")
	}
}

func TestCreditGate(t *testing.T) {
	g := newCreditGate(2)
	ok1, s1 := g.acquire()
	ok2, s2 := g.acquire()
	if !ok1 || !ok2 {
		t.Fatal("initial acquires failed")
	}
	if s1 || s2 {
		t.Fatal("uncontended acquires reported a stall")
	}
	type res struct{ ok, stalled bool }
	acquired := make(chan res, 1)
	go func() {
		ok, stalled := g.acquire()
		acquired <- res{ok, stalled}
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire did not block")
	case <-time.After(20 * time.Millisecond):
	}
	g.credit(1)
	select {
	case r := <-acquired:
		if !r.ok {
			t.Fatal("acquire failed after credit")
		}
		if !r.stalled {
			t.Fatal("blocked acquire did not report a stall")
		}
	case <-time.After(time.Second):
		t.Fatal("acquire still blocked after credit")
	}
	if g.sentCount() != 3 {
		t.Fatalf("sent = %d", g.sentCount())
	}
	// setConsumed is monotone: going backwards is ignored.
	g.setConsumed(5)
	g.setConsumed(2)
	if ok, _ := g.acquire(); !ok {
		t.Fatal("acquire after setConsumed failed")
	}
	// close releases waiters with failure.
	g2 := newCreditGate(1)
	g2.acquire()
	released := make(chan bool, 1)
	go func() {
		ok, _ := g2.acquire()
		released <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	g2.close()
	if ok := <-released; ok {
		t.Fatal("acquire succeeded on closed gate")
	}
}
