package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/via"
)

// ringFixture is a connected VI pair — writer on NIC a, reader on NIC b —
// from which tests cut slot rings and file rings.
type ringFixture struct {
	t      *testing.T
	fabric *via.Fabric
	na, nb *via.NIC
	va     *via.VI
	// idle never connects: every post on it is refused.
	idle *via.VI
	src  *via.MemoryRegion
}

func newRingFixture(t *testing.T, srcSize int) *ringFixture {
	t.Helper()
	f := via.NewFabric()
	t.Cleanup(f.Close)
	fx := &ringFixture{t: t, fabric: f}
	var err error
	if fx.na, err = f.CreateNIC("a"); err != nil {
		t.Fatal(err)
	}
	if fx.nb, err = f.CreateNIC("b"); err != nil {
		t.Fatal(err)
	}
	ln, err := fx.nb.Listen("rings")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := fx.nb.CreateVI(via.ReliableDelivery, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fx.va, err = fx.na.CreateVI(via.ReliableDelivery, 64); err != nil {
		t.Fatal(err)
	}
	if fx.idle, err = fx.na.CreateVI(via.ReliableDelivery, 64); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept(vb)
		done <- err
	}()
	if err := fx.va.Connect("b", "rings"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	fx.src = fx.region(fx.na, srcSize)
	return fx
}

func (fx *ringFixture) region(nic *via.NIC, size int) *via.MemoryRegion {
	fx.t.Helper()
	r, err := nic.RegisterMemory(make([]byte, size))
	if err != nil {
		fx.t.Fatal(err)
	}
	return r
}

// slotPair builds both halves of one ring of the given geometry: the
// receiver's on NIC b, the sender's view of it on NIC a.
func (fx *ringFixture) slotPair(geom ringGeom) (out, in *slotRing) {
	in = newSlotRingIn(geom, fx.region(fx.nb, geom.slots*geom.size))
	w := newOutWrite("test-ring", fx.va, in.region.Handle(), fx.region(fx.na, geom.size), 0, geom.size)
	return newSlotRingOut(geom, newCreditGate("test-ring", geom.slots, nil, nil), w), in
}

// filePair builds both ends of a file ring with a dataRing-byte data area.
func (fx *ringFixture) filePair(dataRing int) (*fileRingOut, *fileRingIn) {
	meta, metaIn := fx.slotPair(fileMetaRing)
	in := &fileRingIn{meta: metaIn, data: fx.region(fx.nb, dataRing)}
	in.data.EnableRemoteWrite()
	out := &fileRingOut{
		meta: meta, dataSize: uint64(dataRing),
		dataCredit: newCreditGate("file-data", dataRing, nil, nil),
		data:       newOutWrite("file-data", fx.va, in.data.Handle(), meta.out.stage, 0, 0),
	}
	return out, in
}

// pollEntry waits briefly for the ring's next entry.
func pollEntry(t *testing.T, in *slotRing) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, ok, err := in.poll()
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never arrived")
		}
	}
}

func pollFile(t *testing.T, in *fileRingIn, extraCopy bool) fileArrival {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		arr, ok, err := in.poll(extraCopy)
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

// ackFile acknowledges everything polled so far to the sender's gates,
// as drainFileRing's flow-counter writes do.
func ackFile(t *testing.T, out *fileRingOut, in *fileRingIn) {
	t.Helper()
	if _, due := in.meta.ack.due(in.meta.read, 1); !due {
		t.Fatal("no ack due after consuming")
	}
	out.meta.gate.setConsumed(int64(in.meta.read))
	out.dataCredit.setConsumed(int64(in.virtSeen))
}

// entryBody is the i-th test entry of a ring: variable length where the
// layout is length-prefixed, exactly the body where it is fixed.
func entryBody(geom ringGeom, i int) []byte {
	b := []byte(fmt.Sprintf("entry-%06d", i))
	if geom.fixed > 0 {
		b = append(b, bytes.Repeat([]byte{'.'}, geom.fixed-len(b))...)
	}
	return b
}

func mustWrite(t *testing.T, out *slotRing, body []byte) {
	t.Helper()
	if err := out.writeEntry(body, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestSlotRing runs the one ring through both of its geometries.
func TestSlotRing(t *testing.T) {
	for _, g := range []struct {
		name string
		geom ringGeom
	}{{"ctrl", ctrlRing}, {"file-meta", fileMetaRing}} {
		geom := g.geom
		expect := func(t *testing.T, in *slotRing, i int) {
			t.Helper()
			if got := pollEntry(t, in); !bytes.Equal(got, entryBody(geom, i)) {
				t.Fatalf("entry %d = %q, want %q", i, got, entryBody(geom, i))
			}
		}
		t.Run(g.name+"/in-order", func(t *testing.T) {
			out, in := newRingFixture(t, 1).slotPair(geom)
			for i := 0; i < 10; i++ {
				mustWrite(t, out, entryBody(geom, i))
			}
			for i := 0; i < 10; i++ {
				expect(t, in, i)
			}
		})
		t.Run(g.name+"/wrap-around", func(t *testing.T) {
			// More than slots entries; sequence numbers and slot reuse must
			// stay consistent across the wrap. Acks flow back so the
			// writer's gate never starves.
			out, in := newRingFixture(t, 1).slotPair(geom)
			total := geom.slots*2 + 7
			wrote := 0
			for read := 0; read < total; read++ {
				// Stay a full ack batch inside the window: acks trail reads
				// by up to 8, and the writer's gate must never block while
				// this loop is not consuming.
				for ; wrote < total && wrote-read < geom.slots-8; wrote++ {
					mustWrite(t, out, entryBody(geom, wrote))
				}
				expect(t, in, read)
				if _, due := in.ack.due(in.read, 8); due {
					out.gate.setConsumed(int64(in.read))
				}
			}
		})
		t.Run(g.name+"/oversize-refused", func(t *testing.T) {
			out, _ := newRingFixture(t, 1).slotPair(geom)
			if err := out.writeEntry(make([]byte, geom.room()+1), 0, 0); err == nil {
				t.Fatal("oversized entry written")
			}
			if sent, _ := out.gate.inFlight(); sent != 0 || out.next != 0 {
				t.Fatalf("refused entry took a slot: sent %d, next %d", sent, out.next)
			}
		})
		t.Run(g.name+"/blocks-until-acked", func(t *testing.T) {
			out, in := newRingFixture(t, 1).slotPair(geom)
			for i := 0; i < geom.slots; i++ {
				mustWrite(t, out, entryBody(geom, i))
			}
			done := make(chan error, 1)
			go func() {
				done <- out.writeEntry(entryBody(geom, geom.slots), 0, 0)
			}()
			select {
			case err := <-done:
				t.Fatalf("write into a full ring did not block (err=%v)", err)
			case <-time.After(50 * time.Millisecond):
			}
			expect(t, in, 0)
			if _, due := in.ack.due(in.read, 1); !due {
				t.Fatal("no ack due after consuming")
			}
			out.gate.setConsumed(int64(in.read))
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("writer still blocked after ack")
			}
		})
		t.Run(g.name+"/sequence-wrap", func(t *testing.T) {
			// The slot holds 32 bits of a 64-bit count: both sides truncate
			// the same way, through 2^32-1, 0 and 1.
			out, in := newRingFixture(t, 1).slotPair(geom)
			out.next, in.read = 1<<32-3, 1<<32-3
			for i := 0; i < 6; i++ {
				mustWrite(t, out, entryBody(geom, i))
				expect(t, in, i)
			}
			if out.next != 1<<32+3 || in.read != out.next {
				t.Fatalf("next %d, read %d after the wrap", out.next, in.read)
			}
		})
	}
}

// TestSlotImageGolden pins the bytes the sender half puts into the
// peer's memory: the control entry [len:4][payload][pad][seq:4] and the
// file metadata entry [reqID:8][phys:4][len:4][virtEnd:8][pad][seq:4].
func TestSlotImageGolden(t *testing.T) {
	slot := func(in *slotRing, i int) []byte {
		b := make([]byte, in.size)
		if err := in.region.Read(b, i*in.size); err != nil {
			t.Fatal(err)
		}
		return b
	}
	fx := newRingFixture(t, 8<<10)
	out, in := fx.slotPair(ctrlRing)
	mustWrite(t, out, []byte("hello"))
	mustWrite(t, out, nil)
	pollEntry(t, in)
	pollEntry(t, in)
	want := make([]byte, ctrlSlotSize)
	copy(want, "\x05\x00\x00\x00hello")
	want[ctrlSlotSize-4] = 1
	if got := slot(in, 0); !bytes.Equal(got, want) {
		t.Errorf("control slot 0:\n got %x\nwant %x", got, want)
	}
	want = make([]byte, ctrlSlotSize)
	want[ctrlSlotSize-4] = 2
	if got := slot(in, 1); !bytes.Equal(got, want) {
		t.Errorf("control slot 1:\n got %x\nwant %x", got, want)
	}

	// Two 5000-byte files into an 8 KiB data area: the second does not fit
	// the tail, lands at 0 and ends at virtual 8192+5000.
	fout, fin := fx.filePair(8 << 10)
	for i, reqID := range []uint64{0x0102030405060708, 2} {
		if err := fout.writeFile(fx.src, 0, 5000, reqID, 0, 0); err != nil {
			t.Fatal(err)
		}
		pollFile(t, fin, false).buf.release()
		ackFile(t, fout, fin)
		want = make([]byte, fileMetaSlotSize)
		if i == 0 {
			copy(want, "\x08\x07\x06\x05\x04\x03\x02\x01"+"\x00\x00\x00\x00"+"\x88\x13\x00\x00"+"\x88\x13\x00\x00\x00\x00\x00\x00")
		} else {
			copy(want, "\x02\x00\x00\x00\x00\x00\x00\x00"+"\x00\x00\x00\x00"+"\x88\x13\x00\x00"+"\x88\x33\x00\x00\x00\x00\x00\x00")
		}
		want[fileMetaSlotSize-4] = byte(i + 1)
		if got := slot(fin.meta, i); !bytes.Equal(got, want) {
			t.Errorf("metadata slot %d:\n got %x\nwant %x", i, got, want)
		}
	}
}

// FuzzSlotRingPoll feeds arbitrary region bytes to the receiver half:
// whatever a peer writes into our rings, polling must not panic, must not
// return a body longer than the slot holds, and must not size a receive
// buffer past the data ring.
func FuzzSlotRingPoll(f *testing.F) {
	fabric := via.NewFabric()
	f.Cleanup(fabric.Close)
	nic, err := fabric.CreateNIC("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	const dataRing = 4 << 10
	entry := func(geom ringGeom, seq uint32, body []byte) []byte {
		b := make([]byte, geom.size)
		copy(b, body)
		binary.LittleEndian.PutUint32(b[geom.size-4:], seq)
		return b
	}
	f.Add([]byte{}, uint64(0), false)
	f.Add(entry(ctrlRing, 1, []byte("\x05\x00\x00\x00hello")), uint64(0), false)
	f.Add(entry(ctrlRing, 1, []byte("\xf9\x01\x00\x00")), uint64(0), false) // length one past the slot
	f.Add(entry(ctrlRing, 1, []byte("\xff\xff\xff\xff")), uint64(0), false)
	f.Add(entry(fileMetaRing, 1, []byte("\x01\x00\x00\x00\x00\x00\x00\x00"+"\x00\x00\x00\x00"+"\x00\x10\x00\x00")), uint64(0), true)
	f.Add(entry(fileMetaRing, 1, []byte("\x01\x00\x00\x00\x00\x00\x00\x00"+"\x01\x00\x00\x00"+"\x00\x10\x00\x00")), uint64(0), true) // one byte past the data ring
	f.Add(entry(fileMetaRing, 1, []byte("\x01\x00\x00\x00\x00\x00\x00\x00"+"\xff\xff\xff\xff"+"\xff\xff\xff\xff")), uint64(0), true)
	f.Add(entry(fileMetaRing, 0, nil), uint64(1<<32-1), true)
	f.Fuzz(func(t *testing.T, image []byte, read uint64, file bool) {
		geom := ctrlRing
		if file {
			geom = fileMetaRing
		}
		mem := make([]byte, geom.slots*geom.size)
		// The image lands on the slot read selects, so the sequence test
		// is in reach of the mutator.
		copy(mem[int(read%uint64(geom.slots))*geom.size:], image)
		region, err := nic.RegisterMemory(mem)
		if err != nil {
			t.Fatal(err)
		}
		defer nic.DeregisterMemory(region)
		in := newSlotRingIn(geom, region)
		in.read = read
		if !file {
			for i := 0; i <= geom.slots; i++ {
				body, ok, err := in.poll()
				if err != nil || !ok {
					return
				}
				if len(body) > geom.room() {
					t.Fatalf("poll returned %d bytes from a %d-byte slot", len(body), geom.size)
				}
			}
			return
		}
		data, err := nic.RegisterMemory(make([]byte, dataRing))
		if err != nil {
			t.Fatal(err)
		}
		defer nic.DeregisterMemory(data)
		fin := &fileRingIn{meta: in, data: data}
		for i := 0; i <= geom.slots; i++ {
			arr, ok, err := fin.poll(i%2 == 0)
			if err != nil || !ok {
				return
			}
			if len(arr.buf.b) > dataRing {
				t.Fatalf("poll sized a %d-byte buffer from a %d-byte data ring", len(arr.buf.b), dataRing)
			}
			arr.buf.release()
		}
	})
}

func TestFileRingRoundTrip(t *testing.T) {
	fx := newRingFixture(t, 1<<16)
	out, in := fx.filePair(1 << 16)
	payload := SynthesizeContent("/ring.bin", 5000)
	if err := fx.src.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := out.writeFile(fx.src, 0, len(payload), 42, 0, 0); err != nil {
		t.Fatal(err)
	}
	arr := pollFile(t, in, false)
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
	out, in := fx.filePair(ringSize)
	for i := 0; i < 12; i++ {
		payload := SynthesizeContent(fmt.Sprintf("/wrap%d.bin", i), fileSize)
		if err := fx.src.Write(payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := out.writeFile(fx.src, 0, len(payload), uint64(i), 0, 0); err != nil {
			t.Fatal(err)
		}
		arr := pollFile(t, in, i%2 == 0) // alternate extra-copy mode
		if arr.reqID != uint64(i) {
			t.Fatalf("transfer %d: reqID %d", i, arr.reqID)
		}
		if !bytes.Equal(arr.buf.b, payload) {
			t.Fatalf("transfer %d corrupted", i)
		}
		ackFile(t, out, in)
	}
}

func TestFileRingRejectsOversized(t *testing.T) {
	fx := newRingFixture(t, 8<<10)
	out, _ := fx.filePair(4 << 10)
	if err := out.writeFile(fx.src, 0, 8<<10, 1, 0, 0); err == nil {
		t.Fatal("file larger than data ring accepted")
	}
}

func TestFileRingBlocksUntilAcked(t *testing.T) {
	// Fill the data ring without acking; the next write must block
	// until the consumer acks, then complete.
	const ringSize = 8 << 10
	fx := newRingFixture(t, ringSize)
	out, in := fx.filePair(ringSize)
	payload := SynthesizeContent("/block.bin", 4<<10)
	if err := fx.src.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := out.writeFile(fx.src, 0, len(payload), uint64(i), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- out.writeFile(fx.src, 0, len(payload), 99, 0, 0)
	}()
	select {
	case err := <-done:
		t.Fatalf("third write did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Consume one transfer and ack; the blocked writer proceeds.
	pollFile(t, in, false)
	ackFile(t, out, in)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer still blocked after ack")
	}
}

// TestCreditConservation: sent - consumed of a channel's gate is what
// the peer may still consume, no more. A write that fails — the post
// refused, the message unencodable, the link severed under it — gives
// its units back and leaves the sequence put, so any number of failures
// leaves the whole window standing; a write that succeeded keeps them.
func TestCreditConservation(t *testing.T) {
	idle := func(t *testing.T, g *creditGate, what string) {
		t.Helper()
		if sent, unacked := g.inFlight(); sent != 0 || unacked != 0 {
			t.Fatalf("%s: sent %d, in flight %d after refused writes only", what, sent, unacked)
		}
	}
	for _, g := range []struct {
		name string
		geom ringGeom
	}{{"ctrl-ring", ctrlRing}, {"file-meta", fileMetaRing}} {
		t.Run(g.name, func(t *testing.T) {
			fx := newRingFixture(t, 1)
			out, in := fx.slotPair(g.geom)
			out.out.vi = fx.idle
			for i := 0; i < g.geom.slots+5; i++ {
				if err := out.writeEntry(entryBody(g.geom, i), 0, 0); err == nil {
					t.Fatalf("write %d on an unconnected VI succeeded", i)
				}
			}
			idle(t, out.gate, g.name)
			// The whole window, unacknowledged, without blocking; and the
			// refusals did not move the sequence.
			out.out.vi = fx.va
			for i := 0; i < g.geom.slots; i++ {
				mustWrite(t, out, entryBody(g.geom, i))
			}
			for i := 0; i < g.geom.slots; i++ {
				if got := pollEntry(t, in); !bytes.Equal(got, entryBody(g.geom, i)) {
					t.Fatalf("entry %d = %q", i, got)
				}
			}
		})
	}
	t.Run("file-data", func(t *testing.T) {
		const ringSize, fileSize = 8 << 10, 3 << 10
		fx := newRingFixture(t, fileSize)
		out, in := fx.filePair(ringSize)
		out.data.vi, out.meta.out.vi = fx.idle, fx.idle
		for i := 0; i < 2*ringSize/fileSize+fileMetaSlots; i++ {
			if err := out.writeFile(fx.src, 0, fileSize, uint64(i), 0, 0); err == nil {
				t.Fatalf("transfer %d on an unconnected VI succeeded", i)
			}
		}
		idle(t, out.dataCredit, "file-data")
		idle(t, out.meta.gate, "file-meta")
		// The virtual offset did not advance: the area takes what fits it,
		// from physical offset 0.
		out.data.vi, out.meta.out.vi = fx.va, fx.va
		for i := 0; i < ringSize/fileSize; i++ {
			if err := out.writeFile(fx.src, 0, fileSize, uint64(i), 0, 0); err != nil {
				t.Fatal(err)
			}
			if arr := pollFile(t, in, false); arr.reqID != uint64(i) {
				t.Fatalf("transfer %d: reqID %d", i, arr.reqID)
			}
		}
		if in.virtSeen != ringSize/fileSize*fileSize {
			t.Fatalf("virtual end %d after %d transfers of %d", in.virtSeen, ringSize/fileSize, fileSize)
		}
	})
	// A write over a severed link fails at its post and breaks the VI: it
	// moved nothing the peer will consume, so it keeps no slot.
	severed := func(t *testing.T, g *creditGate, next uint64, err error) {
		t.Helper()
		if !errors.Is(err, via.ErrLinkDown) {
			t.Fatalf("write over a severed link: %v, want ErrLinkDown", err)
		}
		if sent, unacked := g.inFlight(); sent != 0 || unacked != 0 || next != 0 {
			t.Fatalf("severed write kept its slot: sent %d, unacked %d, next %d", sent, unacked, next)
		}
	}
	for _, g := range []struct {
		name string
		geom ringGeom
	}{{"ctrl-ring", ctrlRing}, {"file-meta", fileMetaRing}} {
		t.Run(g.name+"/severed", func(t *testing.T) {
			fx := newRingFixture(t, 1)
			out, _ := fx.slotPair(g.geom)
			fx.fabric.Isolate("b")
			err := out.writeEntry(entryBody(g.geom, 0), 0, 0)
			severed(t, out.gate, out.next, err)
		})
	}
	t.Run("file-data/severed", func(t *testing.T) {
		const ringSize, fileSize = 8 << 10, 3 << 10
		fx := newRingFixture(t, fileSize)
		out, _ := fx.filePair(ringSize)
		fx.fabric.Isolate("b")
		err := out.writeFile(fx.src, 0, fileSize, 0, 0, 0)
		severed(t, out.dataCredit, out.meta.next, err)
		idle(t, out.meta.gate, "file-meta")
	})
	t.Run("regular", func(t *testing.T) {
		a, b := newViaPair(t, netmodel.Versions()[0])
		p := a.peer(1)
		long := &Message{Type: core.MsgForward, Name: strings.Repeat("n", maxNameLen+1), Load: -1}
		for i := 0; i < 3*a.cfg.window; i++ {
			if err := a.Send(1, long); err == nil {
				t.Fatal("over-long name sent")
			}
		}
		idle(t, p.regGate, "regular")
		for i := 0; i < a.cfg.window; i++ {
			if err := a.Send(1, &Message{Type: core.MsgLoad, Load: int32(i)}); err != nil {
				t.Fatal(err)
			}
			expectInbound(t, b, int32(i))
		}
	})
}

func TestCreditGate(t *testing.T) {
	stalls := metrics.NewCounter()
	g := newCreditGate("test", 2, stalls, nil)
	if g.acquire(1, 0, 0) != nil || g.acquire(1, 0, 0) != nil {
		t.Fatal("initial acquires failed")
	}
	if stalls.Value() != 0 {
		t.Fatal("uncontended acquires counted a stall")
	}
	acquired := make(chan error, 1)
	go func() { acquired <- g.acquire(1, 0, 0) }()
	select {
	case <-acquired:
		t.Fatal("third acquire did not block")
	case <-time.After(20 * time.Millisecond):
	}
	g.credit(1)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("acquire failed after credit: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("acquire still blocked after credit")
	}
	if sent, unacked := g.inFlight(); sent != 3 || unacked != 2 {
		t.Fatalf("sent = %d, in flight %d", sent, unacked)
	}
	if stalls.Value() != 1 {
		t.Fatalf("%d stalls counted for one blocked acquire", stalls.Value())
	}
	// A unit given back is free again at once.
	g.release(1)
	if err := g.acquire(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	// setConsumed is monotone: going backwards is ignored.
	g.setConsumed(5)
	g.setConsumed(2)
	if err := g.acquire(1, 0, 0); err != nil {
		t.Fatal("acquire after setConsumed failed")
	}
	// A claim of several units waits for all of them.
	wide := newCreditGate("bytes", 10, nil, nil)
	if wide.acquire(6, 0, 0) != nil {
		t.Fatal("6 of 10 refused")
	}
	go func() { acquired <- wide.acquire(6, 0, 0) }()
	select {
	case <-acquired:
		t.Fatal("12 of 10 did not block")
	case <-time.After(20 * time.Millisecond):
	}
	wide.setConsumed(2)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	// fail releases waiters with the reason, nil meaning orderly shutdown.
	for _, reason := range []error{nil, ErrPeerDown} {
		g2 := newCreditGate("test", 1, nil, nil)
		g2.acquire(1, 0, 0)
		released := make(chan error, 1)
		go func() { released <- g2.acquire(1, 0, 0) }()
		time.Sleep(10 * time.Millisecond)
		g2.fail(reason)
		want := reason
		if want == nil {
			want = via.ErrClosed
		}
		if err := <-released; !errors.Is(err, want) {
			t.Fatalf("acquire on a gate failed with %v returned %v", reason, err)
		}
	}
}
