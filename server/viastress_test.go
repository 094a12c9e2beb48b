package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/via"
)

// newViaPair builds two viaTransports connected over one fabric — the
// same construction cluster.go performs for TransportVIA — and meshes
// them.
func newViaPair(t *testing.T, version netmodel.Version) (a, b *viaTransport) {
	t.Helper()
	vts, errs := newViaMesh(t, viaConfig{window: 8, batch: 4, chunk: 1 << 10, fileRing: 1 << 16}, version, version)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("connect(%d): %v", i, err)
		}
	}
	return vts[0], vts[1]
}

// newViaMesh builds one viaTransport per version on one fabric, each
// configured as base says, and connects them all at once; errs holds
// each one's connect.
func newViaMesh(t *testing.T, base viaConfig, versions ...netmodel.Version) (vts []*viaTransport, errs []error) {
	t.Helper()
	cfgs := make([]viaConfig, len(versions))
	for i, v := range versions {
		cfgs[i] = base
		cfgs[i].version = v
	}
	return newViaMeshOf(t, cfgs...)
}

// newViaMeshOf is newViaMesh with each node's configuration given whole;
// self and nodes are filled in.
func newViaMeshOf(t *testing.T, cfgs ...viaConfig) (vts []*viaTransport, errs []error) {
	t.Helper()
	fabric := via.NewFabric()
	t.Cleanup(func() { fabric.Close() })
	vts = make([]*viaTransport, len(cfgs))
	for i, cfg := range cfgs {
		nic, err := fabric.CreateNIC(fabricAddr(i))
		if err != nil {
			t.Fatalf("CreateNIC(%s): %v", fabricAddr(i), err)
		}
		cfg.self, cfg.nodes, cfg.account = i, len(cfgs), metrics.NewRegistry()
		vt, err := newViaTransport(nic, cfg)
		if err != nil {
			t.Fatalf("newViaTransport(%d): %v", i, err)
		}
		vts[i] = vt
		t.Cleanup(func() { vt.Close() })
	}
	var wg sync.WaitGroup
	errs = make([]error, len(vts))
	for i, vt := range vts {
		wg.Add(1)
		go func(i int, vt *viaTransport) {
			defer wg.Done()
			errs[i] = vt.connect(true)
		}(i, vt)
	}
	wg.Wait()
	return vts, errs
}

// TestViaTransportRaceStress drives both directions of a two-node mesh
// with concurrent senders while each side drains its inbound channel,
// under the communication styles of version 0 (everything on the
// regular send/receive channel, credit-window flow control) and
// version 5 (RMW rings everywhere plus zero-copy). Run with -race this
// exercises viatrans.go send paths against viarecv.go's receive and
// poll threads.
func TestViaTransportRaceStress(t *testing.T) {
	versions := netmodel.Versions()
	for _, version := range []netmodel.Version{versions[0], versions[5]} {
		version := version
		t.Run(version.Name, func(t *testing.T) {
			a, b := newViaPair(t, version)

			const (
				senders   = 3
				iters     = 20
				smallFile = 256
				largeFile = 4 << 10 // 4 chunks on the regular channel
			)
			wantMsgs := senders * iters // per control type, per direction
			wantBytes := senders * iters * (smallFile + largeFile)

			small := make([]byte, smallFile)
			large := make([]byte, largeFile)
			for i := range large {
				large[i] = byte(i)
			}

			var wg sync.WaitGroup
			sendErrs := make(chan error, 2*senders*iters*4)
			drive := func(from *viaTransport, dst int) {
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							batch := []*Message{
								{Type: core.MsgCaching, Name: fmt.Sprintf("f%d-%d", s, i), Cached: i%2 == 0, Load: -1},
								{Type: core.MsgLoad, Load: int32(i)},
								{Type: core.MsgFile, Load: -1, ReqID: uint64(s<<16 | i), Data: small, Total: smallFile},
								{Type: core.MsgFile, Load: -1, ReqID: uint64(s<<24 | i), Data: large, Total: largeFile},
							}
							for _, m := range batch {
								if err := from.Send(dst, m); err != nil {
									sendErrs <- fmt.Errorf("send %v from %d: %w", m.Type, from.cfg.self, err)
									return
								}
							}
						}
					}(s)
				}
			}

			drain := func(vt *viaTransport, done chan<- error) {
				caching, load, bytes := 0, 0, 0
				deadline := time.After(30 * time.Second)
				for caching < wantMsgs || load < wantMsgs || bytes < wantBytes {
					select {
					case m, ok := <-vt.Inbound():
						if !ok {
							done <- fmt.Errorf("node %d: inbound closed early", vt.cfg.self)
							return
						}
						switch m.Type {
						case core.MsgCaching:
							caching++
						case core.MsgLoad:
							load++
						case core.MsgFile:
							bytes += len(m.Data)
						}
					case <-deadline:
						done <- fmt.Errorf("node %d: timeout: caching %d/%d load %d/%d bytes %d/%d",
							vt.cfg.self, caching, wantMsgs, load, wantMsgs, bytes, wantBytes)
						return
					}
				}
				if caching != wantMsgs || load != wantMsgs || bytes != wantBytes {
					done <- fmt.Errorf("node %d: overshoot: caching %d load %d bytes %d",
						vt.cfg.self, caching, load, bytes)
					return
				}
				done <- nil
			}

			doneA := make(chan error, 1)
			doneB := make(chan error, 1)
			go drain(a, doneA)
			go drain(b, doneB)
			drive(a, 1)
			drive(b, 0)
			wg.Wait()
			close(sendErrs)
			for err := range sendErrs {
				t.Error(err)
			}
			if err := <-doneA; err != nil {
				t.Error(err)
			}
			if err := <-doneB; err != nil {
				t.Error(err)
			}
		})
	}
}

// rawPeer plays one node of a two-node VIA mesh by hand — a NIC, VIs
// with posted receives, and remote-writable regions standing in for its
// rings — so a test decides exactly when its setup frame and each of
// its remote writes happen.
type rawPeer struct {
	t     *testing.T
	nic   *via.NIC
	stage *via.MemoryRegion
	// The regions a setup frame announces, in frame order.
	flow, ctrl, meta, data *via.MemoryRegion
	// regBuf is the frame bound its setup frame announces: the
	// transport's own, as a peer with the same trace would.
	regBuf int
}

func newRawPeer(t *testing.T, fabric *via.Fabric, addr string) *rawPeer {
	t.Helper()
	nic, err := fabric.CreateNIC(addr)
	if err != nil {
		t.Fatal(err)
	}
	r := &rawPeer{t: t, nic: nic}
	for _, reg := range []struct {
		dst  **via.MemoryRegion
		size int
	}{
		{&r.stage, ctrlSlotSize}, {&r.flow, flowRegionSize}, {&r.ctrl, ctrlSlots * ctrlSlotSize},
		{&r.meta, fileMetaSlots * fileMetaSlotSize}, {&r.data, 1 << 16},
	} {
		if *reg.dst, err = nic.RegisterMemory(make([]byte, reg.size)); err != nil {
			t.Fatal(err)
		}
		(*reg.dst).EnableRemoteWrite()
	}
	return r
}

// newVI returns a VI with receives posted, ready to connect.
func (r *rawPeer) newVI() *via.VI {
	r.t.Helper()
	vi, err := r.nic.CreateVI(via.ReliableDelivery, 16)
	if err != nil {
		r.t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		reg, err := r.nic.RegisterMemory(make([]byte, 256))
		if err != nil {
			r.t.Fatal(err)
		}
		if err := vi.PostRecv(via.MustDescriptor(via.Segment{Region: reg, Len: 256})); err != nil {
			r.t.Fatal(err)
		}
	}
	return vi
}

// post stages frame and runs one transfer of it to completion.
func (r *rawPeer) post(frame []byte, post func(d *via.Descriptor) error) {
	r.t.Helper()
	if err := r.stage.Write(frame, 0); err != nil {
		r.t.Fatal(err)
	}
	d := via.MustDescriptor(via.Segment{Region: r.stage, Len: len(frame)})
	if err := post(d); err != nil {
		r.t.Fatal(err)
	}
	if err := d.Wait(5 * time.Second); err != nil {
		r.t.Fatal(err)
	}
}

// sendSetup announces the raw peer's regions, as viaTransport.sendSetup
// announces a real V5 node's.
func (r *rawPeer) sendSetup(vi *via.VI) {
	r.t.Helper()
	frame := make([]byte, setupLen)
	frame[0], frame[1] = setupMagic, 5
	for i, reg := range []*via.MemoryRegion{r.flow, r.ctrl, r.meta, r.data} {
		binary.LittleEndian.PutUint32(frame[2+4*i:], uint32(reg.Handle()))
	}
	binary.LittleEndian.PutUint64(frame[18:], uint64(r.data.Size()))
	binary.LittleEndian.PutUint32(frame[26:], uint32(r.regBuf))
	r.post(frame, vi.PostSend)
}

// writeCtrl remote-writes m into slot seq (1-based) of the control ring
// behind handle, as slotRing.writeEntry does.
func (r *rawPeer) writeCtrl(vi *via.VI, handle via.Handle, seq uint32, m *Message) {
	r.t.Helper()
	payload, err := m.Encode(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	slot := make([]byte, ctrlSlotSize)
	binary.LittleEndian.PutUint32(slot, uint32(len(payload)))
	copy(slot[4:], payload)
	binary.LittleEndian.PutUint32(slot[ctrlSlotSize-4:], seq)
	off := int(seq-1) % ctrlSlots * ctrlSlotSize
	r.post(slot, func(d *via.Descriptor) error { return vi.PostRDMAWrite(d, handle, off) })
}

// newRawMesh builds one real V5 transport (node self of two) on a fresh
// fabric beside a raw peer playing the other node.
func newRawMesh(t *testing.T, self int) (*viaTransport, *rawPeer) {
	t.Helper()
	fabric := via.NewFabric()
	t.Cleanup(fabric.Close)
	nic, err := fabric.CreateNIC(fabricAddr(self))
	if err != nil {
		t.Fatal(err)
	}
	vt, err := newViaTransport(nic, viaConfig{
		self: self, nodes: 2, version: netmodel.Versions()[5],
		window: 8, batch: 4, chunk: 1 << 10, fileRing: 1 << 16,
		account: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vt.Close() })
	raw := newRawPeer(t, fabric, fabricAddr(1-self))
	raw.regBuf = vt.layout.regBuf
	return vt, raw
}

// acceptTransport connects the raw peer (node 1) to the transport and
// returns once the transport's setup frame has arrived: from there on its
// rings are writable, while the channel is not ready until the test calls
// raw.sendSetup. connected reports the transport's connect.
func acceptTransport(t *testing.T, vt *viaTransport, raw *rawPeer) (vi *via.VI, connected <-chan error) {
	t.Helper()
	ln, err := raw.nic.Listen("press-1")
	if err != nil {
		t.Fatal(err)
	}
	vi = raw.newVI()
	done := make(chan error, 1)
	go func() { done <- vt.connect(true) }()
	if _, err := ln.Accept(vi); err != nil {
		t.Fatal(err)
	}
	c, err := vi.RecvWait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.Desc.Err() != nil || vt.peer(1) == nil {
		t.Fatalf("no setup frame from the transport: %v", c.Desc.Err())
	}
	return vi, done
}

// expectInbound waits for the next inbound message and checks it is the
// load report a test's raw peer wrote.
func expectInbound(t *testing.T, vt *viaTransport, load int32) {
	t.Helper()
	select {
	case m := <-vt.Inbound():
		if m.Type != core.MsgLoad || m.Load != load {
			t.Fatalf("inbound %+v, want load %d", m, load)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("load %d was written into the ring and never delivered", load)
	}
}

// TestViaPollWriteBeforeReady: a peer may write into our rings as soon
// as it has OUR setup frame, before ITS frame completes the channel. The
// poll thread passes such a write over — the channel is not ready — and
// nothing else will ever ring for it, so the arrival of the peer's setup
// frame must itself send the poll thread back to the rings.
func TestViaPollWriteBeforeReady(t *testing.T) {
	vt, raw := newRawMesh(t, 0)
	vi, connected := acceptTransport(t, vt, raw)
	p := vt.peer(1)
	raw.writeCtrl(vi, p.inCtrl.region.Handle(), 1, &Message{Type: core.MsgLoad, From: 1, Load: 7})
	// Two wakes, both empty: the peer-table kick, then this write's bell.
	waitFor(t, 5*time.Second, "the poll thread to pass the early write over", func() bool {
		return vt.Metrics().PollEmpty >= 2
	})
	select {
	case m := <-vt.Inbound():
		t.Fatalf("%+v delivered on a channel that is not ready", m)
	default:
	}
	raw.sendSetup(vi)
	expectInbound(t, vt, 7)
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
}

// TestViaRefusesForeignFrom: From is a uint16 off the wire, and the main
// loop and the directory index per-peer tables with it. A frame or a
// control-ring slot that names anyone but the channel's peer — an id past
// the cluster, a third node's, our own — must never reach Inbound, and
// must still be counted as a consumed slot so the sender's window does
// not shrink.
func TestViaRefusesForeignFrom(t *testing.T) {
	vt, raw := newRawMesh(t, 0)
	vi, connected := acceptTransport(t, vt, raw)
	raw.sendSetup(vi)
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	p := vt.peer(1)
	foreign := []int{65535, 2, 0}

	// Regular channel: three refused frames and one good one are a whole
	// credit batch (4), which the transport returns by writing the count
	// into our flow region.
	sendRegular := func(m *Message) {
		frame, err := m.Encode(nil)
		if err != nil {
			t.Fatal(err)
		}
		raw.post(frame, vi.PostSend)
	}
	for _, from := range foreign {
		sendRegular(&Message{Type: core.MsgLoad, From: from, Load: 66})
	}
	sendRegular(&Message{Type: core.MsgLoad, From: 1, Load: 7})
	expectInbound(t, vt, 7)
	waitFor(t, 5*time.Second, "the refused frames' credits to come back", func() bool {
		var buf [8]byte
		return raw.flow.Read(buf[:], flowRegChannel) == nil && binary.LittleEndian.Uint64(buf[:]) == 4
	})

	// Control ring: the same, slot by slot.
	for i, from := range foreign {
		raw.writeCtrl(vi, p.inCtrl.region.Handle(), uint32(i+1), &Message{Type: core.MsgLoad, From: from, Load: 66})
	}
	raw.writeCtrl(vi, p.inCtrl.region.Handle(), uint32(len(foreign)+1), &Message{Type: core.MsgLoad, From: 1, Load: 8})
	expectInbound(t, vt, 8)
	select {
	case m := <-vt.Inbound():
		t.Fatalf("%+v delivered besides the two genuine messages", m)
	default:
	}
}

// TestViaOneDialPerPeer: a channel has one dial at a time. While the
// mesh's first dial to a peer waits for it to accept, a probe's Reconnect
// dials no second channel beside it: two in flight could land on the
// acceptor in one order and be promoted by the dialer in the other,
// leaving each end holding the channel the other retired.
func TestViaOneDialPerPeer(t *testing.T) {
	vt, raw := newRawMesh(t, 0)
	ln, err := raw.nic.Listen("press-1")
	if err != nil {
		t.Fatal(err)
	}
	connected := make(chan error, 1)
	go func() { connected <- vt.connect(true) }()
	waitFor(t, 5*time.Second, "the mesh's dial to node 1", func() bool { return vt.dialing[1].Load() })
	if err := vt.Reconnect(1); !errors.Is(err, errDialing) {
		t.Fatalf("Reconnect beside the mesh's dial: %v, want %v", err, errDialing)
	}
	vi := raw.newVI()
	if _, err := ln.Accept(vi); err != nil {
		t.Fatal(err)
	}
	raw.sendSetup(vi)
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	if vt.dialing[1].Load() {
		t.Fatal("the finished dial still holds node 1")
	}
}

// TestViaCloseJoinsParkedPoller: an idle poll thread is parked on the
// doorbell with nothing coming; Close must wake it and wait it out.
func TestViaCloseJoinsParkedPoller(t *testing.T) {
	a, b := newViaPair(t, netmodel.Versions()[5])
	for _, vt := range []*viaTransport{a, b} {
		// The kicks of the setup exchange may still be in hand; parked is
		// when the wake count stops moving.
		waitQuiet(t, "the poll thread to park", func() int64 { return vt.Metrics().PollWakes })
		closed := make(chan struct{})
		go func() {
			vt.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("node %d: Close did not join the poll thread", vt.cfg.self)
		}
		if _, open := <-vt.Inbound(); open {
			t.Errorf("node %d: inbound still open after Close", vt.cfg.self)
		}
	}
}

// TestCtrlRingPollsDoNotAlias: the control ring decodes every slot out
// of one scratch array, and a bridge peer may put a payload on any
// control slot, so a payload must be copied out before the next slot is
// polled. Two payloads written back to back and drained in one pass must
// both arrive intact.
func TestCtrlRingPollsDoNotAlias(t *testing.T) {
	vt, raw := newRawMesh(t, 0)
	vi, connected := acceptTransport(t, vt, raw)
	// Both slots are in the ring before the channel is ready, so one
	// drain polls them back to back.
	ctrl := vt.peer(1).inCtrl.region.Handle()
	digests := [][]byte{bytes.Repeat([]byte{0xA1}, 48), bytes.Repeat([]byte{0xB2}, 48)}
	for i, d := range digests {
		raw.writeCtrl(vi, ctrl, uint32(i+1), &Message{Type: core.MsgLoad, From: 1, Load: int32(i), Data: d})
	}
	raw.sendSetup(vi)
	if err := <-connected; err != nil {
		t.Fatal(err)
	}
	var got []Message
	for range digests {
		select {
		case m := <-vt.Inbound():
			got = append(got, m)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d digests delivered", len(got), len(digests))
		}
	}
	for i, m := range got {
		if m.Load != int32(i) || !bytes.Equal(m.Data, digests[i]) {
			t.Errorf("message %d: load %d, digest %x..., want load %d, %x...", i, m.Load, m.Data[:4], i, digests[i][:4])
		}
	}
}

// TestRecvBufNotRecycledUnderReader: a forwarded reply's receive buffer
// goes back to the pool only after the body has been written to the
// client. Many keep-alive clients fetch a file set that sits in one pool
// class — on V0 the two-chunk reassembly buffers and the chunk frames
// share it — with no two files the same length, through every node of a
// 4-node cluster; a buffer released while anyone can still read it is
// refilled by another reply at once and shows as a wrong body, or as a
// race under -race.
func TestRecvBufNotRecycledUnderReader(t *testing.T) {
	const (
		nodes    = 4
		files    = 16
		workers  = 12
		requests = 120 // per worker
	)
	for _, tp := range recvBufTransports {
		t.Run(tp.name, func(t *testing.T) {
			tr := uniformTrace(files, 36<<10, 1500)
			cl := startRecvBufCluster(t, tr, nodes, tp.kind, tp.version, nil)
			want := make([][]byte, files)
			for id, f := range tr.Files {
				want[id] = SynthesizeContent(f.Name, f.Size)
				warmAt(t, cl, tr, id, id%nodes)
			}
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
			defer client.CloseIdleConnections()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < requests; i++ {
						id, node := rng.Intn(files), rng.Intn(nodes)
						resp, err := client.Get(cl.URL(node) + tr.Files[id].Name)
						if err != nil {
							t.Error(err)
							return
						}
						got, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Errorf("%s via node %d: %s, %v", tr.Files[id].Name, node, resp.Status, err)
							return
						}
						if !bytes.Equal(got, want[id]) {
							t.Errorf("%s via node %d: wrong body (%d bytes, want %d)",
								tr.Files[id].Name, node, len(got), len(want[id]))
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if fwd := cl.Stats().Nodes.Forwarded; fwd < workers*requests/2 {
				t.Fatalf("only %d of %d requests were forwarded", fwd, workers*requests)
			}
		})
	}
}

// TestViaSetupVersionMismatch: two ends of a channel that run different
// versions would each remote-write regions the other never registered,
// and two that bound regular frames differently (traces whose longest
// names differ) would break each other's receive scatter. The setup
// frame carries version and frame bound, so both ends fail the channel
// with the named error instead — no protection fault, no broken VI, no
// panic.
func TestViaSetupVersionMismatch(t *testing.T) {
	vs := netmodel.Versions()
	cfg := func(v netmodel.Version, names nameTable) viaConfig {
		return viaConfig{version: v, names: names, window: 8, batch: 4, chunk: 1 << 10, fileRing: 1 << 16}
	}
	long := "/" + strings.Repeat("n", dirSyncSegBytes+100)
	for _, tc := range []struct {
		name string
		a, b viaConfig
		want error
	}{
		{"version", cfg(vs[0], nil), cfg(vs[5], nil), errVersionMismatch},
		{"frame bound", cfg(vs[5], nil), cfg(vs[5], nameTable{long: long}), errFrameBoundMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vts, errs := newViaMeshOf(t, tc.a, tc.b)
			// Node 0 dials, and its connect reports; node 1 accepted, and
			// fails the channel it promoted.
			waitFor(t, 5*time.Second, "node 1 to fail its channel to node 0", func() bool {
				p := vts[1].peer(0)
				return p != nil && p.downErr() != nil
			})
			for i, err := range []error{errs[0], vts[1].peer(0).failErr} {
				if !errors.Is(err, tc.want) || errors.Is(err, via.ErrProtection) || errors.Is(err, via.ErrBroken) {
					t.Errorf("node %d (%s, %d-byte frames): channel failed with %v, want %v",
						i, vts[i].cfg.version.Name, vts[i].layout.regBuf, err, tc.want)
				}
			}
		})
	}
}

// TestPeerFootprint: a peer registers only what its version writes. The
// regular channel's stage and its window+8 receive buffers are sized by
// the largest frame the channel carries: header, every extension, and a
// directory-sync segment, a file chunk when files ride this channel, or
// the longest name of the trace, whichever is longest. The control ring
// exists when forwards or caching messages are remote writes, the file
// rings when files are, the flow region when credits are; the file
// staging area is registered by the first file that needs a copy. Ten
// reconnects leave as much registered as before them.
func TestPeerFootprint(t *testing.T) {
	const (
		fileRing = 1 << 20
		ctrl     = ctrlSlotSize + ctrlSlots*ctrlSlotSize
		file     = fileMetaSlotSize + fileMetaSlots*fileMetaSlotSize + fileRing
		flow     = 2 * flowRegionSize
	)
	// The frame bound: files chunked on the regular channel, or not.
	chunked := msgHeaderLen + msgMaxExtLen + viaChunkBytes
	ringed := msgHeaderLen + msgMaxExtLen + dirSyncSegBytes
	vs := netmodel.Versions()
	for _, tc := range []struct {
		version          netmodel.Version
		regBuf           int
		ctrl, file, flow bool
	}{
		{vs[0], chunked, false, false, false},
		{vs[1], chunked, false, false, true},
		{vs[2], chunked, true, false, true},
		{vs[3], ringed, true, true, true},
		{vs[4], ringed, true, true, true},
		{vs[5], ringed, true, true, true},
	} {
		t.Run(tc.version.Name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			vts, errs := newViaMesh(t, viaConfig{
				window: viaWindow, batch: viaBatch, chunk: viaChunkBytes, fileRing: fileRing, metrics: reg,
			}, tc.version, tc.version)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("connect(%d): %v", i, err)
				}
			}
			a, b := vts[0], vts[1]
			p := a.peer(1)
			want := (1 + viaWindow + 8) * tc.regBuf
			for _, part := range []struct {
				on    bool
				bytes int
			}{{tc.ctrl, ctrl}, {tc.file, file}, {tc.flow, flow}} {
				if part.on {
					want += part.bytes
				}
			}
			if a.layout.regBuf != tc.regBuf || footprint(p) != want {
				t.Fatalf("regular frames of %d bytes, %d registered per peer; want %d and %d",
					a.layout.regBuf, footprint(p), tc.regBuf, want)
			}
			ctrlIn, metaIn, _ := p.inRegions()
			if (ctrlIn != nil) != tc.ctrl || (metaIn != nil) != tc.file || (p.flowIn != nil) != tc.flow || p.fileStage != nil {
				t.Fatalf("control ring %v, file rings %v, flow region %v, staging %v; want %v, %v, %v, false",
					ctrlIn != nil, metaIn != nil, p.flowIn != nil, p.fileStage != nil, tc.ctrl, tc.file, tc.flow)
			}
			// Each NIC holds its live channel and the accept loop's spare.
			for _, vt := range vts {
				waitFor(t, 5*time.Second, "the accept loop's spare peer", func() bool {
					return vt.nic.RegisteredBytes() == int64(2*want)
				})
			}

			// A frame at the bound is delivered; one byte over it is refused
			// at the sender, its credit returned.
			atBound := make([]byte, tc.regBuf-msgHeaderLen)
			if err := a.Send(1, &Message{Type: core.MsgDirSync, Load: -1, Data: atBound}); err != nil {
				t.Fatalf("a frame of %d bytes: %v", tc.regBuf, err)
			}
			expectDirSync(t, b, len(atBound))
			sent, _ := p.regGate.inFlight()
			if err := a.Send(1, &Message{Type: core.MsgDirSync, Load: -1, Data: append(atBound, 0)}); err == nil {
				t.Fatalf("a frame of %d bytes sent on a %d-byte channel", tc.regBuf+1, tc.regBuf)
			}
			if after, _ := p.regGate.inFlight(); after != sent {
				t.Fatalf("the refused frame kept its credit: sent %d -> %d", sent, after)
			}

			// A reconnect is a channel that replaces an earlier one: the
			// first, dialed by connect, is none, and each forced one counts
			// on both ends.
			reconnects := func(want int64) {
				t.Helper()
				for i := range vts {
					if got := reg.Counter("press_reconnects_total", fmt.Sprintf("node=%d", i)).Value(); got != want {
						t.Fatalf("node %d: press_reconnects_total %d, want %d", i, got, want)
					}
				}
			}
			reconnects(0)
			levels := []int64{a.nic.RegisteredBytes(), b.nic.RegisteredBytes()}
			for i := 0; i < 10; i++ {
				if err := a.Reconnect(1); err != nil {
					t.Fatalf("reconnect %d: %v", i+1, err)
				}
			}
			for i, vt := range vts {
				waitFor(t, 5*time.Second, "the retired peers' memory to be released", func() bool {
					return vt.nic.RegisteredBytes() == levels[i]
				})
			}
			reconnects(10)

			// Staging: every file sent with remote writes needs it but a
			// zero-copy one from a registered page.
			data := bytes.Repeat([]byte("footprint"), 512)
			src, err := a.nic.RegisterMemory(append([]byte(nil), data...))
			if err != nil {
				t.Fatal(err)
			}
			p = a.peer(1)
			sendFile(t, a, b, data, src)
			staged := tc.file && !tc.version.ZeroCopyTX
			if (p.fileStage != nil) != staged {
				t.Fatalf("staging registered %v after a file from a registered page, want %v", p.fileStage != nil, staged)
			}
			if tc.version.ZeroCopyTX {
				// The first file without a registered page registers it,
				// and is staged, delivered and counted once.
				before := a.nic.RegisteredBytes()
				sendFile(t, a, b, data, nil)
				if p.fileStage == nil || a.nic.RegisteredBytes() != before+fileRing {
					t.Fatalf("no staging area after a file without a registered page (%d -> %d bytes registered)",
						before, a.nic.RegisteredBytes())
				}
				if a.Metrics().CopiedBytes != int64(len(data)) || b.Metrics().CopiedBytes != 0 {
					t.Fatalf("copied %d bytes sending and %d receiving, want %d and 0",
						a.Metrics().CopiedBytes, b.Metrics().CopiedBytes, len(data))
				}
			}
		})
	}
	t.Run("long name", func(t *testing.T) {
		long := "/" + strings.Repeat("n", dirSyncSegBytes+100)
		vts, errs := newViaMesh(t, viaConfig{
			window: 8, batch: 4, chunk: 1 << 10, fileRing: 1 << 16, names: nameTable{long: long},
		}, vs[5], vs[5])
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := vts[0].layout.regBuf, msgHeaderLen+msgMaxExtLen+len(long); got != want {
			t.Fatalf("regular frames of %d bytes under a %d-byte name, want %d", got, len(long), want)
		}
	})
}

// footprint is the memory registered for p's channel.
func footprint(p *viaPeer) int {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	n := 0
	for _, r := range p.owned {
		n += r.Size()
	}
	return n
}

// expectDirSync waits for the directory-sync segment of n bytes a test sent.
func expectDirSync(t *testing.T, vt *viaTransport, n int) {
	t.Helper()
	select {
	case m := <-vt.Inbound():
		if m.Type != core.MsgDirSync || len(m.Data) != n {
			t.Fatalf("inbound %v of %d bytes, want a %d-byte segment", m.Type, len(m.Data), n)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("the %d-byte segment was never delivered", n)
	}
}

// sendFile sends data from a to b as a file reply, from src when
// non-nil, and checks it arrives byte-exact.
func sendFile(t *testing.T, a, b *viaTransport, data []byte, src *via.MemoryRegion) {
	t.Helper()
	m := &Message{Type: core.MsgFile, Load: -1, ReqID: 7, Data: data, Total: uint32(len(data)), SrcRegion: src}
	if err := a.Send(1, m); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Inbound():
		if got.Type != core.MsgFile || !bytes.Equal(got.Data, data) {
			t.Fatalf("inbound %v of %d bytes, want the %d-byte file", got.Type, len(got.Data), len(data))
		}
		got.buf.release()
	case <-time.After(5 * time.Second):
		t.Fatal("the file was never delivered")
	}
}
