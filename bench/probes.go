package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"press/cache"
	"press/cluster"
	"press/core"
	"press/netmodel"
	"press/server"
	"press/trace"
	"press/tracing"
	"press/via"
)

// Layer probes: the benchmark timing calls into each layer's exported
// functions in isolation. Op counts are fixed, every probe runs
// probeReps times after one unmeasured pass, and the median is reported.
// Each probe is recorded as a benchmark-side span on col.

const probeReps = 5

// timed is one probe's outcome: median time and median mallocs per op.
type timed struct {
	ns     float64
	allocs float64
}

// prober runs probes, records their spans and keeps the first failure.
type prober struct {
	col *tracing.Collector
	err error
}

// run times fn(ops). Mallocs per op are floored as testing.AllocsPerRun
// floors them: background activity only ever adds a stray malloc.
func (p *prober) run(name string, ops int, fn func(ops int) error) timed {
	if p.err != nil {
		return timed{}
	}
	span := p.col.StartTrace("probe:" + name)
	span.Annotate("ops", int64(ops))
	defer span.End()
	ns := make([]float64, 0, probeReps)
	allocs := make([]float64, 0, probeReps)
	var before, after runtime.MemStats
	for rep := -1; rep < probeReps; rep++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := fn(ops)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			p.err = fmt.Errorf("probe %s: %w", name, err)
			return timed{}
		}
		if rep < 0 {
			continue
		}
		ns = append(ns, float64(took)/float64(ops))
		allocs = append(allocs, float64((after.Mallocs-before.Mallocs)/uint64(ops)))
	}
	return timed{ns: median(ns), allocs: median(allocs)}
}

// mbps converts ns per op of size bytes into MB/s.
func mbps(size int, ns float64) float64 { return ratio(float64(size)*1e3, ns) }

// completionWait bounds one wait for a completion; nothing on loopback
// takes this long unless a datagram was lost.
const completionWait = 2 * time.Second

var errNotLanded = errors.New("remote write did not land")

// awaitWord polls the first word of a region until it reads want, as the
// server's poll thread watches a ring's sequence number. The poll does
// not yield: a yielding poller keeps both of this box's Ps busy and the
// UDP bridge's reader waits for the network poller's next forced pass.
func awaitWord(r *via.MemoryRegion, want uint64) error {
	var deadline time.Time
	for i := 1; ; i++ {
		if got, err := r.Load64(0); err != nil {
			return err
		} else if got == want {
			return nil
		}
		if i%4096 == 0 {
			if deadline.IsZero() {
				deadline = time.Now().Add(completionWait)
			} else if time.Now().After(deadline) {
				return errNotLanded
			}
		}
	}
}

// viaPair is two connected VIs, a on NIC na and b on NIC nb.
type viaPair struct {
	na, nb *via.NIC
	a, b   *via.VI
	close  func()
}

const probeService = "probe"

// connectPair dials a from na to the listener on nb.
func connectPair(na, nb *via.NIC, remoteAddr string) (a, b *via.VI, err error) {
	ln, err := nb.Listen(probeService)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	if b, err = nb.CreateVI(via.ReliableDelivery, 64); err != nil {
		return nil, nil, err
	}
	if a, err = na.CreateVI(via.ReliableDelivery, 64); err != nil {
		return nil, nil, err
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := ln.Accept(b)
		accepted <- err
	}()
	if err := a.Connect(remoteAddr, probeService); err != nil {
		return nil, nil, err
	}
	return a, b, <-accepted
}

// localPair joins two NICs of one in-process fabric.
func localPair() (*viaPair, error) {
	f := via.NewFabric()
	p := &viaPair{close: f.Close}
	var err error
	if p.na, err = f.CreateNIC("a"); err == nil {
		if p.nb, err = f.CreateNIC("b"); err == nil {
			p.a, p.b, err = connectPair(p.na, p.nb, "b")
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// bridgedPair joins two single-NIC fabrics by two UDP bridges over
// loopback sockets: the topology two pressd processes form, in one.
func bridgedPair() (*viaPair, error) {
	fa, fb := via.NewFabric(), via.NewFabric()
	closers := []func(){fa.Close, fb.Close}
	p := &viaPair{close: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	err := func() error {
		var err error
		if p.na, err = fa.CreateNIC("a"); err != nil {
			return err
		}
		if p.nb, err = fb.CreateNIC("b"); err != nil {
			return err
		}
		ba, err := via.NewUDPBridge(fa, "127.0.0.1:0")
		if err != nil {
			return err
		}
		closers = append(closers, ba.Close)
		bb, err := via.NewUDPBridge(fb, "127.0.0.1:0")
		if err != nil {
			return err
		}
		closers = append(closers, bb.Close)
		if err := ba.Proxy("b", bb.Addr(), probeService); err != nil {
			return err
		}
		if err := bb.Proxy("a", ba.Addr(), probeService); err != nil {
			return err
		}
		p.a, p.b, err = connectPair(p.na, p.nb, "b")
		return err
	}()
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// send returns a probe body moving size bytes from a to b per op: post a
// receive, post the send, wait for both completions. Descriptors are
// fresh per op and waits block, as in the server's transport.
func (p *viaPair) send(size int) (func(ops int) error, error) {
	sreg, err := p.na.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	rreg, err := p.nb.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	return func(ops int) error {
		for i := 0; i < ops; i++ {
			rd := via.MustDescriptor(via.Segment{Region: rreg, Len: size})
			if err := p.b.PostRecv(rd); err != nil {
				return err
			}
			sd := via.MustDescriptor(via.Segment{Region: sreg, Len: size})
			if err := p.a.PostSend(sd); err != nil {
				return err
			}
			// The receive completes first and is still pending when the
			// wait starts; the send has completed by the time it ends.
			// In that order the waits allocate the same on every op.
			if err := rd.Wait(completionWait); err != nil {
				return err
			}
			if err := sd.Wait(completionWait); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// rdma returns a probe body writing size bytes into b's memory per op.
// The first word carries a sequence number and the op ends when the
// target memory shows it: at once in process, after the wire over UDP.
func (p *viaPair) rdma(size int) (func(ops int) error, error) {
	sreg, err := p.na.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	rreg, err := p.nb.RegisterMemory(make([]byte, size))
	if err != nil {
		return nil, err
	}
	rreg.EnableRemoteWrite()
	var seq uint64
	return func(ops int) error {
		for i := 0; i < ops; i++ {
			seq++
			if err := sreg.Store64(0, seq); err != nil {
				return err
			}
			d := via.MustDescriptor(via.Segment{Region: sreg, Len: size})
			if err := p.a.PostRDMAWrite(d, rreg.Handle(), 0); err != nil {
				return err
			}
			if err := d.Wait(completionWait); err != nil {
				return err
			}
			if err := awaitWord(rreg, seq); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// viaProbes runs the paper's Section 3.2 measurements against one pair:
// a 4-byte send, a 32 KiB send and a 4 KiB remote write. ops are divided
// by scale.
func (p *prober) viaProbes(prefix string, pair *viaPair, scale int) (send4b, send32k, rdma4k timed) {
	s4, err1 := pair.send(4)
	s32, err2 := pair.send(32 << 10)
	r4, err3 := pair.rdma(4 << 10)
	if err := errors.Join(err1, err2, err3); err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("probe %s: %w", prefix, err)
		}
		return
	}
	return p.run(prefix+"send_4b", 4000/scale, s4),
		p.run(prefix+"send_32k", 400/scale, s32),
		p.run(prefix+"rdma_4k", 2000/scale, r4)
}

// staticView is a fixed cluster state for the policy probe.
type staticView struct{ dir *cache.Directory }

func (s staticView) Cachers(id cache.FileID) cache.NodeSet { return s.dir.Cachers(id) }
func (s staticView) Load(int) int                          { return 0 }
func (s staticView) LoadKnown() bool                       { return true }
func (s staticView) Nodes() int                            { return s.dir.Nodes() }

// sink keeps the compiler from discarding a probed call's result.
var sink int

// probes runs every layer probe and returns the per-layer metrics they
// produce.
func probes(col *tracing.Collector) (Values, error) {
	v := Values{}
	p := &prober{col: col}

	local, err := localPair()
	if err != nil {
		return nil, fmt.Errorf("probe via: %w", err)
	}
	s4, s32, r4 := p.viaProbes("via.", local, 1)
	local.close()
	v.set("via.send_4b_ns", s4.ns)
	v.set("via.send_4b_allocs", s4.allocs)
	v.set("via.send_32k_mbps", mbps(32<<10, s32.ns))
	v.set("via.rdma_4k_ns", r4.ns)
	v.set("via.rdma_4k_allocs", r4.allocs)
	// A UDP round trip costs about ten in-process ones; a tenth of the
	// ops keeps the probe as short.
	bridged, err := bridgedPair()
	if err != nil {
		return nil, fmt.Errorf("probe via.udp: %w", err)
	}
	s4, s32, r4 = p.viaProbes("via.udp.", bridged, 10)
	bridged.close()
	v.set("via.udp.send_4b_ns", s4.ns)
	v.set("via.udp.send_4b_allocs", s4.allocs)
	v.set("via.udp.send_32k_mbps", mbps(32<<10, s32.ns))
	v.set("via.udp.rdma_4k_ns", r4.ns)

	// server.codec: a Forward and a 32 KiB File chunk.
	small := &server.Message{Type: core.MsgForward, From: 1, Load: 3, ReqID: 77, Name: "/fwd/doc000123.html"}
	chunk := &server.Message{Type: core.MsgFile, From: 2, Load: 3, ReqID: 77, Data: make([]byte, 32<<10), Total: 64 << 10}
	for _, c := range []struct {
		label string
		m     *server.Message
		ops   int
	}{{"small", small, 200000}, {"32k", chunk, 20000}} {
		buf := make([]byte, 0, c.m.EncodedLen())
		enc := p.run("server.codec.encode_"+c.label, c.ops, func(ops int) error {
			for i := 0; i < ops; i++ {
				out, err := c.m.Encode(buf[:0])
				if err != nil {
					return err
				}
				sink += len(out)
			}
			return nil
		})
		wire, _ := c.m.Encode(buf[:0])
		dec := p.run("server.codec.decode_"+c.label, c.ops, func(ops int) error {
			for i := 0; i < ops; i++ {
				m, err := server.DecodeMessage(wire)
				if err != nil {
					return err
				}
				sink += len(m.Name)
			}
			return nil
		})
		v.set("server.codec.encode_"+c.label+"_ns", enc.ns)
		v.set("server.codec.decode_"+c.label+"_ns", dec.ns)
		if c.m == small {
			v.set("server.codec.encode_allocs", enc.allocs)
			v.set("server.codec.decode_allocs", dec.allocs)
		}
	}

	// server.store: one 8 KiB read at the smallest delay the store takes.
	one := &trace.Trace{Name: "probe", Files: []trace.File{{Name: "/probe/8k", Size: 8 << 10}}}
	store := server.NewStore(one, time.Nanosecond)
	v.set("server.store.read_8k_ns", p.run("server.store.read_8k", 200, func(ops int) error {
		for i := 0; i < ops; i++ {
			data, err := store.Read("/probe/8k")
			if err != nil {
				return err
			}
			sink += len(data)
		}
		return nil
	}).ns)

	// cache: an LRU of 1024 unit files, a 4-node directory and ring.
	const slots = 1024
	lru := cache.NewLRU(slots)
	for id := cache.FileID(0); id < slots; id++ {
		lru.Insert(id, 1)
	}
	v.set("cache.lru.touch_ns", p.run("cache.lru.touch", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			if lru.Touch(cache.FileID(i % slots)) {
				sink++
			}
		}
		return nil
	}).ns)
	next := cache.FileID(slots)
	v.set("cache.lru.insert_evict_ns", p.run("cache.lru.insert_evict", 200000, func(ops int) error {
		for i := 0; i < ops; i++ {
			evicted, _ := lru.Insert(next, 1)
			sink += len(evicted)
			next++
		}
		return nil
	}).ns)
	dir := cache.NewDirectory(4, 4096)
	v.set("cache.directory.set_cached_ns", p.run("cache.directory.set_cached", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			dir.SetCached(cache.FileID(i%4096), i%4, i&4096 == 0)
		}
		return nil
	}).ns)
	for id := cache.FileID(0); id < 4096; id++ {
		dir.SetCached(id, int(id)%4, true)
	}
	v.set("cache.directory.cachers_ns", p.run("cache.directory.cachers", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			sink += dir.Cachers(cache.FileID(i % 4096)).Len()
		}
		return nil
	}).ns)
	ring := cache.NewRing(4, 0)
	alive := cache.NodeSetOf(0, 1, 2, 3)
	v.set("cache.ring.owner_ns", p.run("cache.ring.owner", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			sink += ring.Owner(uint64(i), alive)
		}
		return nil
	}).ns)

	// core: a remote-hit decision and a flow-control credit count.
	policy := core.NewPolicy(core.DefaultPolicy())
	view := staticView{dir}
	v.set("core.policy.decide_ns", p.run("core.policy.decide", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			sink += policy.Decide(i%4, cache.FileID(i%4096), 1<<10, false, view).Service
		}
		return nil
	}).ns)
	flow := core.NewFlowControl(4, 2*core.DefaultWindow, core.DefaultCreditBatch)
	v.set("core.flow.on_data_ns", p.run("core.flow.on_data", 500000, func(ops int) error {
		for i := 0; i < ops; i++ {
			if flow.OnData(0, 1) {
				sink++
			}
		}
		return nil
	}).ns)

	// trace: the churn population. cluster: 20 k simulated requests, PB,
	// VIA V0, as wall-clock requests per second of the simulator.
	v.set("trace.synthesize_ms", p.run("trace.synthesize", 1, func(int) error {
		sink += len(churnFiles().Files)
		return nil
	}).ns/1e6)
	const simRequests = 20000
	simTrace, err := trace.Synthesize(trace.Spec{
		Name: "sim", NumFiles: 4096, AvgFileKB: 8, AvgReqKB: 6, NumRequests: simRequests, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	sim := p.run("cluster.sim", 1, func(int) error {
		res, err := cluster.Run(cluster.Config{
			Nodes: 4, Trace: simTrace, Combo: netmodel.VIAOverCLAN(),
			Version: netmodel.Versions()[0], Dissemination: core.PB(), Seed: 1,
		})
		if err != nil {
			return err
		}
		sink += int(res.Requests)
		return nil
	})
	if p.err != nil {
		return nil, p.err
	}
	v.set("cluster.sim.reqs_per_s", simRequests/(sim.ns/1e9))
	return v, nil
}
