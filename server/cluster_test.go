package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"press/cache"
	"press/core"
	"press/metrics"
	"press/netmodel"
	"press/trace"
	"press/via"
)

// serverTestTrace is a small file population for end-to-end tests.
func serverTestTrace(t testing.TB, files int) *trace.Trace {
	t.Helper()
	tr, err := trace.Synthesize(trace.Spec{
		Name: "srv", NumFiles: files, AvgFileKB: 8,
		NumRequests: files * 10, AvgReqKB: 6, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testClusterConfig(tr *trace.Trace, kind TransportKind) Config {
	return Config{
		Nodes:      3,
		Trace:      tr,
		Transport:  kind,
		CacheBytes: 1 << 20,
		DiskDelay:  100 * time.Microsecond,
	}
}

func fetchAll(t *testing.T, cl *Cluster, tr *trace.Trace, rounds int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	addrs := cl.Addrs()
	for r := 0; r < rounds; r++ {
		for _, f := range tr.Files {
			node := rng.Intn(len(addrs))
			got, err := Fetch("http://"+addrs[node], f.Name)
			if err != nil {
				t.Fatalf("round %d %s via node %d: %v", r, f.Name, node, err)
			}
			want := SynthesizeContent(f.Name, f.Size)
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: %s content mismatch (%d vs %d bytes)", r, f.Name, len(got), len(want))
			}
		}
	}
}

func TestClusterTCPEndToEnd(t *testing.T) {
	tr := serverTestTrace(t, 24)
	cl, err := Start(testClusterConfig(tr, TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, tr, 3, 1)

	s := cl.Stats()
	if s.Nodes.Requests != int64(3*len(tr.Files)) {
		t.Errorf("requests = %d", s.Nodes.Requests)
	}
	if s.Nodes.Errors != 0 {
		t.Errorf("errors = %d", s.Nodes.Errors)
	}
	// Locality-conscious distribution: later rounds must forward to the
	// unique caching node rather than read disk everywhere.
	if s.Nodes.Forwarded == 0 {
		t.Error("no requests forwarded")
	}
	if s.Msgs.Count[core.MsgForward] == 0 || s.Msgs.Count[core.MsgFile] == 0 {
		t.Errorf("message counts: %+v", s.Msgs.Count)
	}
	// TCP flow control is the kernel's: no flow messages.
	if s.Msgs.Count[core.MsgFlow] != 0 {
		t.Errorf("TCP sent %d flow messages", s.Msgs.Count[core.MsgFlow])
	}
	// Caching broadcasts announced the disk loads.
	if s.Msgs.Count[core.MsgCaching] == 0 {
		t.Error("no caching broadcasts")
	}
}

func TestClusterVIAVersions(t *testing.T) {
	tr := serverTestTrace(t, 16)
	for _, v := range netmodel.Versions() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			cfg := testClusterConfig(tr, TransportVIA)
			cfg.Version = v
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fetchAll(t, cl, tr, 2, 7)
			s := cl.Stats()
			if s.Nodes.Errors != 0 {
				t.Errorf("errors = %d", s.Nodes.Errors)
			}
			if s.Nodes.Forwarded == 0 {
				t.Error("no forwarding")
			}
			// VIA flow control sends credit messages (explicit or RMW).
			if s.Msgs.Count[core.MsgFlow] == 0 {
				t.Error("no flow-control traffic")
			}
		})
	}
}

func TestClusterVIARMWFileDoubleCounting(t *testing.T) {
	// Under RMW file transfers every file costs a data and a metadata
	// message (Table 4's near-doubling).
	tr := serverTestTrace(t, 16)
	counts := map[string]int64{}
	for _, name := range []string{"V2", "V3"} {
		v, err := netmodel.VersionByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testClusterConfig(tr, TransportVIA)
		cfg.Version = v
		cl, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fetchAll(t, cl, tr, 2, 3)
		counts[name] = cl.Stats().Msgs.Count[core.MsgFile]
		cl.Close()
	}
	if counts["V3"] <= counts["V2"] {
		t.Errorf("V3 file messages %d not above V2 %d", counts["V3"], counts["V2"])
	}
}

func TestClusterLocalityCaching(t *testing.T) {
	// After the first round loads every file from some disk, subsequent
	// rounds must be served from cluster memory: disk reads stop.
	tr := serverTestTrace(t, 20)
	cfg := testClusterConfig(tr, TransportVIA)
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fetchAll(t, cl, tr, 1, 5)
	afterWarm := cl.Stats().Nodes.DiskReads
	fetchAll(t, cl, tr, 3, 6)
	afterRuns := cl.Stats().Nodes.DiskReads
	// The working set fits the aggregate cache: almost no new reads.
	if growth := afterRuns - afterWarm; growth > afterWarm/2 {
		t.Errorf("disk reads grew from %d to %d after warmup", afterWarm, afterRuns)
	}
	s := cl.Stats()
	if s.Nodes.LocalHits+s.Nodes.RemoteHits == 0 {
		t.Error("no cache hits at all")
	}
}

func TestClusterLargeFileStaysLocal(t *testing.T) {
	// A file at the large-file cutoff must be serviced by the initial
	// node: no forward messages for it.
	tr := &trace.Trace{
		Name: "large",
		Files: []trace.File{
			{Name: "/big.bin", Size: 600 * 1024},
			{Name: "/small.html", Size: 2048},
		},
		Requests: []int32{0, 1},
	}
	cfg := testClusterConfig(tr, TransportVIA)
	cfg.CacheBytes = 4 << 20
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for round := 0; round < 3; round++ {
		for i := range cl.Addrs() {
			got, err := Fetch(cl.URL(i), "/big.bin")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 600*1024 {
				t.Fatalf("big file truncated: %d", len(got))
			}
		}
	}
	if fwd := cl.Stats().Msgs.Count[core.MsgForward]; fwd != 0 {
		t.Errorf("large file produced %d forwards", fwd)
	}
}

func TestClusterNotFound(t *testing.T) {
	tr := serverTestTrace(t, 4)
	cl, err := Start(testClusterConfig(tr, TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := http.Get(cl.URL(0) + "/no/such/file")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestClusterConcurrentClients(t *testing.T) {
	tr := serverTestTrace(t, 30)
	cfg := testClusterConfig(tr, TransportVIA)
	cfg.Version, _ = netmodel.VersionByName("V5")
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const clients = 8
	const perClient = 40
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				f := tr.Files[rng.Intn(len(tr.Files))]
				node := rng.Intn(cfg.Nodes)
				got, err := Fetch(cl.URL(node), f.Name)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if int64(len(got)) != f.Size {
					errs <- fmt.Errorf("client %d: %s got %d bytes, want %d", c, f.Name, len(got), f.Size)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s := cl.Stats(); s.Nodes.Errors != 0 {
		t.Errorf("server errors: %d", s.Nodes.Errors)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	tr := serverTestTrace(t, 4)
	bad := []Config{
		{},
		{Nodes: 99, Trace: tr},
		{Nodes: 2},
		{Nodes: 2, Trace: tr, CacheBytes: -1},
	}
	for i, cfg := range bad {
		if _, err := Start(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestClusterDissemination(t *testing.T) {
	tr := serverTestTrace(t, 12)
	for _, st := range []core.Strategy{core.LThreshold(1), core.NLB()} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			cfg := testClusterConfig(tr, TransportVIA)
			cfg.Dissemination = st
			// Idle heartbeats ride on load messages; space them an hour
			// apart so the dissemination strategy alone decides the
			// MsgLoad count.
			cfg.Health.HeartbeatInterval = time.Hour
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fetchAll(t, cl, tr, 2, 11)
			loads := cl.Stats().Msgs.Count[core.MsgLoad]
			if st.Kind == core.ThresholdBroadcast && loads == 0 {
				t.Error("L1 sent no load broadcasts")
			}
			if st.Kind == core.NoLoadBalancing && loads != 0 {
				t.Errorf("NLB sent %d load broadcasts", loads)
			}
		})
	}
}

// TestStoreDelayIsHonest: the modelled disk takes the time it was
// given. An idle Go process rounds a sub-millisecond time.Sleep up to
// its 1 ms poll granularity (a 50 µs read once took 1.1-1.4 ms), so a
// short delay is a nanosleep with a 1 µs timer slack instead; 2 ms is
// still slept. Neither costs CPU.
func TestStoreDelayIsHonest(t *testing.T) {
	tr := serverTestTrace(t, 1)
	name := tr.Files[0].Name
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}

	const delay = 50 * time.Microsecond
	s := NewStore(tr, delay)
	took := make([]time.Duration, 200)
	for i := range took {
		start := time.Now()
		if _, err := s.Read(name); err != nil {
			t.Fatal(err)
		}
		took[i] = time.Since(start)
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if took[0] < delay {
		t.Errorf("fastest read took %v, below the %v delay", took[0], delay)
	}
	if median := took[len(took)/2]; median >= 500*time.Microsecond {
		t.Errorf("median %v read took %v, want < 500µs", delay, median)
	}

	slow := NewStore(tr, 2*time.Millisecond)
	wallStart, cpuStart := time.Now(), cpu()
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, err := slow.Read(name); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 2*time.Millisecond {
			t.Fatalf("2ms read took %v", d)
		}
	}
	if wall, used := time.Since(wallStart), cpu()-cpuStart; used > wall/2 {
		t.Errorf("50 reads at 2ms burned %v of CPU in %v: not a sleep", used, wall)
	}
}

// TestStoreReadsAndDelay: a miss pays the disk delay and serves the
// file's content, and the node counts the read once, in
// NodeStats.DiskReads — the one disk-read counter; the hit after it
// reads nothing.
func TestStoreReadsAndDelay(t *testing.T) {
	tr := serverTestTrace(t, 3)
	s := NewStore(tr, 2*time.Millisecond)
	if _, err := s.Read("/missing"); err == nil {
		t.Error("missing file read succeeded")
	}

	cfg := testClusterConfig(tr, TransportTCP)
	cfg.Nodes, cfg.DiskDelay = 1, 2*time.Millisecond
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := tr.Files[0]
	for i, what := range []string{"miss", "hit"} {
		start := time.Now()
		data, err := Fetch(cl.URL(0), f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); i == 0 && elapsed < 2*time.Millisecond {
			t.Errorf("the miss returned in %v, want >= 2ms disk delay", elapsed)
		}
		if !bytes.Equal(data, SynthesizeContent(f.Name, f.Size)) {
			t.Errorf("the %s served %d wrong bytes", what, len(data))
		}
	}
	if reads := cl.Stats().Nodes.DiskReads; reads != 1 {
		t.Errorf("DiskReads = %d after a miss and a hit, want 1", reads)
	}
}

// TestClusterSharesOneStore: an in-process cluster holds one copy of the
// disk. Every node reads the same Store and counts its own reads; a file
// cached on two V5 nodes is the store's one copy, registered read-only
// with both NICs; and when one node evicts it — releasing its own
// registration — the other still serves it byte-exact without a copy.
func TestClusterSharesOneStore(t *testing.T) {
	tr := uniformTrace(8, 8<<10, 1<<10)
	reg := metrics.NewRegistry()
	cl := startRecvBufCluster(t, tr, 4, TransportVIA, "V5", func(c *Config) { c.Metrics = reg })
	nodes := cl.Nodes()
	for i, n := range nodes {
		if n.store != nodes[0].store {
			t.Fatalf("node %d reads its own Store", i)
		}
	}
	const id = 3
	f := tr.Files[id]
	warmAt(t, cl, tr, id, 0)
	for i, n := range nodes {
		want := int64(0)
		if i == 0 {
			want = 1
		}
		if reads := n.Stats().DiskReads; reads != want {
			t.Fatalf("node %d counts %d disk reads after a miss at node 0, want %d", i, reads, want)
		}
	}

	// Cache the file at node 1 as well, as a second cacher of a hot file
	// holds it.
	shared := nodes[0].store.files[f.Name]
	onMainLoop(t, nodes[1], func() bool { nodes[1].insertCache(id, shared); return true })
	pages := make([]*via.MemoryRegion, 2)
	for i, n := range nodes[:2] {
		pages[i] = onMainLoop(t, n, func() *via.MemoryRegion {
			if c := n.content[id]; len(c) == 0 || &c[0] != &shared[0] {
				t.Errorf("node %d caches a copy of the store's bytes", i)
			}
			return n.regions[id]
		})
		if pages[i] == nil || pages[i].Size() != len(shared) || pages[i].RemoteWritable() {
			t.Fatalf("node %d: no read-only registration of the file's %d bytes", i, len(shared))
		}
	}
	for i, pn := range cl.procs {
		if got := reg.Gauge("via_registered_bytes", "nic="+fabricAddr(i)).Value(); got != pn.nic.RegisteredBytes() || got == 0 {
			t.Fatalf("node %d: via_registered_bytes %d, NIC %d", i, got, pn.nic.RegisteredBytes())
		}
	}

	onMainLoop(t, nodes[0], func() bool { nodes[0].lru.Remove(id); nodes[0].uncache(id); return true })
	if pages[0].Size() != 0 || pages[1].Size() != len(shared) {
		t.Fatalf("after node 0's eviction its page holds %d bytes, node 1's %d", pages[0].Size(), pages[1].Size())
	}
	waitFor(t, 5*time.Second, "every directory to see node 1 alone cache the file", func() bool {
		for _, n := range nodes {
			if dirCachers(t, n, cache.FileID(id)) != cache.NodeSetOf(1) {
				return false
			}
		}
		return true
	})
	want := SynthesizeContent(f.Name, f.Size)
	for _, at := range []int{0, 2, 3} {
		got, err := Fetch(cl.URL(at), f.Name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("via node %d after node 0 evicted: %d bytes, %v", at, len(got), err)
		}
	}
	s := cl.Stats()
	if s.Nodes.Forwarded < 3 || s.CopiedBytes != 0 || s.Nodes.DiskReads != 1 {
		t.Fatalf("%d forwarded, %d bytes copied, %d disk reads; want >= 3, 0 and 1", s.Nodes.Forwarded, s.CopiedBytes, s.Nodes.DiskReads)
	}
}

// TestStatsEndpoint: without Config.Metrics every node's /_press/metrics
// serves its own account and state — every sample labelled with its
// id, per-type message counts, and on TCP alone the membership epochs.
func TestStatsEndpoint(t *testing.T) {
	for _, kind := range []TransportKind{TransportVIA, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			tr := serverTestTrace(t, 6)
			cfg := testClusterConfig(tr, kind)
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fetchAll(t, cl, tr, 1, 2)

			for i := 0; i < cfg.Nodes; i++ {
				own, others := scrapeNode(t, cl.URL(i), i)
				if others != 0 || len(own) == 0 {
					t.Errorf("node %d serves %d samples of its own and %d of other nodes", i, len(own), others)
				}
				got := sumFamilies(own)
				if got["press_strategy"] != 1 {
					t.Errorf("node %d: press_strategy sums to %d, want one info gauge", i, got["press_strategy"])
				}
				var file bool
				epoch, peerEpochs := "", map[string]string{}
				for _, s := range own {
					switch s.Name {
					case "press_msgs_total":
						file = file || s.Label("type") == core.MsgFile.String()
					case "press_epoch":
						epoch = s.Label("epoch")
					case "press_peer_epoch":
						peerEpochs[s.Label("peer")] = s.Label("epoch")
					}
				}
				if !file {
					t.Errorf("node %d: no press_msgs_total{type=File} series", i)
				}
				if i == 0 && got["press_requests_total"] == 0 {
					t.Error("no requests counted")
				}
				if kind != TransportTCP {
					if epoch != "" || len(peerEpochs) != 0 || got["press_stale_epoch_drops_total"] != 0 {
						t.Errorf("node %d: membership families on a transport without epochs: %q %v", i, epoch, peerEpochs)
					}
					continue
				}
				// An in-process TCP cluster went through the same join
				// handshake as a multi-process one: every node runs under
				// an epoch, has accepted one from each peer, and no frame
				// of a healthy run is mistaken for a previous life's.
				if epoch == "" || epoch == "0" {
					t.Errorf("node %d: no epoch", i)
				}
				seen := 0
				for p, e := range peerEpochs {
					if p != strconv.Itoa(i) && e != "0" {
						seen++
					}
				}
				if seen != cfg.Nodes-1 {
					t.Errorf("node %d: peer epochs = %v, want %d non-zero", i, peerEpochs, cfg.Nodes-1)
				}
				if n := got["press_stale_epoch_drops_total"]; n != 0 {
					t.Errorf("node %d: %d frames dropped as stale", i, n)
				}
			}
		})
	}
}

func TestZeroCopySemantics(t *testing.T) {
	// The point of versions 3-5: each step removes a payload copy. Run
	// the same workload and compare actual copied bytes: V3 pays a
	// sender staging copy and a receiver copy, V4 drops the receiver
	// copy, V5 drops both.
	tr := serverTestTrace(t, 16)
	copied := map[string]int64{}
	for _, name := range []string{"V3", "V4", "V5"} {
		v, err := netmodel.VersionByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testClusterConfig(tr, TransportVIA)
		cfg.Version = v
		cl, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fetchAll(t, cl, tr, 2, 13)
		copied[name] = cl.Stats().CopiedBytes
		cl.Close()
	}
	if copied["V5"] != 0 {
		t.Errorf("V5 copied %d bytes, want 0 (full zero-copy)", copied["V5"])
	}
	if copied["V4"] == 0 || copied["V4"] >= copied["V3"] {
		t.Errorf("V4 copied %d bytes, want between 0 and V3's %d", copied["V4"], copied["V3"])
	}
	// V3 pays both copies: roughly double V4.
	if ratio := float64(copied["V3"]) / float64(copied["V4"]); ratio < 1.5 || ratio > 2.5 {
		t.Errorf("V3/V4 copy ratio = %.2f, want ~2", ratio)
	}
}

func TestHeadRequest(t *testing.T) {
	tr := serverTestTrace(t, 4)
	cl, err := Start(testClusterConfig(tr, TransportVIA))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	f := tr.Files[0]
	resp, err := http.Head(cl.URL(0) + f.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.ContentLength != f.Size {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, f.Size)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 0 {
		t.Errorf("HEAD returned %d body bytes", len(body))
	}
}

// liveTimersUnder counts the timers time.NewTimer allocated below a
// function whose name contains caller and that are still running. Under
// this module's timer semantics the runtime holds a running timer until
// it fires, so it survives a collection; a stopped or fired one is
// garbage. Two things the heap profile would otherwise count are not
// running timers. Deeper in the NewTimer call the runtime may grow its
// P's timer heap (runtime.(*timers).addHeap), an array that belongs to
// the P for the rest of the process: only records whose innermost frame
// is the timer's own allocation count. And a stopped timer stays linked
// in its P's heap, reachable, until that P compacts it, which it does
// once stopped timers exceed a quarter of the heap: flushStoppedTimers
// provokes that first. Needs runtime.MemProfileRate == 1 while the
// allocations happen.
func liveTimersUnder(caller string) int64 {
	flushStoppedTimers()
	runtime.GC()
	runtime.GC() // the profile trails the collector by one cycle
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, 2*len(recs))
		n, ok = runtime.MemProfile(recs, true)
	}
	var live int64
	for _, r := range recs[:n] {
		if r.InUseObjects() == 0 {
			continue
		}
		frames := runtime.CallersFrames(r.Stack())
		f, more := frames.Next()
		timer := f.Function == "time.NewTimer" || f.Function == "time.newTimer"
		under := false
		for more {
			f, more = frames.Next()
			under = under || strings.Contains(f.Function, caller)
		}
		if timer && under {
			live += r.InUseObjects()
		}
	}
	return live
}

// flushStoppedTimers has every P unlink the stopped timers still in its
// heap: a burst of stopped timers per goroutine, several goroutines per
// P, and a yield so the P's next scheduling pass finds the heap worth
// compacting. Which P a goroutine lands on is the scheduler's choice, so
// callers that need zero retry.
func flushStoppedTimers() {
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var burst [512]*time.Timer
			for i := range burst {
				burst[i] = time.NewTimer(time.Hour)
			}
			for _, t := range burst {
				t.Stop()
			}
			runtime.Gosched()
		}()
	}
	wg.Wait()
}

// timerObjects is what liveTimersUnder counts per timer: its channel and
// the runtime's record of it.
const timerObjects = 2

// liveTimersSettle waits for liveTimersUnder(caller) to read bound or
// less and returns the last reading: a client can hold its whole answer
// a moment before the handler that wrote it has returned, and one flush
// may miss a P.
func liveTimersSettle(caller string, bound int64) (live int64) {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if live = liveTimersUnder(caller); live <= bound || time.Now().After(deadline) {
			return live
		}
	}
}

// TestTimersStoppedOnReturn: the request path's 30 s safety-net timer
// belongs to a long-lived owner, a recycled request, and is parked,
// never armed, when the call that used it returns; the reconnect path
// keeps no timer at all. Two things are held: the timer objects alive
// under the caller are bounded by the owners and do not grow with the
// calls made (one per request left running was the ledger's RSS drift:
// at 50k req/s, 1.5 M live timers), and no owner's timer is found armed
// afterwards.
func TestTimersStoppedOnReturn(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	t.Run("ServeHTTP", func(t *testing.T) {
		tr := serverTestTrace(t, 4)
		cfg := testClusterConfig(tr, TransportVIA)
		cfg.Nodes = 1
		cl, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// One client, one request at a time: one owner in use, and the
		// pool may keep an idle one per P.
		bound := int64(1+runtime.GOMAXPROCS(0)) * timerObjects
		const caller = "(*nodeHandler).ServeHTTP"
		fetchAll(t, cl, tr, 25, 1)
		after100 := liveTimersSettle(caller, bound)
		fetchAll(t, cl, tr, 75, 2)
		after400 := liveTimersSettle(caller, bound)
		if after100 > bound || after400 > bound {
			t.Errorf("%d timer objects live after 100 answered requests, %d after 400; the owners' are at most %d",
				after100, after400, bound)
		}

		made := recordRequests(t)
		fetchAll(t, cl, tr, 25, 3)
		waitHandlersReturned(t, cl.Nodes()[0])
		reqs := made()
		if len(reqs) == 0 {
			t.Fatal("no request was made with the pool emptied")
		}
		for _, r := range reqs {
			if !parked(r.timer) {
				t.Fatalf("a request that was answered left its 30 s timer armed (%d requests made for 100 answers)", len(reqs))
			}
		}
	})
	t.Run("Reconnect", func(t *testing.T) {
		// A channel's writes are complete when their posts return, so no
		// channel owns a timer, and the setup wait's is stopped once the
		// peer's setup frame is in: none stays live per channel.
		for _, v := range []netmodel.Version{netmodel.Versions()[0], netmodel.Versions()[5]} {
			t.Run(v.Name, func(t *testing.T) {
				a, _ := newViaPair(t, v)
				const caller = "(*viaTransport).Reconnect"
				for i := 0; i < 4; i++ {
					if err := a.Reconnect(1); err != nil {
						t.Fatal(err)
					}
					if live := liveTimersSettle(caller, 0); live > 0 {
						t.Errorf("%d timer objects live after %d Reconnects, want none", live, i+1)
					}
				}
			})
		}
	})
}

// TestClusterLifecycle: bring-up and teardown leave nothing behind. Ten
// Start/Close rounds per transport, plus a StartNode per transport that
// fails at its last step (HTTP address taken) and must unwind everything
// it built, return the goroutine count to its baseline and leave the
// intra-cluster port bindable (on VIA, the bridge's, with the dials to
// absent peers still in flight).
func TestClusterLifecycle(t *testing.T) {
	tr := serverTestTrace(t, 6)
	idle := func() { http.DefaultTransport.(*http.Transport).CloseIdleConnections() }
	idle()
	baseline := runtime.NumGoroutine()
	rebind := func(addr string) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("intra-cluster address not released: %v", err)
		}
		ln.Close()
	}

	for _, kind := range []TransportKind{TransportTCP, TransportVIA} {
		for round := 0; round < 10; round++ {
			cl, err := Start(testClusterConfig(tr, kind))
			if err != nil {
				t.Fatalf("%v round %d: %v", kind, round, err)
			}
			fetchAll(t, cl, tr, 1, int64(round))
			peerAddrs := cl.procs[0].cfg.Mesh.PeerAddrs
			cl.Close()
			if kind == TransportTCP {
				for _, addr := range peerAddrs {
					rebind(addr)
				}
			}
		}
	}

	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, kind := range []TransportKind{TransportTCP, TransportVIA} {
		cfg := testClusterConfig(tr, kind)
		cfg.Mesh = &MeshConfig{
			Self:      0,
			PeerAddrs: []string{deadAddr(t), deadAddr(t), deadAddr(t)},
			HTTPAddr:  taken.Addr().String(),
		}
		if pn, err := StartNode(cfg); err == nil {
			pn.Close()
			t.Fatalf("%v: StartNode succeeded on a bound HTTP address", kind)
		}
		rebind(cfg.Mesh.PeerAddrs[0])
	}

	idle()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestViaProcessLateJoin: VIA processes start in either order, at one
// address each. The first comes up at once with no peer up. Node 1, the
// passive end of the one channel, waits for node 0 to dial it; node 0,
// first, keeps dialing the absent node 1 while its health prober
// declares node 1 dead and probes it too. Either way both nodes then
// hold the channel and see each other alive, and every file fetched
// through either is byte-exact, some of them forwarded.
func TestViaProcessLateJoin(t *testing.T) {
	tr := serverTestTrace(t, 8)
	for _, first := range []int{1, 0} {
		t.Run(fmt.Sprintf("node%d-first", first), func(t *testing.T) {
			addrs := []string{deadAddr(t), deadAddr(t)}
			start := func(self int) *ProcNode {
				t.Helper()
				cfg := testClusterConfig(tr, TransportVIA)
				cfg.Nodes = 2
				cfg.Mesh = &MeshConfig{Self: self, PeerAddrs: addrs}
				pn, err := StartNode(cfg)
				if err != nil {
					t.Fatalf("node %d: %v", self, err)
				}
				t.Cleanup(pn.Close)
				return pn
			}
			pns := make([]*ProcNode, 2)
			began := time.Now()
			pns[first] = start(first)
			if took := time.Since(began); took > time.Second {
				t.Fatalf("node %d took %v to start with no peer up, want under 1 s", first, took)
			}
			if first == 1 {
				time.Sleep(300 * time.Millisecond)
			} else {
				waitFor(t, 5*time.Second, "node 0 to declare the absent node 1 dead", func() bool {
					return pns[0].Node().PeerState(1) == StateDead
				})
			}
			pns[1-first] = start(1 - first)

			waitFor(t, 10*time.Second, "each node to hold a channel to the other and see it alive", func() bool {
				for i, pn := range pns {
					p := pn.transport.(*viaTransport).peer(1 - i)
					if p == nil || pn.Node().PeerState(1-i) != StateAlive {
						return false
					}
					select {
					case <-p.ready:
					default:
						return false
					}
				}
				return true
			})
			for round := 0; round < 2; round++ {
				for id, f := range tr.Files {
					for _, pn := range pns {
						got, err := Fetch(pn.URL(), f.Name)
						if err != nil {
							t.Fatalf("round %d: %s via %s: %v", round, f.Name, pn.URL(), err)
						}
						if want := SynthesizeContent(f.Name, f.Size); !bytes.Equal(got, want) {
							t.Fatalf("round %d: file %d via %s: %d bytes, want %d", round, id, pn.URL(), len(got), len(want))
						}
					}
				}
			}
			if fwd := pns[0].Node().Stats().Forwarded + pns[1].Node().Stats().Forwarded; fwd == 0 {
				t.Fatal("no request was forwarded between the two processes")
			}
		})
	}
}
