package server

import (
	"testing"
	"time"

	"press/cache"
	"press/core"
)

// fakeDirNet captures a directory implementation's outbound messages.
type fakeDirNet struct {
	sent []struct {
		dst int
		m   *Message
	}
}

func (f *fakeDirNet) send(dst int, m Message) bool {
	f.sent = append(f.sent, struct {
		dst int
		m   *Message
	}{dst, &m})
	return true
}

func (f *fakeDirNet) drain() []struct {
	dst int
	m   *Message
} {
	out := f.sent
	f.sent = nil
	return out
}

func TestMessageDirSetExtension(t *testing.T) {
	set := cache.NodeSetOf(0, 63, 64, 129, 255)
	cases := []*Message{
		{Type: core.MsgDirReply, From: 3, Load: -1, Name: "/a.html", Cached: true,
			DirSet: set, DirSetValid: true},
		{Type: core.MsgDirReply, From: 1, Load: -1, Name: "/b.html", DirSetValid: true}, // empty but valid
		{Type: core.MsgDirLookup, From: 2, Load: 7, Name: "/c.html"},
		{Type: core.MsgDirInval, From: 0, Load: -1, Name: "/d.html"},
	}
	for i, m := range cases {
		buf, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(buf) != m.EncodedLen() {
			t.Errorf("case %d: encoded %d bytes, EncodedLen %d", i, len(buf), m.EncodedLen())
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Type != m.Type || got.DirSetValid != m.DirSetValid || got.DirSet != m.DirSet ||
			got.Name != m.Name || got.Cached != m.Cached {
			t.Errorf("case %d: round trip %+v -> %+v", i, m, got)
		}
	}
	// The dir extension composes with trace and deadline extensions.
	m := &Message{Type: core.MsgDirReply, From: 5, Load: -1, Name: "/x.html",
		DirSet: set, DirSetValid: true, TraceID: 77, ParentSpan: 8, Budget: time.Second}
	buf, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DirSet != set || !got.DirSetValid || got.TraceID != 77 || got.Budget != time.Second {
		t.Errorf("stacked extensions: %+v", got)
	}
	// Truncating the dir extension fails cleanly.
	if _, err := DecodeMessage(buf[:msgHeaderLen+msgTraceExtLen+msgDeadlineExtLen+4]); err == nil {
		t.Error("short dir extension accepted")
	}
}

// TestClusterShardedEndToEnd runs the SHARD strategy through real
// clusters on both transports: every file correct from every node, and
// zero caching broadcasts (all directory traffic is directed).
func TestClusterShardedEndToEnd(t *testing.T) {
	tr := serverTestTrace(t, 12)
	for _, kind := range []TransportKind{TransportTCP, TransportVIA} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testClusterConfig(tr, kind)
			cfg.Dissemination = core.Sharded()
			cl, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fetchAll(t, cl, tr, 2, 7)
			s := cl.Stats()
			if s.Nodes.Errors != 0 {
				t.Errorf("errors: %d", s.Nodes.Errors)
			}
			lookups := s.Msgs.Count[core.MsgDirLookup]
			replies := s.Msgs.Count[core.MsgDirReply]
			if lookups == 0 || replies == 0 {
				t.Errorf("no sharded lookup traffic (lookups=%d replies=%d)", lookups, replies)
			}
		})
	}
}

// TestChaosShardedOwnerCrash is the directory-correctness scenario of
// the chaos harness under the sharded strategy: a shard owner dies,
// its entries are re-owned, and after the dust settles no owner holds
// a cacher entry for a node that does not actually cache the file (no
// lost requests, no stale forwarding targets).
func TestChaosShardedOwnerCrash(t *testing.T) {
	const nodes = 4
	cfg, tr, _ := chaosClusterConfig(t, nodes)
	cfg.Dissemination = core.Sharded()
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i, f := range tr.Files {
		if _, err := Fetch(cl.URL(i%nodes), f.Name); err != nil {
			t.Fatalf("warmup %s: %v", f.Name, err)
		}
	}
	const victim = 1
	if err := cl.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "crash detection", func() bool {
		return cl.Nodes()[0].PeerState(victim) == StateDead
	})
	// Every file keeps being served while the owner of ~1/4 of the
	// directory is down.
	for _, f := range tr.Files {
		if _, err := Fetch(cl.URL(0), f.Name); err != nil {
			t.Errorf("fetch during crash %s: %v", f.Name, err)
		}
	}
	if err := cl.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "restart re-integration", func() bool {
		for i, n := range cl.Nodes() {
			if i != victim && n.PeerState(victim) != StateAlive {
				return false
			}
		}
		return true
	})
	for _, f := range tr.Files[:8] {
		if _, err := Fetch(cl.URL(victim), f.Name); err != nil {
			t.Errorf("fetch after restart: %v", err)
		}
	}
	// Convergence: once traffic quiesces, every owner's cacher entries
	// must name only nodes that truly cache the file — re-owned entries
	// rebuilt, no lost or duplicate cachers surviving the crash cycle.
	waitFor(t, 10*time.Second, "directory reconvergence", func() bool {
		return shardedDirConsistent(cl)
	})
}

// shardedDirConsistent snapshots every node's true cache contents and
// every owner's recorded cacher sets (both on the owning main loops)
// and checks the recorded sets are exact.
func shardedDirConsistent(cl *Cluster) bool {
	nodes := cl.Nodes()
	truth := make([]map[cache.FileID]bool, len(nodes))
	recorded := make([]map[cache.FileID]cache.NodeSet, len(nodes))
	done := make(chan int, len(nodes))
	for i, n := range nodes {
		i, n := i, n
		n.inject(func() {
			t := make(map[cache.FileID]bool, len(n.content))
			for id := range n.content {
				t[id] = true
			}
			truth[i] = t
			rec := make(map[cache.FileID]cache.NodeSet)
			if sd, ok := n.dir.(*shardedDirectory); ok {
				for id := range n.files {
					if id := cache.FileID(id); sd.Owner(id) == n.id {
						rec[id] = sd.Cachers(id)
					}
				}
			}
			recorded[i] = rec
			done <- i
		})
	}
	for range nodes {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			return false
		}
	}
	for _, rec := range recorded {
		for id, set := range rec {
			var want cache.NodeSet
			for ni := range nodes {
				if truth[ni][id] {
					want = want.Add(ni)
				}
			}
			if set != want {
				return false
			}
		}
	}
	return true
}
