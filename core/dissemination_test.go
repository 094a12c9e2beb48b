package core

import (
	"testing"
	"testing/quick"
)

func TestStrategyLabels(t *testing.T) {
	want := []string{"PB", "L16", "L4", "L1", "NLB", "SHARD"}
	got := Strategies()
	if len(got) != len(want) {
		t.Fatalf("strategies = %d", len(got))
	}
	for i, s := range got {
		if s.String() != want[i] {
			t.Errorf("strategy %d = %q, want %q", i, s.String(), want[i])
		}
	}
}

func TestPaperStrategiesBarOrder(t *testing.T) {
	want := []string{"PB", "L16", "L4", "L1", "NLB"}
	got := PaperStrategies()
	if len(got) != len(want) {
		t.Fatalf("paper strategies = %d", len(got))
	}
	for i, s := range got {
		if s.String() != want[i] {
			t.Errorf("strategy %d = %q, want %q", i, s.String(), want[i])
		}
		if s.Dir != DirReplicated {
			t.Errorf("paper strategy %q is not replicated", s)
		}
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"PB", "L16", "L4", "L1", "NLB", "SHARD"} {
		s, err := StrategyByName(name)
		if err != nil || s.String() != name {
			t.Errorf("StrategyByName(%q) = %v, %v", name, s, err)
		}
	}
	for _, name := range []string{"L7", "GOSSIP"} {
		if _, err := StrategyByName(name); err == nil {
			t.Errorf("unknown strategy %q accepted", name)
		}
	}
	if s, _ := StrategyByName("SHARD"); s.Kind != PiggyBack || s.Dir != DirSharded {
		t.Errorf("SHARD = %+v", s)
	}
}

func TestStrategyPiggybackAndLoadAware(t *testing.T) {
	want := map[string]struct{ piggyback, loadAware bool }{
		"PB":    {true, true},
		"L16":   {false, true},
		"L4":    {false, true},
		"L1":    {false, true},
		"NLB":   {false, false},
		"SHARD": {true, true},
	}
	for _, s := range Strategies() {
		w, ok := want[s.String()]
		if !ok {
			t.Errorf("%v: no expectation", s)
			continue
		}
		if s.Piggyback() != w.piggyback || s.LoadAware() != w.loadAware {
			t.Errorf("%v: Piggyback = %v, LoadAware = %v", s, s.Piggyback(), s.LoadAware())
		}
	}
}

func TestLThresholdValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LThreshold(0) did not panic")
		}
	}()
	LThreshold(0)
}

func TestLoadTrackerThresholdBroadcasts(t *testing.T) {
	tr := NewLoadTracker(LThreshold(4))
	casts := 0
	for i := 0; i < 10; i++ {
		if tr.Change(+1) {
			casts++
		}
	}
	// Load went 1..10; broadcasts at 4 and 8.
	if casts != 2 {
		t.Fatalf("broadcasts = %d, want 2", casts)
	}
	if tr.Load() != 10 {
		t.Fatalf("load = %d", tr.Load())
	}
	// Dropping back: lastSent = 8, so broadcasts at 4 and 0.
	casts = 0
	for i := 0; i < 10; i++ {
		if tr.Change(-1) {
			casts++
		}
	}
	if casts != 2 {
		t.Fatalf("broadcasts on decrease = %d, want 2", casts)
	}
}

func TestLoadTrackerL1BroadcastsEveryChange(t *testing.T) {
	tr := NewLoadTracker(LThreshold(1))
	for i := 0; i < 5; i++ {
		if !tr.Change(+1) {
			t.Fatalf("L1 missed a broadcast at step %d", i)
		}
	}
}

func TestLoadTrackerPBAndNLBNeverBroadcast(t *testing.T) {
	for _, s := range []Strategy{PB(), NLB()} {
		tr := NewLoadTracker(s)
		for i := 0; i < 100; i++ {
			if tr.Change(+1) {
				t.Fatalf("%v broadcast", s)
			}
		}
	}
}

func TestLoadTrackerNegativePanics(t *testing.T) {
	tr := NewLoadTracker(PB())
	defer func() {
		if recover() == nil {
			t.Fatal("negative load did not panic")
		}
	}()
	tr.Change(-1)
}

// Property: under LThreshold(L), the tracked value never drifts more
// than L-1 from the last broadcast value.
func TestLoadTrackerDriftBound(t *testing.T) {
	check := func(steps []bool, lRaw uint8) bool {
		l := int(lRaw%8) + 1
		tr := NewLoadTracker(LThreshold(l))
		lastSent := 0
		for _, up := range steps {
			delta := +1
			if !up && tr.Load() > 0 {
				delta = -1
			}
			if tr.Change(delta) {
				lastSent = tr.Load()
			}
			if abs(tr.Load()-lastSent) >= l {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlowControlCreditBatching(t *testing.T) {
	f := NewFlowControl(4, DefaultWindow, DefaultCreditBatch)
	credits := 0
	for i := 0; i < 12; i++ {
		if f.OnData(0, 1) {
			credits++
		}
	}
	if credits != 3 {
		t.Fatalf("credits = %d, want 3 (12 msgs / batch 4)", credits)
	}
	if f.Window() != DefaultWindow {
		t.Fatalf("window = %d", f.Window())
	}
}

func TestFlowControlChannelsIndependent(t *testing.T) {
	f := NewFlowControl(4, 8, 4)
	f.OnData(0, 1)
	f.OnData(0, 1)
	f.OnData(0, 1)
	// Different channel: its counter is independent.
	if f.OnData(1, 0) {
		t.Fatal("credit on fresh channel after one message")
	}
	if !f.OnData(0, 1) {
		t.Fatal("fourth message on 0->1 did not trigger credit")
	}
}

func TestFlowControlSelfChannelPanics(t *testing.T) {
	f := NewFlowControl(4, 8, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("self channel did not panic")
		}
	}()
	f.OnData(2, 2)
}

func TestFlowControlValidation(t *testing.T) {
	for _, args := range [][3]int{{0, 8, 4}, {4, 2, 4}, {4, 8, 0}} {
		args := args
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFlowControl(%v) did not panic", args)
				}
			}()
			NewFlowControl(args[0], args[1], args[2])
		}()
	}
}

func TestMsgStatsAccounting(t *testing.T) {
	var m MsgStats
	m.Add(MsgFile, 8192)
	m.Add(MsgFile, 4096)
	m.Add(MsgForward, ForwardMsgBytes)
	count, bytes := m.Total()
	if count != 3 || bytes != 8192+4096+ForwardMsgBytes {
		t.Fatalf("total = %d msgs %d bytes", count, bytes)
	}
	if got := m.AvgSize(MsgFile); got != 6144 {
		t.Errorf("avg file size = %v", got)
	}
	if got := m.AvgSize(MsgLoad); got != 0 {
		t.Errorf("avg of empty type = %v", got)
	}

	var m2 MsgStats
	m2.Add(MsgFile, 100)
	m2.Merge(&m)
	if m2.Count[MsgFile] != 3 || m2.Bytes[MsgFile] != 8192+4096+100 {
		t.Errorf("merge: %+v", m2)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	want := map[MsgType]string{
		MsgLoad: "Load", MsgFlow: "Flow", MsgForward: "Forward",
		MsgCaching: "Caching", MsgFile: "File",
		MsgDirLookup: "DirLookup", MsgDirReply: "DirReply", MsgDirInval: "DirInval",
	}
	for mt, w := range want {
		if mt.String() != w {
			t.Errorf("%d.String() = %q, want %q", mt, mt.String(), w)
		}
	}
}
