package cliflag

import (
	"flag"
	"strings"
	"testing"

	"press/core"
)

func TestDisseminationFlagParsing(t *testing.T) {
	for _, name := range []string{"PB", "L16", "L4", "L1", "NLB", "SHARD"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		s := Dissemination(fs, "dissemination", core.PB(), "")
		if err := fs.Parse([]string{"-dissemination", name}); err != nil {
			t.Fatalf("parsing %q: %v", name, err)
		}
		if s.String() != name {
			t.Errorf("parsed %q, got strategy %s", name, s)
		}
	}
}

func TestDisseminationFlagDefault(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := Dissemination(fs, "dissemination", core.LThreshold(4), "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "L4" {
		t.Errorf("default strategy = %s, want L4", got)
	}
}

func TestDisseminationFlagRejectsUnknown(t *testing.T) {
	for _, name := range []string{"L7", "GOSSIP"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(&strings.Builder{})
		Dissemination(fs, "dissemination", core.PB(), "")
		if err := fs.Parse([]string{"-dissemination", name}); err == nil {
			t.Errorf("unknown strategy %s accepted", name)
		}
	}
}

func TestDisseminationNamesCoverStrategies(t *testing.T) {
	names := DisseminationNames()
	for _, s := range core.Strategies() {
		if !strings.Contains(names, s.String()) {
			t.Errorf("DisseminationNames() %q missing %s", names, s)
		}
	}
}

func TestDisseminationList(t *testing.T) {
	all, err := DisseminationList("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(core.Strategies()) {
		t.Errorf("all resolved to %d strategies, want %d", len(all), len(core.Strategies()))
	}
	one, err := DisseminationList("SHARD")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Dir != core.DirSharded {
		t.Errorf("SHARD resolved to %+v", one)
	}
	if _, err := DisseminationList("bogus"); err == nil {
		t.Error("bogus strategy name accepted")
	}
}
