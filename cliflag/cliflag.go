// Package cliflag holds small flag helpers shared by the press
// commands, so every CLI parses the one strategy surface the core
// package defines (core.Strategies / core.StrategyByName) instead of
// growing its own name table.
package cliflag

import (
	"flag"
	"fmt"
	"strings"

	"press/core"
)

// DisseminationNames returns the six accepted strategy flag values,
// comma-separated: the paper's five (PB, L16, L4, L1, NLB) plus the
// sharded directory (SHARD).
func DisseminationNames() string {
	var names []string
	for _, s := range core.Strategies() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

// strategyValue adapts a core.Strategy to flag.Value.
type strategyValue struct{ s *core.Strategy }

func (v strategyValue) String() string {
	if v.s == nil {
		return ""
	}
	return v.s.String()
}

func (v strategyValue) Set(name string) error {
	s, err := core.StrategyByName(name)
	if err != nil {
		return err
	}
	*v.s = s
	return nil
}

// Dissemination registers a load-dissemination strategy flag on fs
// under the given flag name, defaulting to def, and returns a pointer
// to the selected strategy. Values are validated at parse time against
// core.StrategyByName.
func Dissemination(fs *flag.FlagSet, name string, def core.Strategy, extra string) *core.Strategy {
	s := def
	usage := fmt.Sprintf("load dissemination strategy (%s)", DisseminationNames())
	if extra != "" {
		usage += " " + extra
	}
	fs.Var(strategyValue{&s}, name, usage)
	return &s
}

// DisseminationList resolves a flag value that is either one strategy
// name or "all", which selects every named strategy.
func DisseminationList(value string) ([]core.Strategy, error) {
	if value == "all" {
		return core.Strategies(), nil
	}
	s, err := core.StrategyByName(value)
	if err != nil {
		return nil, err
	}
	return []core.Strategy{s}, nil
}
