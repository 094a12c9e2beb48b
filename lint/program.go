package lint

import (
	"go/token"
	"go/types"
	"sort"
)

// Program is a whole-program view: every package of the module, parsed
// and type-checked together so cross-package references resolve. It is
// the substrate the interprocedural analyzers (call graph, fact
// propagation) run on.
//
// Loading is tolerant in the same way per-package analysis is: a
// package that fails to type-check cleanly still participates with
// partial type information, and analyzers degrade rather than fail.
type Program struct {
	Fset *token.FileSet
	// Pkgs holds the packages in deterministic (dependency-then-path)
	// order, the order they were type-checked in.
	Pkgs []*Package
	// ByPath indexes Pkgs by import path.
	ByPath map[string]*Package

	// graph is the lazily built whole-program call graph, shared by
	// every analyzer in one run.
	graph *CallGraph
}

// LoadProgram builds a Program from packages that were parsed with
// LoadDir and had their import paths assigned. It type-checks them in
// dependency order with a chained importer, so each package sees the
// real type objects of the module packages it imports; stdlib imports
// go through fallback (typically a source importer). A nil fallback
// leaves stdlib unresolved, which the tolerant checker survives.
func LoadProgram(fset *token.FileSet, pkgs []*Package, fallback types.Importer) *Program {
	prog := &Program{Fset: fset, ByPath: make(map[string]*Package)}
	for _, p := range pkgs {
		prog.ByPath[p.Path] = p
	}
	imp := &programImporter{prog: prog, fallback: fallback}
	for _, p := range topoSort(pkgs) {
		p.TypeCheck(imp)
		prog.Pkgs = append(prog.Pkgs, p)
	}
	return prog
}

// CallGraph returns the program's call graph, building it on first use.
func (prog *Program) CallGraph() *CallGraph {
	if prog.graph == nil {
		prog.graph = buildCallGraph(prog)
	}
	return prog.graph
}

// Check runs the file-level suite over every package plus the
// program-level suite over the whole program, applies suppression
// comments, and returns the surviving findings sorted by position.
func (prog *Program) Check() []Finding {
	return prog.CheckAnalyzers(nil)
}

// CheckAnalyzers is Check restricted to the named analyzers; a nil or
// empty set runs everything.
func (prog *Program) CheckAnalyzers(only map[string]bool) []Finding {
	enabled := func(name string) bool {
		return len(only) == 0 || only[name]
	}
	var out []Finding
	sup := make(map[string]suppressed)
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			sup[f.Name] = suppressions(prog.Fset, f)
			for _, a := range Analyzers() {
				if !enabled(a.Name) || (a.SkipTests && f.Test) {
					continue
				}
				for _, fd := range a.Run(p, f) {
					out = append(out, fd)
				}
			}
		}
	}
	for _, a := range Analyzers() {
		if enabled(a.Name) && a.RunProgram != nil {
			out = append(out, a.RunProgram(prog)...)
		}
	}
	for _, a := range ProgramAnalyzers() {
		if !enabled(a.Name) {
			continue
		}
		out = append(out, a.Run(prog)...)
	}
	kept := out[:0]
	for _, fd := range out {
		if s, ok := sup[fd.File]; ok && s.covers(fd.Line, fd.Analyzer) {
			continue
		}
		kept = append(kept, fd)
	}
	out = kept
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// file finds the File a position belongs to, for mapping program-level
// findings back to their source file.
func (prog *Program) file(pos token.Pos) (*Package, *File) {
	name := prog.Fset.Position(pos).Filename
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			if f.Name == name {
				return p, f
			}
		}
	}
	return nil, nil
}

// finding builds a Finding at pos for a program analyzer.
func (prog *Program) finding(pos token.Pos, analyzer, msg string) Finding {
	position := prog.Fset.Position(pos)
	return Finding{File: position.Filename, Line: position.Line, Analyzer: analyzer, Message: msg}
}

// programImporter serves module packages from the already-checked set
// and everything else from the fallback importer.
type programImporter struct {
	prog     *Program
	fallback types.Importer
}

func (i *programImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.prog.ByPath[path]; ok && p.Types != nil {
		return p.Types, nil
	}
	if i.fallback == nil {
		return nil, types.Error{Msg: "no importer for " + path}
	}
	return i.fallback.Import(path)
}

// topoSort orders packages so every package follows the module
// packages it imports. Unresolvable edges (cycles, external imports)
// are dropped; ties break on import path for determinism.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	deps := make(map[*Package][]*Package)
	indeg := make(map[*Package]int)
	rdeps := make(map[*Package][]*Package)
	for _, p := range pkgs {
		seen := make(map[string]bool)
		for _, f := range p.Files {
			for _, spec := range f.AST.Imports {
				path := importPath(spec.Path.Value)
				if seen[path] {
					continue
				}
				seen[path] = true
				if dep, ok := byPath[path]; ok && dep != p {
					deps[p] = append(deps[p], dep)
					rdeps[dep] = append(rdeps[dep], p)
					indeg[p]++
				}
			}
		}
	}
	ready := make([]*Package, 0, len(pkgs))
	for _, p := range pkgs {
		if indeg[p] == 0 {
			ready = append(ready, p)
		}
	}
	sortByPath(ready)
	var order []*Package
	for len(ready) > 0 {
		p := ready[0]
		ready = ready[1:]
		order = append(order, p)
		var unlocked []*Package
		for _, r := range rdeps[p] {
			if indeg[r]--; indeg[r] == 0 {
				unlocked = append(unlocked, r)
			}
		}
		sortByPath(unlocked)
		ready = append(ready, unlocked...)
	}
	// Cycles (should not happen in a buildable module) append in path
	// order so nothing is silently dropped.
	if len(order) < len(pkgs) {
		in := make(map[*Package]bool, len(order))
		for _, p := range order {
			in[p] = true
		}
		var rest []*Package
		for _, p := range pkgs {
			if !in[p] {
				rest = append(rest, p)
			}
		}
		sortByPath(rest)
		order = append(order, rest...)
	}
	return order
}

func sortByPath(ps []*Package) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Path < ps[j].Path })
}

// importPath strips the quotes off an import spec path literal.
func importPath(lit string) string {
	if len(lit) >= 2 && lit[0] == '"' && lit[len(lit)-1] == '"' {
		return lit[1 : len(lit)-1]
	}
	return lit
}
