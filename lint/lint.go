// Package lint implements presslint, a project-specific static-analysis
// suite for the press codebase.
//
// The paper's thesis is that user-level communication wins by moving
// protocol work onto carefully disciplined shared state: VIs,
// descriptors, completion queues, and remote-write rings. The software
// VIA (press/via) and the cluster server (press/server) reproduce
// exactly that lock- and queue-heavy machinery, so the bug classes that
// silently corrupt throughput numbers — mutexes held across blocking
// operations, dropped transport errors, leaked goroutines, and naked
// sleeps — get dedicated analyzers here instead of relying on
// convention.
//
// Analyzers are heuristic and intra-procedural by design: they use only
// the stdlib go/ast, go/parser, go/token, and go/types packages, degrade
// gracefully when type information is unavailable, and err toward few
// false positives. Findings can be suppressed per line with
//
//	//presslint:ignore <analyzer> [justification]
//
// placed on the flagged line or the line directly above it.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	File     string
	Line     int
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// File is one parsed source file under analysis.
type File struct {
	Name string // display path, as reported in findings
	AST  *ast.File
	Test bool // *_test.go
}

// Package groups the files of one directory plus best-effort type
// information.
type Package struct {
	Fset  *token.FileSet
	Files []*File
	// Info holds whatever go/types could resolve. It may be nil, and
	// when the type-checker hit errors (e.g. unresolvable imports) it is
	// only partially filled; analyzers must treat it as advisory.
	Info *types.Info
	// Path is the package's import path when loaded as part of a
	// Program ("" for standalone fixture packages).
	Path string
	// Types is the type-checked package object, used to serve this
	// package to importers of other module packages. Nil until
	// TypeCheck runs.
	Types *types.Package
}

// Analyzer is one check.
type Analyzer struct {
	Name      string
	Doc       string
	SkipTests bool
	Run       func(p *Package, f *File) []Finding
	// RunProgram, when set, is the analyzer's whole-program half: the
	// part of its rule that needs the call graph. It runs only when the
	// package is checked as part of a Program.
	RunProgram func(prog *Program) []Finding
}

// Analyzers returns the full suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		mutexAcrossBlock,
		uncheckedCommsError,
		goroutineLeak,
		nakedSleep,
		timeAfterLoop,
	}
}

// ProgramAnalyzer is one whole-program check: it sees every package at
// once through the interprocedural engine (call graph + fact
// propagation) instead of one file at a time.
type ProgramAnalyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program) []Finding
}

// ProgramAnalyzers returns the interprocedural suite in a stable order.
func ProgramAnalyzers() []*ProgramAnalyzer {
	return []*ProgramAnalyzer{
		hotpathAlloc,
		lockOrder,
		atomicConsistency,
	}
}

// AnalyzerNames returns the names of every registered analyzer,
// file-level and program-level.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	for _, a := range ProgramAnalyzers() {
		names = append(names, a.Name)
	}
	return names
}

// LoadDir parses every .go file directly inside dir into a Package.
// Display names keep dir as their prefix. Parse errors are returned;
// the build gate reports them with better context than we could.
func LoadDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &Package{Fset: fset}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, &File{
			Name: path,
			AST:  af,
			Test: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	return p, nil
}

// TypeCheck runs go/types over the package in tolerant mode: type
// errors (including unresolvable imports) are ignored and whatever
// resolved lands in p.Info. imp is typically a source importer, which
// resolves stdlib packages like sync and time; intra-module imports are
// expected to fail and do so harmlessly.
func (p *Package) TypeCheck(imp types.Importer) {
	defer func() {
		// A panicking importer must never take the lint gate down with
		// it; analyzers fall back to name heuristics.
		if recover() != nil {
			p.Info = nil
		}
	}()
	if len(p.Files) == 0 {
		return
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // keep going on every error
	}
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		files = append(files, f.AST)
	}
	name := p.Files[0].AST.Name.Name
	path := p.Path
	if path == "" {
		path = name
	}
	pkg, _ := conf.Check(path, p.Fset, files, info)
	p.Info = info
	p.Types = pkg
}

// Check runs every analyzer over the package, applies suppression
// comments, and returns the surviving findings sorted by position.
func Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		sup := suppressions(p.Fset, f)
		for _, a := range Analyzers() {
			if a.SkipTests && f.Test {
				continue
			}
			for _, fd := range a.Run(p, f) {
				if sup.covers(fd.Line, a.Name) {
					continue
				}
				out = append(out, fd)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// suppressionMarker introduces an ignore comment.
const suppressionMarker = "presslint:ignore"

// suppressed maps source lines to the analyzer names ignored there.
type suppressed map[int]map[string]bool

func (s suppressed) covers(line int, analyzer string) bool {
	// A marker suppresses findings on its own line (trailing comment)
	// and on the line directly below it (standalone comment).
	for _, l := range [2]int{line, line - 1} {
		if names, ok := s[l]; ok && (names[analyzer] || names["all"]) {
			return true
		}
	}
	return false
}

// suppressions scans a file's comments for presslint:ignore markers.
// The marker is followed by one or more analyzer names (comma or space
// separated, or "all"); any remaining text is the human justification.
// Unknown names are ignored, so a typo leaves the finding visible.
func suppressions(fset *token.FileSet, f *File) suppressed {
	valid := make(map[string]bool)
	for _, n := range AnalyzerNames() {
		valid[n] = true
	}
	valid["all"] = true
	sup := make(suppressed)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			idx := strings.Index(c.Text, suppressionMarker)
			if idx < 0 {
				continue
			}
			rest := c.Text[idx+len(suppressionMarker):]
			line := fset.Position(c.Pos()).Line
			names := sup[line]
			if names == nil {
				names = make(map[string]bool)
				sup[line] = names
			}
			for _, tok := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ' ' || r == '\t' || r == ','
			}) {
				if !valid[tok] {
					break // first non-analyzer token starts the justification
				}
				names[tok] = true
			}
		}
	}
	return sup
}

// --- shared helpers ---------------------------------------------------

// typeOf returns the resolved type of e, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// namedTypeString renders e's type with pointers stripped ("sync.Mutex"
// for both sync.Mutex and *sync.Mutex), or "" when unresolved.
func (p *Package) namedTypeString(e ast.Expr) string {
	t := p.typeOf(e)
	if t == nil {
		return ""
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	return t.String()
}

// isChanType reports whether e resolves to a channel type; unresolved
// expressions report false.
func (p *Package) isChanType(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// selectorCall decomposes a call whose function is X.Name(...),
// returning the receiver expression and method name.
func selectorCall(call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// calleeName returns the bare name of the called function: "F" for
// F(...), "F" for pkg.F(...) and x.F(...).
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// funcScopes yields every function body in the file that forms an
// independent analysis scope: each FuncDecl body and each FuncLit body.
// The callback receives the enclosing function's name ("" for
// literals).
func funcScopes(f *File, fn func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn(fd.Name.Name, fd.Body)
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			fn("", lit.Body)
		}
		return true
	})
}

// line returns the 1-based source line of pos.
func (p *Package) line(pos token.Pos) int {
	return p.Fset.Position(pos).Line
}
