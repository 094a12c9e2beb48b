package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

const hotpathAllocName = "hotpath-alloc"

// hotpathMarker declares a function a hot-path root:
//
//	//presslint:hotpath [budget=N]
//
// in the function's doc comment. The analyzer walks the root's whole
// transitive callee set (static calls, interface dispatch, function
// values) and reports every allocation site it can reach; more than N
// sites (default 0) fails the check. The classes recognized: make/new,
// composite literals that allocate (&T{}, slice and map literals),
// append, string conversions and non-constant concatenation, closures
// that capture variables (a deferred literal's does not escape its
// frame), method values, boxing a concrete value into an interface
// parameter, go statements, and calls into known-allocating stdlib
// (fmt, strconv, time.NewTimer, ...). Unknown stdlib calls are assumed
// non-allocating; calls through unresolvable function values are
// reported, since the analyzer cannot see past them.
//
// Two escape hatches keep the check honest rather than silent:
//
//	//presslint:alloc-gated <why>
//
// on a function's doc comment excludes the function from hot-path
// traversal (a feature-gated subsystem whose disabled path is proven
// alloc-free dynamically, e.g. by an -Off benchmark); the same marker
// on or directly above a statement exempts just that statement's
// subtree (the enabled branch behind a cheap guard). Error paths are
// exempt automatically: a block whose last statement returns a non-nil
// error or panics is failure-path construction, not steady-state work.
const (
	hotpathMarker    = "presslint:hotpath"
	allocGatedMarker = "presslint:alloc-gated"
)

var hotpathAlloc = &ProgramAnalyzer{
	Name: hotpathAllocName,
	Doc:  "enforce allocation budgets on annotated hot paths across the whole call graph",
	Run:  runHotpathAlloc,
}

// allocSite is one potential allocation, the fact the fixed-point
// framework propagates bottom-up.
type allocSite struct {
	pos   token.Pos
	what  string
	owner *CGNode
}

type hotRoot struct {
	node   *CGNode
	budget int
}

func runHotpathAlloc(prog *Program) []Finding {
	g := prog.CallGraph()
	h := &hotpathScan{
		prog:       prog,
		g:          g,
		gatedStmts: make(map[*File]map[int]bool),
		excluded:   make(map[*ast.CallExpr]bool),
	}

	var roots []hotRoot
	gated := make(map[*CGNode]bool)
	for _, n := range g.All {
		if n.Decl == nil {
			continue
		}
		if docHasMarker(n.Decl.Doc, allocGatedMarker) {
			gated[n] = true
		}
		if ok, budget := hotpathAnnotation(n.Decl.Doc); ok {
			roots = append(roots, hotRoot{node: n, budget: budget})
		}
	}
	if len(roots) == 0 {
		return nil
	}
	// Scan every node's sites up front: the scan also records which
	// call expressions sit under gated statements or in cold blocks, so
	// follow can cut those edges consistently with the site exemption.
	siteSets := make(map[*CGNode]map[allocSite]bool, len(g.All))
	for _, n := range g.All {
		if !gated[n] {
			siteSets[n] = h.sites(n)
		}
	}
	follow := func(n *CGNode, site *CallSite) bool {
		return !site.Go && !gated[n] && !h.excluded[site.Call]
	}
	facts := propagate(g, func(n *CGNode) map[allocSite]bool {
		return siteSets[n]
	}, follow)

	var out []Finding
	for _, r := range roots {
		set := facts[r.node]
		if len(set) <= r.budget {
			continue
		}
		sites := make([]allocSite, 0, len(set))
		for s := range set {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		for _, s := range sites {
			msg := fmt.Sprintf("hot path %s exceeds alloc budget %d: %s",
				shortName(r.node.Name), r.budget, s.what)
			if via := chain(r.node, s.owner, follow); via != "" {
				msg += " (via " + via + ")"
			}
			out = append(out, prog.finding(s.pos, hotpathAllocName, msg))
		}
	}
	return out
}

// hotpathAnnotation parses `presslint:hotpath [budget=N]` from a doc
// comment.
func hotpathAnnotation(doc *ast.CommentGroup) (ok bool, budget int) {
	if doc == nil {
		return false, 0
	}
	for _, c := range doc.List {
		// Directive form only (//presslint:hotpath, no space): prose
		// that merely mentions the marker is not an annotation.
		rest, found := strings.CutPrefix(c.Text, "//"+hotpathMarker)
		if !found || strings.HasPrefix(rest, "-") {
			continue
		}
		for _, f := range strings.Fields(rest) {
			if v, found := strings.CutPrefix(f, "budget="); found {
				if n, err := strconv.Atoi(v); err == nil {
					budget = n
				}
			}
		}
		return true, budget
	}
	return false, 0
}

func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//"+marker) {
			return true
		}
	}
	return false
}

// hotpathScan finds allocation sites in function bodies.
type hotpathScan struct {
	prog *Program
	g    *CallGraph
	// gatedStmts caches, per file, the lines carrying a statement-level
	// alloc-gated marker.
	gatedStmts map[*File]map[int]bool
	// excluded collects the call expressions under gated statements and
	// cold blocks; edges from them are cut during propagation so an
	// exempted subtree's callees stay out of the hot path too.
	excluded map[*ast.CallExpr]bool
}

func (h *hotpathScan) gatedLines(f *File) map[int]bool {
	if m, ok := h.gatedStmts[f]; ok {
		return m
	}
	m := make(map[int]bool)
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//"+allocGatedMarker) {
				m[h.prog.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	h.gatedStmts[f] = m
	return m
}

// stmtGated reports whether a statement sits on or directly below an
// alloc-gated marker line.
func (h *hotpathScan) stmtGated(f *File, s ast.Stmt) bool {
	lines := h.gatedLines(f)
	if len(lines) == 0 {
		return false
	}
	line := h.prog.Fset.Position(s.Pos()).Line
	return lines[line] || lines[line-1]
}

// sites collects the countable allocation sites of one node's body,
// excluding gated statements, cold (error/panic) blocks, and nested
// literal bodies (those are their own nodes).
func (h *hotpathScan) sites(n *CGNode) map[allocSite]bool {
	body := n.Body()
	if body == nil {
		return nil
	}
	w := &siteWalker{h: h, n: n, out: make(map[allocSite]bool)}
	w.stmtList(body.List)
	return w.out
}

type siteWalker struct {
	h   *hotpathScan
	n   *CGNode
	out map[allocSite]bool
}

func (w *siteWalker) add(pos token.Pos, what string) {
	w.out[allocSite{pos: pos, what: what, owner: w.n}] = true
}

func (w *siteWalker) info() *types.Info { return w.n.Pkg.Info }

// stmtList scans a statement list; a list that ends by returning a
// non-nil error or panicking is a failure path and contributes no
// sites.
func (w *siteWalker) stmtList(list []ast.Stmt) {
	if w.coldList(list) {
		for _, s := range list {
			w.excludeCalls(s)
		}
		return
	}
	for _, s := range list {
		w.stmt(s)
	}
}

// excludeCalls marks every call under an exempted subtree so edge
// propagation skips them along with the local sites.
func (w *siteWalker) excludeCalls(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			w.h.excluded[call] = true
		}
		return true
	})
}

// coldList reports whether the list terminates in error-return or
// panic.
func (w *siteWalker) coldList(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			if w.isErrorValue(r) {
				return true
			}
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// isErrorValue reports whether e is direct evidence of a failure path:
// an error-typed variable or sentinel being returned, or an error being
// constructed in place. A call whose result merely has type error does
// NOT count — `return v.postOut(d)` is the function's main body, not a
// cold block.
func (w *siteWalker) isErrorValue(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return false
		}
		if t, ok := w.exprType(e); ok {
			return implementsError(t)
		}
		return strings.Contains(strings.ToLower(e.Name), "err")
	case *ast.SelectorExpr:
		// pkg.ErrSentinel or s.err.
		if t, ok := w.exprType(e); ok {
			return implementsError(t)
		}
		return strings.Contains(strings.ToLower(e.Sel.Name), "err")
	case *ast.CallExpr:
		return isErrorConstruction(e)
	case *ast.CompositeLit:
		t, ok := w.exprType(e)
		return ok && implementsError(t)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			t, ok := w.exprType(e)
			return ok && implementsError(t)
		}
	}
	return false
}

func (w *siteWalker) exprType(e ast.Expr) (types.Type, bool) {
	info := w.info()
	if info == nil {
		return nil, false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil, false
	}
	return tv.Type, true
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return types.Implements(t, errorIface)
}

func (w *siteWalker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	if w.h.stmtGated(w.n.File, s) {
		w.excludeCalls(s)
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmtList(s.List)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmtList(s.Body.List)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Post)
		w.stmtList(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		w.stmtList(s.Body.List)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmtList(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmtList(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				w.stmtList(cc.Body)
			}
		}
	case *ast.GoStmt:
		w.add(s.Pos(), "go statement spawns a goroutine")
	case *ast.DeferStmt:
		// A deferred literal's closure lives in the frame; its body is its
		// own node, reached through the call edge.
		if _, lit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); lit {
			for _, a := range s.Call.Args {
				w.expr(a)
			}
			return
		}
		w.call(s.Call)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

func (w *siteWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.CallExpr:
		w.call(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.add(e.Pos(), "&"+composedType(cl)+"{} allocates")
				w.elts(cl)
				return
			}
		}
		w.expr(e.X)
	case *ast.CompositeLit:
		if w.litAllocates(e) {
			w.add(e.Pos(), composedType(e)+" literal allocates")
		}
		w.elts(e)
	case *ast.FuncLit:
		if w.captures(e) {
			w.add(e.Pos(), "closure captures variables (allocates)")
		}
		// The body is its own call-graph node.
	case *ast.SelectorExpr:
		if w.methodValue(e) {
			w.add(e.Pos(), "method value creates a bound closure (allocates)")
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && w.isString(e.X) && !w.isConstant(e) {
			w.add(e.Pos(), "string concatenation allocates")
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

func (w *siteWalker) elts(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		w.expr(el)
	}
}

// litAllocates reports whether a composite literal allocates backing
// store: slice and map literals do, plain struct/array values do not.
func (w *siteWalker) litAllocates(cl *ast.CompositeLit) bool {
	if info := w.info(); info != nil {
		if tv, ok := info.Types[cl]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				return true
			}
			return false
		}
	}
	switch t := cl.Type.(type) {
	case *ast.ArrayType:
		return t.Len == nil
	case *ast.MapType:
		return true
	}
	return false
}

func composedType(cl *ast.CompositeLit) string {
	if cl.Type == nil {
		return "composite"
	}
	return types.ExprString(cl.Type)
}

// captures reports whether a function literal closes over variables
// declared outside it (package-level state is accessed directly and
// does not force a closure allocation).
func (w *siteWalker) captures(lit *ast.FuncLit) bool {
	info := w.info()
	if info == nil {
		return true // conservative without type information
	}
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil {
			return true
		}
		// Package-scope variables are not captured.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

// methodValue reports whether sel is a method used as a value (not the
// callee of a call) — a bound-method closure.
func (w *siteWalker) methodValue(sel *ast.SelectorExpr) bool {
	info := w.info()
	if info == nil {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	// In call position the graph resolved it as a call, and call()
	// handles the Fun specially; reaching here means value position.
	return true
}

func (w *siteWalker) isString(e ast.Expr) bool {
	info := w.info()
	if info == nil {
		return false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isConstant reports whether the compiler folds e: a constant
// expression allocates nothing at run time.
func (w *siteWalker) isConstant(e ast.Expr) bool {
	info := w.info()
	return info != nil && info.Types[e].Value != nil
}

// errorConstruction names the calls exempt as failure-path-only: the
// codebase constructs errors exclusively on paths that then return
// them.
func isErrorConstruction(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	switch pkg.Name + "." + sel.Sel.Name {
	case "fmt.Errorf", "errors.New", "errors.Join":
		return true
	}
	return false
}

// extAllocs lists stdlib calls known to allocate on every invocation.
var extAllocs = map[string]string{
	"time.NewTimer":  "allocates a timer",
	"time.NewTicker": "allocates a ticker",
	"time.After":     "allocates a timer (and leaks it until it fires)",
	"time.Tick":      "allocates a ticker",
	"bytes.Clone":    "allocates a copy",
	"strings.Clone":  "allocates a copy",
	"strings.Repeat": "allocates",
	"strings.Join":   "allocates",
	"sort.Slice":     "allocates (reflection + closure)",
}

// extAllocPkgs lists packages whose calls allocate as a rule (format
// machinery, number-to-string conversion).
var extAllocPkgs = map[string]bool{
	"fmt":     true,
	"strconv": true,
}

func extAllocation(name string) (string, bool) {
	if why, ok := extAllocs[name]; ok {
		return why, true
	}
	if i := strings.IndexByte(name, '.'); i > 0 && extAllocPkgs[name[:i]] {
		return "formats (allocates)", true
	}
	return "", false
}

func (w *siteWalker) call(c *ast.CallExpr) {
	info := w.info()
	fun := ast.Unparen(c.Fun)

	// Error construction is failure-path-only by convention; exempt
	// the call and its arguments.
	if isErrorConstruction(c) {
		return
	}

	// Conversions.
	if info != nil {
		if tv, ok := info.Types[c.Fun]; ok && tv.IsType() {
			w.conversion(c, tv.Type)
			for _, a := range c.Args {
				w.expr(a)
			}
			return
		}
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		builtin := false
		if info != nil {
			_, builtin = info.Uses[id].(*types.Builtin)
		} else {
			switch id.Name {
			case "make", "new", "append", "len", "cap", "copy", "delete", "panic", "close", "min", "max":
				builtin = true
			}
		}
		if builtin {
			switch id.Name {
			case "make":
				w.add(c.Pos(), "make allocates")
			case "new":
				w.add(c.Pos(), "new allocates")
			case "append":
				w.add(c.Pos(), "append may grow its backing array")
			}
			for _, a := range c.Args {
				w.expr(a)
			}
			return
		}
	}

	site := w.h.g.Sites[c]
	if site != nil {
		for _, ext := range site.Ext {
			short := shortName(ext)
			if why, ok := extAllocation(short); ok {
				w.add(c.Pos(), "calls "+short+": "+why)
			}
		}
		if site.Dynamic {
			w.add(c.Pos(), "call through unresolved function value (cannot prove alloc-free)")
		}
	}

	// Boxing concrete values into interface parameters.
	if info != nil {
		if sig, ok := typeAsSignature(info, c.Fun); ok {
			w.boxing(c, sig)
		}
	}

	// Receiver/function expression and arguments.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else if _, ok := fun.(*ast.Ident); !ok {
		w.expr(fun)
	}
	for _, a := range c.Args {
		w.expr(a)
	}
}

func typeAsSignature(info *types.Info, fun ast.Expr) (*types.Signature, bool) {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil, false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	return sig, ok
}

// conversion flags allocating conversions: string <-> byte/rune
// slices, and boxing a concrete non-pointer-shaped value into an
// interface type.
func (w *siteWalker) conversion(c *ast.CallExpr, target types.Type) {
	if len(c.Args) != 1 {
		return
	}
	info := w.info()
	argT := info.Types[c.Args[0]].Type
	if argT == nil {
		return
	}
	switch t := target.Underlying().(type) {
	case *types.Basic:
		if t.Info()&types.IsString != 0 {
			if _, isSlice := argT.Underlying().(*types.Slice); isSlice {
				w.add(c.Pos(), "string conversion copies (allocates)")
			}
		}
	case *types.Slice:
		if b, ok := argT.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			w.add(c.Pos(), "byte/rune slice conversion copies (allocates)")
		}
	case *types.Interface:
		if !boxFree(argT) && !info.Types[c.Args[0]].IsNil() {
			w.add(c.Pos(), "conversion boxes value into interface (allocates)")
		}
	}
}

// boxing flags concrete non-pointer-shaped arguments passed to
// interface parameters (including variadic ...any).
func (w *siteWalker) boxing(c *ast.CallExpr, sig *types.Signature) {
	info := w.info()
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range c.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if c.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			last := params.At(params.Len() - 1).Type()
			sl, ok := last.Underlying().(*types.Slice)
			if !ok {
				continue
			}
			pt = sl.Elem()
		default:
			continue
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		tv, ok := info.Types[arg]
		if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
			continue // unresolved, nil, or constant (small constants don't allocate)
		}
		if _, argIface := tv.Type.Underlying().(*types.Interface); argIface {
			continue
		}
		if boxFree(tv.Type) {
			continue
		}
		w.add(arg.Pos(), "argument boxed into interface parameter (allocates)")
	}
}

// boxFree reports whether values of t fit an interface word without
// allocating: pointers and pointer-shaped types.
func boxFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// shortName strips the module path prefix for readable findings.
func shortName(name string) string {
	return strings.ReplaceAll(name, "press/", "")
}
