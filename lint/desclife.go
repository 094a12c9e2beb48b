package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// descriptorLifecycle enforces the VIA descriptor ownership rule
// (spec Section 2.1, reproduced by via.Descriptor) where it still
// spans time: once posted with PostRecv, a receive descriptor — and the
// registered memory its segments describe — belongs to the NIC until
// the completion is reaped. A send or remote write is complete when
// PostSend/PostRDMAWrite returns, so those posts leave nothing owned and
// are not tracked. The analyzer flags, within one function:
//
//   - a descriptor posted again while still posted (no intervening
//     Wait/RecvWait/Poll/Status between the posts);
//   - Reset called on a posted descriptor (panics at runtime);
//   - a Write/Store32/Store64 on a memory region that backs a posted
//     descriptor's segments (the transfer races the mutation).
//
// Tracking is conservative: any completion-reaping call clears all
// posted state, and a descriptor that escapes (sent on a channel,
// aliased, stored) is no longer tracked. Passing a descriptor to a
// function declared in the same package follows it one call boundary
// down: a one-level summary of the callee decides whether the call
// posts the descriptor, reaps its completion, merely inspects it (all
// keep it tracked here), or does something the summary cannot model
// (escapes as before). Loop bodies are scanned twice so a
// post-without-wait inside a loop is seen as the re-post it is on the
// second iteration.
const descriptorLifecycleName = "descriptor-lifecycle"

var descriptorLifecycle = &Analyzer{
	Name: descriptorLifecycleName,
	Doc:  "receive via.Descriptor re-posted or its buffer mutated between PostRecv and completion",
	Run:  runDescriptorLifecycle,
}

// postMethods hand a descriptor to the NIC until a later completion.
var postMethods = map[string]bool{
	"PostRecv": true,
}

// reapMethods drain completions; seeing one means any descriptor may
// have completed, so all posted state clears.
var reapMethods = map[string]bool{
	"Wait":     true,
	"RecvWait": true,
	"Poll":     true,
}

// descInspectMethods are read-only descriptor methods; Status/Err are
// how callers gate on completion, so they clear that descriptor.
var descInspectMethods = map[string]bool{
	"Status":      true,
	"Err":         true,
	"Transferred": true,
	"Len":         true,
}

var regionMutators = map[string]bool{
	"Write":   true,
	"Store32": true,
	"Store64": true,
}

func runDescriptorLifecycle(p *Package, f *File) []Finding {
	var out []Finding
	funcScopes(f, func(name string, body *ast.BlockStmt) {
		s := &descScan{
			p:        p,
			f:        f,
			created:  make(map[string][]string),
			posted:   make(map[string]token.Pos),
			reported: make(map[string]bool),
		}
		s.stmts(body.List)
		out = append(out, s.out...)
	})
	return out
}

type descScan struct {
	p *Package
	f *File
	// created maps a descriptor variable to the rendered expressions of
	// the regions its segments cover.
	created map[string][]string
	// posted maps a descriptor variable to the position of its post.
	posted map[string]token.Pos
	// reported dedupes findings emitted on both passes over a loop body.
	reported map[string]bool
	out      []Finding
}

func (s *descScan) report(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", s.p.line(pos), msg)
	if s.reported[key] {
		return
	}
	s.reported[key] = true
	s.out = append(s.out, Finding{
		File:     s.f.Name,
		Line:     s.p.line(pos),
		Analyzer: descriptorLifecycleName,
		Message:  msg,
	})
}

func (s *descScan) clearVar(name string) {
	delete(s.created, name)
	delete(s.posted, name)
}

func (s *descScan) clearAllPosted() {
	s.posted = make(map[string]token.Pos)
}

// createVar records a descriptor built by MustDescriptor/NewDescriptor
// together with the regions named in its segment literals.
func (s *descScan) createVar(name string, call *ast.CallExpr) {
	var regions []string
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Region" {
				regions = append(regions, types.ExprString(kv.Value))
			}
		}
	}
	s.created[name] = regions
	delete(s.posted, name)
}

// --- statement walk ---------------------------------------------------

func (s *descScan) stmts(list []ast.Stmt) {
	for _, st := range list {
		s.stmt(st)
	}
}

func (s *descScan) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.stmts(st.List)
	case *ast.ExprStmt:
		s.expr(st.X)
	case *ast.AssignStmt:
		s.assign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					s.expr(v)
				}
				for _, n := range vs.Names {
					s.clearVar(n.Name)
				}
			}
		}
	case *ast.IfStmt:
		s.stmt(st.Init)
		s.expr(st.Cond)
		s.stmt(st.Body)
		s.stmt(st.Else)
	case *ast.ForStmt:
		s.stmt(st.Init)
		s.expr(st.Cond)
		// Twice: a post with no reap inside a loop body is a re-post on
		// the next iteration.
		for i := 0; i < 2; i++ {
			s.stmt(st.Body)
			s.stmt(st.Post)
		}
	case *ast.RangeStmt:
		s.expr(st.X)
		if id, ok := st.Key.(*ast.Ident); ok {
			s.clearVar(id.Name)
		}
		if id, ok := st.Value.(*ast.Ident); ok {
			s.clearVar(id.Name)
		}
		for i := 0; i < 2; i++ {
			s.stmt(st.Body)
		}
	case *ast.SwitchStmt:
		s.stmt(st.Init)
		s.expr(st.Tag)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.expr(e)
				}
				s.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init)
		s.stmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmt(cc.Comm)
				s.stmts(cc.Body)
			}
		}
	case *ast.SendStmt:
		s.expr(st.Chan)
		s.expr(st.Value) // a descriptor sent away escapes
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e)
		}
	case *ast.IncDecStmt:
		s.expr(st.X)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.GoStmt, *ast.DeferStmt:
		// Run on another goroutine / at return; their FuncLit bodies are
		// analyzed as independent scopes.
	}
}

// assign handles creation (d := MustDescriptor(...)) specially and
// otherwise treats assigned-to descriptors as reset and right-hand
// descriptor uses as escapes.
func (s *descScan) assign(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			name := calleeName(call)
			if name == "MustDescriptor" || name == "NewDescriptor" {
				if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					s.expr(st.Rhs[0])
					s.createVar(id.Name, call)
					return
				}
			}
		}
	}
	for _, rhs := range st.Rhs {
		s.expr(rhs)
	}
	for _, lhs := range st.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			s.clearVar(id.Name)
		} else {
			s.expr(lhs)
		}
	}
}

// --- expression walk --------------------------------------------------

// expr scans an expression in two passes: recognized calls generate
// lifecycle events and consume the descriptor identifiers they touch;
// any other appearance of a tracked descriptor is an escape, after
// which it is no longer tracked.
func (s *descScan) expr(e ast.Expr) {
	if e == nil {
		return
	}
	consumed := make(map[*ast.Ident]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			s.call(call, consumed)
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !consumed[id] {
			if _, tracked := s.created[id.Name]; tracked {
				s.clearVar(id.Name)
			} else if _, p := s.posted[id.Name]; p {
				s.clearVar(id.Name)
			}
		}
		return true
	})
}

// descArg unwraps the descriptor identifier from a Post* argument.
func descArg(e ast.Expr) *ast.Ident {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	id, _ := e.(*ast.Ident)
	return id
}

func (s *descScan) call(c *ast.CallExpr, consumed map[*ast.Ident]bool) {
	recv, name, isSel := selectorCall(c)
	recvIdent, _ := recv.(*ast.Ident)
	if !isSel {
		s.summaryArgs(c, consumed)
		return
	}
	switch {
	case postMethods[name]:
		if len(c.Args) == 0 {
			return
		}
		if id := descArg(c.Args[0]); id != nil {
			consumed[id] = true
			if recvIdent != nil {
				consumed[recvIdent] = true
			}
			if prev, ok := s.posted[id.Name]; ok {
				s.report(c.Pos(), fmt.Sprintf(
					"descriptor %s re-posted while still posted (previous post at line %d, no completion reaped in between); the NIC owns a posted descriptor",
					id.Name, s.p.line(prev)))
			}
			s.posted[id.Name] = c.Pos()
		}
	case reapMethods[name]:
		if recvIdent != nil {
			consumed[recvIdent] = true
		}
		s.clearAllPosted()
	case name == "Reset":
		if recvIdent != nil {
			consumed[recvIdent] = true
			if prev, ok := s.posted[recvIdent.Name]; ok {
				s.report(c.Pos(), fmt.Sprintf(
					"Reset of descriptor %s while posted (posted at line %d); via.Descriptor.Reset panics on a posted descriptor",
					recvIdent.Name, s.p.line(prev)))
			}
		}
	case descInspectMethods[name]:
		if recvIdent != nil {
			consumed[recvIdent] = true
			delete(s.posted, recvIdent.Name)
		}
	case regionMutators[name]:
		rname := types.ExprString(recv)
		for d, pos := range s.posted {
			for _, reg := range s.created[d] {
				if reg == rname {
					s.report(c.Pos(), fmt.Sprintf(
						"region %s backs descriptor %s posted at line %d; mutating it before the completion races the transfer",
						rname, d, s.p.line(pos)))
				}
			}
		}
	default:
		// Unknown method on a tracked descriptor: it escapes the
		// analysis. A tracked descriptor passed as an argument gets one
		// chance at a callee summary before escaping the same way.
		if recvIdent != nil {
			if _, ok := s.created[recvIdent.Name]; ok {
				consumed[recvIdent] = true
				s.clearVar(recvIdent.Name)
			}
			if _, ok := s.posted[recvIdent.Name]; ok {
				consumed[recvIdent] = true
				s.clearVar(recvIdent.Name)
			}
		}
		s.summaryArgs(c, consumed)
	}
}

// summaryArgs follows tracked descriptors one call boundary down: when
// the callee is a unique in-package declaration whose summary shows it
// only posts, reaps, or inspects the parameter, the descriptor stays
// tracked here with that event applied instead of escaping.
func (s *descScan) summaryArgs(c *ast.CallExpr, consumed map[*ast.Ident]bool) {
	fd := s.p.localDecl(c)
	if fd == nil {
		return
	}
	for i, a := range c.Args {
		id := descArg(a)
		if id == nil || consumed[id] {
			continue
		}
		_, created := s.created[id.Name]
		_, posted := s.posted[id.Name]
		if !created && !posted {
			continue
		}
		pn := paramName(fd, i)
		if pn == "" {
			continue
		}
		switch descParamFate(fd, pn) {
		case fatePosts:
			consumed[id] = true
			if prev, ok := s.posted[id.Name]; ok {
				s.report(c.Pos(), fmt.Sprintf(
					"descriptor %s re-posted while still posted (previous post at line %d, this call posts it via %s); the NIC owns a posted descriptor",
					id.Name, s.p.line(prev), fd.Name.Name))
			}
			s.posted[id.Name] = c.Pos()
		case fateReaps:
			consumed[id] = true
			s.clearAllPosted()
		case fateInspect:
			consumed[id] = true
		}
		// fateUnknown: left unconsumed, so the escape pass clears it.
	}
}
