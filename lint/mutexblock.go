package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mutexAcrossBlock flags a sync.Mutex (or RWMutex) that is still held —
// no intervening Unlock; a deferred Unlock releases only at return, so
// the lock stays held — when control reaches a potentially blocking
// operation: a channel send or receive, a select without a default
// clause, or a call into a known-blocking API (VI.Connect,
// Listener.Accept, CompletionQueue.Wait, Descriptor.Wait,
// VI.RecvWait, sync.WaitGroup.Wait, time.Sleep). That shape
// deadlocks the moment the blocking operation's progress depends on
// another goroutine taking the same lock — the latent hazard of the
// VIA layer's lock-per-VI design (via/vi.go), where completion
// delivery, connection teardown, and posting all share one mutex.
//
// The analysis is intra-procedural and scans statements in source
// order, so an Unlock on one branch is treated as releasing for the
// code below it; this trades rare false negatives for a quiet signal.
// sync.Cond.Wait is exempt: it releases the mutex while waiting.
const mutexAcrossBlockName = "mutex-across-block"

var mutexAcrossBlock = &Analyzer{
	Name: mutexAcrossBlockName,
	Doc:  "sync.Mutex held across a channel operation, select, or known-blocking call",
	Run:  runMutexAcrossBlock,
}

// blockingMethods are method names that block the caller. Cond.Wait is
// filtered out separately.
var blockingMethods = map[string]bool{
	"Wait":     true, // CompletionQueue, Descriptor, WaitGroup
	"RecvWait": true, // VI
	"Connect":  true, // VI
	"Accept":   true, // Listener, net.Listener
}

func runMutexAcrossBlock(p *Package, f *File) []Finding {
	var out []Finding
	funcScopes(f, func(name string, body *ast.BlockStmt) {
		out = append(out, scanMutexScope(p, f, body)...)
	})
	return out
}

type lockState struct {
	pos      token.Pos
	reported bool
}

type mutexScan struct {
	p    *Package
	f    *File
	held map[string]*lockState // ExprString of the mutex -> state
	// exemptComm holds the comm statements of select clauses, which are
	// reported via the select itself (or exempt under a default case).
	exemptComm map[ast.Node]bool
	out        []Finding
}

func scanMutexScope(p *Package, f *File, body *ast.BlockStmt) []Finding {
	s := &mutexScan{
		p:          p,
		f:          f,
		held:       make(map[string]*lockState),
		exemptComm: make(map[ast.Node]bool),
	}
	ast.Inspect(body, s.visit)
	return s.out
}

func (s *mutexScan) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		return false // a separate goroutine-visible scope, scanned on its own
	case *ast.GoStmt:
		return false // runs later, on another goroutine
	case *ast.DeferStmt:
		// A deferred Unlock releases at return, not here: the lock stays
		// held for everything below. Other deferred calls never run at
		// this point either, so the whole subtree is skipped.
		return false
	case *ast.SelectStmt:
		s.visitSelect(n)
		return true
	case *ast.SendStmt:
		if !s.exemptComm[n] {
			s.block(n.Pos(), "channel send")
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			if !s.exemptComm[n] {
				s.block(n.Pos(), "channel receive")
			}
		}
	case *ast.RangeStmt:
		if s.p.isChanType(n.X) {
			s.block(n.Pos(), "range over channel")
		}
	case *ast.CallExpr:
		s.visitCall(n)
	}
	return true
}

// visitSelect classifies the select and exempts its comm statements
// from individual reporting: a select with a default clause never
// blocks, and one without is reported once, as the select itself.
func (s *mutexScan) visitSelect(sel *ast.SelectStmt) {
	hasDefault := false
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		s.exemptComm[cc.Comm] = true
		// The comm statement wraps the operation: `case <-ch:` is an
		// ExprStmt or AssignStmt around the receive, `case ch <- v:` a
		// SendStmt. Exempt the underlying operation nodes too.
		ast.Inspect(cc.Comm, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				s.exemptComm[n] = true
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					s.exemptComm[n] = true
				}
			}
			return true
		})
	}
	if !hasDefault {
		s.block(sel.Pos(), "select")
	}
}

func (s *mutexScan) visitCall(call *ast.CallExpr) {
	recv, name, ok := selectorCall(call)
	if !ok {
		return
	}
	switch name {
	case "Lock", "RLock":
		if s.isMutex(recv) {
			key := types.ExprString(recv)
			if _, already := s.held[key]; !already {
				s.held[key] = &lockState{pos: call.Pos()}
			}
		}
	case "Unlock", "RUnlock":
		delete(s.held, types.ExprString(recv))
	case "Sleep":
		if id, ok := recv.(*ast.Ident); ok && id.Name == "time" {
			s.block(call.Pos(), "time.Sleep")
		}
	default:
		if blockingMethods[name] && !s.isCond(recv) {
			s.block(call.Pos(), fmt.Sprintf("call to %s.%s", types.ExprString(recv), name))
		}
	}
}

// isMutex reports whether e is usable as a sync mutex. With type
// information the type must be sync.Mutex or sync.RWMutex; without it
// any Lock/Unlock receiver is accepted.
func (s *mutexScan) isMutex(e ast.Expr) bool {
	switch s.p.namedTypeString(e) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	case "":
		return true // unresolved: fall back to the method-name heuristic
	}
	return false
}

// isCond reports whether e is a sync.Cond, whose Wait releases the
// mutex and must not be flagged. Falls back to the receiver's name
// when types are unavailable.
func (s *mutexScan) isCond(e ast.Expr) bool {
	if t := s.p.namedTypeString(e); t != "" {
		return t == "sync.Cond"
	}
	return strings.Contains(strings.ToLower(types.ExprString(e)), "cond")
}

// block records one finding per held lock at a blocking operation.
func (s *mutexScan) block(pos token.Pos, what string) {
	for key, st := range s.held {
		if st.reported {
			continue
		}
		st.reported = true
		s.out = append(s.out, Finding{
			File:     s.f.Name,
			Line:     s.p.line(pos),
			Analyzer: mutexAcrossBlockName,
			Message: fmt.Sprintf("%s (locked at line %d) held across %s; release the mutex before blocking",
				key, s.p.line(st.pos), what),
		})
	}
}
