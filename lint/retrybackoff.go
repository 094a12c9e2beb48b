package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// retryWithoutBackoff flags retry loops around transport calls that
// re-issue the operation with no pause between attempts. A tight retry
// against a peer that is slow or down turns one failure into a spin:
// it burns the CPU the event loop needs, hammers the peer's receive
// machinery just when it is least able to absorb it, and — when many
// nodes retry the same dead peer — synchronizes into a thundering
// herd. The server retries a failed send only on a fresh channel (the
// transports' bounded supersede bounce) and fails over otherwise; every
// loop that waits for a peer to come back is paced. This analyzer keeps
// it that way.
//
// A loop is a retry loop when the error of a transport call (the
// unchecked-comms-error call set) steers another attempt:
//
//	for err != nil { err = vi.PostSend(d) }        // error in the condition
//	for { if vi.Connect(a, s) == nil { break } }   // loop around on failure
//	for { err := t.Send(dst, m); if err != nil { continue } }
//
// The loop is clean when pacing is visible inside it: time.Sleep, a
// select on time.After/Tick/NewTimer/NewTicker, a backoff schedule
// (next on a backoff value), or a completion wait (Wait, RecvWait —
// blocked on the NIC is paced by the NIC). Accept is
// excluded from the trigger set entirely: an accept loop blocks until
// a connection arrives, so re-entering it immediately is the correct
// shape, not a spin.
const retryWithoutBackoffName = "retry-without-backoff"

var retryWithoutBackoff = &Analyzer{
	Name:      retryWithoutBackoffName,
	Doc:       "transport retry loop with no backoff between attempts",
	SkipTests: true,
	Run:       runRetryWithoutBackoff,
}

// pauseCalls are callee names that put time between attempts. "next"
// covers a backoff schedule (bo.next()); the Wait family covers loops
// paced by NIC completions.
var pauseCalls = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"next":      true,
	"Wait":      true,
	"RecvWait":  true,
	"Accept":    true, // an accept loop is paced by inbound dials
}

// retryCalls is the trigger set: the transport calls whose tight retry
// is a spin. Accept blocks until a peer dials, so it is not here.
func retryCall(name string) bool {
	return name != "Accept" && commsCalls[name]
}

func runRetryWithoutBackoff(p *Package, f *File) []Finding {
	var out []Finding
	ast.Inspect(f.AST, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if name, retries := retryLoopShape(loop); retries && !loopHasPause(loop) {
			out = append(out, Finding{
				File:     f.Name,
				Line:     p.line(loop.Pos()),
				Analyzer: retryWithoutBackoffName,
				Message:  fmt.Sprintf("retry loop re-issues %s with no backoff; pause between attempts (a backoff schedule, or time.After) or fail over", name),
			})
		}
		return true
	})
	return out
}

// retryLoopShape reports whether loop retries a transport call on
// failure, and which call.
func retryLoopShape(loop *ast.ForStmt) (callName string, retries bool) {
	// The error variables fed by transport calls anywhere in the loop
	// (init, condition, post, body — `for err := X(); err != nil; err =
	// X()` keeps everything out of the body).
	errVars := make(map[string]bool)
	collect := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			call := commsCallIn(as.Rhs)
			if call == "" {
				return true
			}
			if callName == "" {
				callName = call
			}
			// The error is by convention the last (or only) result.
			if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok && id.Name != "_" {
				errVars[id.Name] = true
			}
			return true
		})
	}
	collect(loop.Init)
	collect(loop.Post)
	collect(loop.Body)

	// Form 1: the loop condition keeps going while the error persists,
	// or invokes the transport call directly.
	if loop.Cond != nil {
		if c := directCommsCall(loop.Cond); c != "" {
			return c, true
		}
		if callName != "" && mentionsNilCompare(loop.Cond, errVars, token.NEQ) {
			return callName, true
		}
	}
	if callName == "" {
		return "", false
	}
	// Form 2: an explicit branch retries on failure (`if err != nil {
	// continue }`) or exits only on success (`if err == nil { break }`).
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || found {
			return !found
		}
		if mentionsNilCompare(ifs.Cond, errVars, token.NEQ) && hasBranch(ifs.Body, token.CONTINUE, false) {
			found = true
		}
		if mentionsNilCompare(ifs.Cond, errVars, token.EQL) && hasBranch(ifs.Body, token.BREAK, true) {
			found = true
		}
		return !found
	})
	return callName, found
}

// commsCallIn returns the name of the first transport call in exprs,
// "" if none.
func commsCallIn(exprs []ast.Expr) string {
	name := ""
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if name != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && retryCall(calleeName(call)) {
				name = calleeName(call)
				return false
			}
			return true
		})
	}
	return name
}

// directCommsCall returns the name of a transport call appearing inside
// e (e.g. `vi.Connect(a, s) != nil` as a loop condition), "" if none.
func directCommsCall(e ast.Expr) string {
	return commsCallIn([]ast.Expr{e})
}

// mentionsNilCompare reports whether e contains `v op nil` (either
// order) for any v in vars.
func mentionsNilCompare(e ast.Expr, vars map[string]bool, op token.Token) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != op || found {
			return !found
		}
		if isErrNilPair(be.X, be.Y, vars) || isErrNilPair(be.Y, be.X, vars) {
			found = true
		}
		return !found
	})
	return found
}

func isErrNilPair(a, b ast.Expr, vars map[string]bool) bool {
	id, ok := a.(*ast.Ident)
	if !ok || !vars[id.Name] {
		return false
	}
	nb, ok := b.(*ast.Ident)
	return ok && nb.Name == "nil"
}

// hasBranch reports whether body contains the branch keyword (break or
// continue) at its level of the loop; orReturn also accepts a return
// statement (exiting only on success is the other face of retrying on
// failure).
func hasBranch(body *ast.BlockStmt, kw token.Token, orReturn bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false // break/continue inside belong to the inner loop
		case *ast.BranchStmt:
			if n.Tok == kw {
				found = true
			}
		case *ast.ReturnStmt:
			if orReturn {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopHasPause reports whether any pacing is visible inside the loop:
// a pause call, or a select statement (which at minimum waits on its
// cases).
func loopHasPause(loop *ast.ForStmt) bool {
	found := false
	for _, n := range []ast.Node{loop.Body, loop.Post} {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && pauseCalls[calleeName(call)] {
				found = true
			}
			return !found
		})
	}
	return found
}
