package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// uncheckedCommsError flags discarded error results from the via and
// server transport entry points. On a reliable-delivery VI an error is
// how the layer reports a broken connection, a full work queue, or a
// protection fault (VIA error model, spec Section 2.1); dropping it
// turns a detectable failure into silent message loss — precisely the
// failure mode user-level communication is supposed to eliminate.
//
// Flagged forms, in non-test files:
//
//	vi.PostSend(d)            // bare statement
//	_ = vi.PostSend(d)        // blank assignment
//	go vi.Connect(a, s)       // error unobservable on another goroutine
//	defer vi.Connect(a, s)    // error unobservable at return
//
// The call set covers the via API (PostSend, PostRecv, PostRDMAWrite,
// Connect, Accept) and the server transport send paths (Send, sendSetup,
// sendRegular, sendCtrlRMW, sendFileRMW, sendFileChunked, and the one
// outbound write under them all: transfer, with the ring writes
// writeEntry and writeFile). Intentional discards take a
// //presslint:ignore comment with a justification.
const uncheckedCommsErrorName = "unchecked-comms-error"

var uncheckedCommsError = &Analyzer{
	Name:      uncheckedCommsErrorName,
	Doc:       "error result of a via/server transport call discarded",
	SkipTests: true,
	Run:       runUncheckedCommsError,
}

// commsCalls are method/function names whose error results carry
// transport failures.
var commsCalls = map[string]bool{
	// via API
	"PostSend":      true,
	"PostRecv":      true,
	"PostRDMAWrite": true,
	"Connect":       true,
	"Accept":        true,
	// server transport send paths
	"Send":            true,
	"sendSetup":       true,
	"sendRegular":     true,
	"sendCtrlRMW":     true,
	"sendFileRMW":     true,
	"sendFileChunked": true,
	"transfer":        true,
	"writeEntry":      true,
	"writeFile":       true,
}

func runUncheckedCommsError(p *Package, f *File) []Finding {
	var out []Finding
	flag := func(call *ast.CallExpr, how string) {
		name := calleeName(call)
		if !commsCalls[name] {
			return
		}
		display := name
		if recv, _, ok := selectorCall(call); ok {
			display = types.ExprString(recv) + "." + name
		}
		out = append(out, Finding{
			File:     f.Name,
			Line:     p.line(call.Pos()),
			Analyzer: uncheckedCommsErrorName,
			Message:  fmt.Sprintf("error result of %s %s; transport errors are how VIA reports broken connections and full queues", display, how),
		})
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				flag(call, "discarded (bare call statement)")
			}
		case *ast.GoStmt:
			flag(n.Call, "unobservable (called via go)")
		case *ast.DeferStmt:
			flag(n.Call, "unobservable (called via defer)")
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || n.Tok != token.ASSIGN {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != "_" {
					return true
				}
			}
			flag(call, "assigned to _")
		}
		return true
	})
	return out
}
