package lint

import (
	"go/ast"
)

// timeAfterLoop flags time.After calls inside for loops. Every
// time.After allocates a timer that is not collected until it fires:
// in a hot receive or retry loop with a long timeout, each iteration
// strands another timer, and the steady-state heap grows with the
// message rate instead of the in-flight count. The fix is one reusable
// time.NewTimer outside the loop, Reset per iteration (draining the
// channel after a failed Stop). Test files are exempt — their loops run
// a bounded number of iterations and die with the test process.
//
// A loop need not be lexical. An http.Handler's ServeHTTP runs once per
// request — it is the loop, and the server the for statement — so with
// the whole program in view the analyzer also flags time.After,
// time.NewTimer and time.AfterFunc in any function a ServeHTTP method
// reaches on its own goroutine. The fix is the same one level up: a
// long-lived owner (a recycled request, a connection) holds one stopped
// timer and Resets it per request.
const timeAfterLoopName = "time-after-loop"

var timeAfterLoop = &Analyzer{
	Name:       timeAfterLoopName,
	Doc:        "time.After in a loop, or any new timer on a ServeHTTP path, leaks one timer per iteration; hoist a reusable time.NewTimer",
	SkipTests:  true,
	Run:        runTimeAfterLoop,
	RunProgram: runTimerPerRequest,
}

// perRequestTimers are the constructors that arm a fresh runtime timer.
var perRequestTimers = map[string]bool{"time.After": true, "time.NewTimer": true, "time.AfterFunc": true}

// runTimerPerRequest is the whole-program half: every timer constructor
// reachable from a ServeHTTP method, reported once however many
// handlers reach it.
func runTimerPerRequest(prog *Program) []Finding {
	g := prog.CallGraph()
	sameGoroutine := func(_ *CGNode, site *CallSite) bool { return !site.Go }
	var out []Finding
	seen := make(map[*CGNode]bool)
	for _, root := range g.All {
		if !isServeHTTP(root) {
			continue
		}
		for _, n := range reachable(root, sameGoroutine) {
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, site := range n.Calls {
				if site.Go {
					continue
				}
				for _, ext := range site.Ext {
					if !perRequestTimers[ext] {
						continue
					}
					where := shortName(root.Name)
					if via := chain(root, n, sameGoroutine); via != "" {
						where += " → " + via
					}
					out = append(out, prog.finding(site.Pos, timeAfterLoopName, ext+" on a per-request path ("+where+
						") arms a timer per request; give a long-lived owner one timer and Reset it"))
				}
			}
		}
	}
	return out
}

// isServeHTTP reports whether n is a method with http.Handler's shape,
// judged by name and arity so fixtures need not import net/http.
func isServeHTTP(n *CGNode) bool {
	d := n.Decl
	return d != nil && d.Recv != nil && d.Name.Name == "ServeHTTP" && d.Type.Params.NumFields() == 2
}

func runTimeAfterLoop(p *Package, f *File) []Finding {
	var out []Finding
	funcScopes(f, func(_ string, body *ast.BlockStmt) {
		out = append(out, timeAfterInLoops(p, f, body, 0)...)
	})
	return out
}

// timeAfterInLoops walks one function body tracking lexical loop depth.
// Function literals are NOT descended into: funcScopes yields each as
// its own scope, and a literal spawned inside a loop runs once per
// call, so a time.After in its straight-line body is not per-iteration.
func timeAfterInLoops(p *Package, f *File, n ast.Node, depth int) []Finding {
	var out []Finding
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // its body is a separate funcScopes scope
		case *ast.ForStmt:
			// Init/Cond/Post run per iteration too, but time.After there
			// is vanishingly rare; the body is what matters.
			walk(n.Body, depth+1)
			return
		case *ast.RangeStmt:
			walk(n.Body, depth+1)
			return
		case *ast.CallExpr:
			if depth > 0 {
				if recv, name, ok := selectorCall(n); ok && name == "After" {
					if id, ok := recv.(*ast.Ident); ok && id.Name == "time" {
						out = append(out, Finding{
							File:     f.Name,
							Line:     p.line(n.Pos()),
							Analyzer: timeAfterLoopName,
							Message:  "time.After in a loop allocates an uncollectable timer per iteration; hoist a time.NewTimer and Reset it",
						})
					}
				}
			}
		}
		// Generic descent over children.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			walk(c, depth)
			return false
		})
	}
	walk(n, depth)
	return out
}
