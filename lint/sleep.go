package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"strconv"
	"time"
)

// nakedSleep flags time.Sleep in production (non-test) code outside
// the dedicated seam, press/via's defaultSleep (via/vi.go); a function
// of that name in any other package is not the seam. A naked sleep either
// hides a synchronization bug behind a timing assumption or embeds a
// latency constant that belongs in the event simulator's cost model
// (press/eventsim, press/netmodel), where the paper's methodology puts
// all modeled delays. Code that genuinely must pace itself goes
// through a named, documented seam or takes a suppression comment
// explaining why the delay is part of the modeled workload.
//
// It also knows why the shortest waits are the worst ones: an idle Go
// process parks in epoll_wait, whose timeout is whole milliseconds, so
// a constant wait below 1 ms — time.Sleep, time.After, time.NewTimer or
// Timer.Reset — takes 1-1.5 ms unless something else happens to keep
// the runtime's timers sharp. Measured here: time.Sleep(50 µs) took
// 1.44 ms, which pinned the V5 poll thread's p90 at 1.4 ms whatever the
// file size. Such a wait is flagged whichever of the four forms it
// takes; a zero duration (fire now) is not a wait and is left alone.
// The seam waits a sub-millisecond delay in nanosleep(2), blocking its
// thread in the kernel with a 1 µs timer slack.
const nakedSleepName = "naked-sleep"

// The seam: the one function allowed to call time.Sleep.
const (
	sleepSeamPkg  = "press/via"
	sleepSeamFunc = "defaultSleep"
)

var nakedSleep = &Analyzer{
	Name:      nakedSleepName,
	Doc:       "time.Sleep in production code hides latency that the simulator should model; a constant wait under 1 ms is rounded up to 1 ms by an idle runtime",
	SkipTests: true,
	Run:       runNakedSleep,
}

const (
	nakedSleepMsg = "naked time.Sleep in production code; model the delay (eventsim/netmodel) or route it through a documented seam"
	subMilliMsg   = "constant wait below 1 ms: the runtime rounds an idle wait up to 1 ms; wait on an event or use the disk-wait helper (via.Delay), which blocks its thread in the kernel"
)

func runNakedSleep(p *Package, f *File) []Finding {
	var out []Finding
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || (p.Path == sleepSeamPkg && fd.Name.Name == sleepSeamFunc) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			recv, name, ok := selectorCall(call)
			if !ok {
				return true
			}
			id, _ := recv.(*ast.Ident)
			onTime := id != nil && id.Name == "time"
			d, unit, isConst := p.constDuration(call.Args[0])
			short := isConst && d > 0 && d < time.Millisecond
			msg := ""
			switch {
			case onTime && name == "Sleep":
				msg = nakedSleepMsg
				if short {
					msg = subMilliMsg
				}
			case !short:
			case onTime && (name == "After" || name == "NewTimer"):
				msg = subMilliMsg
			case !onTime && name == "Reset":
				// With types, the receiver must be a time.Timer; without,
				// an argument spelled in time units is what tells a timer
				// from anything else that resets.
				if t := p.namedTypeString(recv); t == "time.Timer" || (t == "" && unit) {
					msg = subMilliMsg
				}
			}
			if msg != "" {
				out = append(out, Finding{
					File:     f.Name,
					Line:     p.line(call.Pos()),
					Analyzer: nakedSleepName,
					Message:  msg,
				})
			}
			return true
		})
	}
	return out
}

// constDuration evaluates e as a constant time.Duration: from the type
// checker when it resolved the expression (named constants included),
// otherwise from the syntax alone — literals, time's unit constants,
// arithmetic over them and time.Duration(...) conversions. unit reports
// whether the syntax mentions one of time's units.
func (p *Package) constDuration(e ast.Expr) (d time.Duration, unit, ok bool) {
	ns, unit, ok := syntaxDuration(e)
	if p.Info != nil {
		if tv, found := p.Info.Types[e]; found && tv.Value != nil {
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				return time.Duration(v), unit, true
			}
		}
	}
	return time.Duration(ns), unit, ok
}

var timeUnits = map[string]time.Duration{
	"Nanosecond": time.Nanosecond, "Microsecond": time.Microsecond,
	"Millisecond": time.Millisecond, "Second": time.Second,
	"Minute": time.Minute, "Hour": time.Hour,
}

func syntaxDuration(e ast.Expr) (ns float64, unit, ok bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return syntaxDuration(e.X)
	case *ast.BasicLit:
		if e.Kind != token.INT && e.Kind != token.FLOAT {
			return 0, false, false
		}
		v, err := strconv.ParseFloat(e.Value, 64)
		return v, false, err == nil
	case *ast.SelectorExpr:
		if id, isID := e.X.(*ast.Ident); isID && id.Name == "time" {
			if u, known := timeUnits[e.Sel.Name]; known {
				return float64(u), true, true
			}
		}
	case *ast.CallExpr:
		if recv, name, isSel := selectorCall(e); isSel && name == "Duration" && len(e.Args) == 1 {
			if id, isID := recv.(*ast.Ident); isID && id.Name == "time" {
				return syntaxDuration(e.Args[0])
			}
		}
	case *ast.BinaryExpr:
		x, xu, xok := syntaxDuration(e.X)
		y, yu, yok := syntaxDuration(e.Y)
		if !xok || !yok {
			return 0, xu || yu, false
		}
		switch e.Op {
		case token.MUL:
			return x * y, xu || yu, true
		case token.QUO:
			if y != 0 {
				return x / y, xu || yu, true
			}
		case token.ADD:
			return x + y, xu || yu, true
		case token.SUB:
			return x - y, xu || yu, true
		}
	}
	return 0, false, false
}
