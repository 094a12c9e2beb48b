package lint

import (
	"go/ast"
)

// One-call-boundary summaries: desclife and span-leak follow a tracked
// descriptor or span into a callee defined in the same package, one
// level deep. A hand-off to a callee that merely posts, reaps, closes,
// or inspects the value keeps it tracked in the caller instead of
// escaping it — the callee's own calls are not followed (that second
// boundary stays conservative).

// paramFate is what a callee does with one of its parameters.
type paramFate int

const (
	// fateUnknown: the callee could not be summarized (not found,
	// ambiguous name, parameter reassigned or passed further) — the
	// caller must treat the argument as escaped.
	fateUnknown paramFate = iota
	// fateInspect: only reads/annotates; ownership stays with caller.
	fateInspect
	// fatePosts: posts the receive descriptor (PostRecv).
	fatePosts
	// fateReaps: waits for or observes completion (descriptors), or
	// ends/cancels (spans); the lifecycle obligation is met.
	fateReaps
)

// funcIndex maps bare function/method names to their declarations in
// the package. Ambiguous names (two methods called "write" on
// different types) summarize as unknown.
func (p *Package) funcIndex() map[string][]*ast.FuncDecl {
	if p.funcsByName != nil {
		return p.funcsByName
	}
	idx := make(map[string][]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				idx[fd.Name.Name] = append(idx[fd.Name.Name], fd)
			}
		}
	}
	p.funcsByName = idx
	return idx
}

// localDecl finds the unique in-package declaration for a call, or nil.
func (p *Package) localDecl(call *ast.CallExpr) *ast.FuncDecl {
	name := calleeName(call)
	if name == "" {
		return nil
	}
	decls := p.funcIndex()[name]
	if len(decls) != 1 {
		return nil
	}
	return decls[0]
}

// paramName returns the name of the i-th (non-receiver) parameter of
// fd, or "" when it has none (variadic tails and name/arg mismatches
// return "" and stay conservative).
func paramName(fd *ast.FuncDecl, i int) string {
	if fd.Type.Params == nil {
		return ""
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter occupies one slot
		}
		if i < idx+n {
			if len(field.Names) == 0 {
				return ""
			}
			if _, isEllipsis := field.Type.(*ast.Ellipsis); isEllipsis {
				return "" // variadic: several args share it
			}
			return field.Names[i-idx].Name
		}
		idx += n
	}
	return ""
}

// descParamFate summarizes what fd does with the descriptor parameter
// named param: post it, reap its completion, inspect it, or something
// the summary cannot follow.
func descParamFate(fd *ast.FuncDecl, param string) paramFate {
	fate := fateInspect
	escape := false
	mentioned := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escape {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// A literal capturing the param runs who-knows-when.
			ast.Inspect(n.(*ast.FuncLit).Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == param {
					escape = true
				}
				return true
			})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, isSel := selectorCall(call)
		recvIdent, _ := recv.(*ast.Ident)
		switch {
		case postMethods[name] && isSel && len(call.Args) > 0:
			if id := descArg(call.Args[0]); id != nil && id.Name == param {
				if fate == fateInspect {
					fate = fatePosts
				}
				mentioned[id] = true
			}
		case isSel && recvIdent != nil && recvIdent.Name == param:
			switch {
			case reapMethods[name]:
				fate = fateReaps
			case descInspectMethods[name]:
				// stays fateInspect (or whatever stronger fate is set)
			default:
				escape = true
			}
			mentioned[recvIdent] = true
		default:
			// The param passed as an argument to anything else is the
			// second boundary; stay conservative.
			for _, a := range call.Args {
				if id := descArg(a); id != nil && id.Name == param && !mentioned[id] {
					escape = true
				}
			}
		}
		return true
	})
	if escape || reassignsParam(fd, param) || paramLeaksOutside(fd, param) {
		return fateUnknown
	}
	return fate
}

// spanParamFate summarizes what fd does with the span parameter named
// param: close it (End/Cancel), use it (Annotate/child starts), or
// something untrackable.
func spanParamFate(fd *ast.FuncDecl, param string) paramFate {
	fate := fateInspect
	escape := false
	consumed := make(map[*ast.Ident]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escape {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Name == param {
					escape = true
				}
				return true
			})
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, isSel := selectorCall(call)
		if id, isIdent := recv.(*ast.Ident); isSel && isIdent && id.Name == param {
			switch {
			case spanCloseMethods[name]:
				fate = fateReaps
			case spanUseMethods[name] || spanStartMethods[name]:
				// ownership unchanged
			default:
				escape = true
			}
			consumed[id] = true
			return true
		}
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok && id.Name == param && !consumed[id] {
				escape = true
			}
		}
		return true
	})
	if escape || reassignsParam(fd, param) || paramLeaksOutside(fd, param) {
		return fateUnknown
	}
	return fate
}

// reassignsParam reports whether the param is written inside the body,
// which would break the name-based summary.
func reassignsParam(fd *ast.FuncDecl, param string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == param {
				found = true
			}
		}
		return true
	})
	return found
}

// paramLeaksOutside reports non-call uses of the param: returned, sent,
// aliased, or stored — a hand-off the one-level summary does not model.
func paramLeaksOutside(fd *ast.FuncDecl, param string) bool {
	leak := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentionsName(r, param) {
					leak = true
				}
			}
		case *ast.SendStmt:
			if mentionsName(n.Value, param) {
				leak = true
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if mentionsName(r, param) {
					leak = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if mentionsName(e, param) {
					leak = true
				}
			}
		}
		return true
	})
	return leak
}

// mentionsName reports a bare (leaking) use of name inside e. Calls
// are skipped — the call scan in the fate functions already classifies
// them — and a selector read like x.Trace() keeps ownership with x.
func mentionsName(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return true
	})
	return found
}
