// Package walchain verifies the WAL version-chain discipline of the
// kvstore's write paths: the version draw (nextVersion), the prev-link read,
// and the record append must share one serialized window. The chain
// invariant — every linked record's prev names exactly the version it
// replaced — only holds if prev is read in the same border-lock critical
// section that draws the version (the func literal passed to a tree write
// method: Update, Apply, PutBatchInto), and if the append happens before the
// worker lock opens the draw-to-append window to the next writer. A prev
// read outside that window is a TOCTOU: a racing writer slips between the
// read and the draw and the logged chain skips a version, which replay then
// counts as broken.
//
// Concretely, for every call to Writer.AppendPutBatch in the kvstore (its
// one chained append):
//
//   - a lockWorker call must precede the append in the same function (the
//     worker lock spans draw to append);
//   - the prev argument must be a value assigned inside a tree-write func
//     literal that calls nextVersion, or a slice literal whose elements are
//     each such a value or the literal 0 (a chain anchor);
//   - the version argument (or each element of a slice literal there) must
//     likewise be assigned inside such a literal;
//   - and every nextVersion call must itself sit inside a func literal
//     passed to a tree write method — versions drawn outside the border
//     lock are unordered against the value they stamp.
//
// The analysis is syntactic and per-function; values laundered through
// helper calls are flagged conservatively (//lint:allow walchain with a
// reason for deliberate exceptions).
package walchain

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the walchain pass.
var Analyzer = &analysis.Analyzer{
	Name:     "walchain",
	Doc:      "check that WAL prev links and versions are drawn and appended inside one border-lock critical section",
	Packages: []string{"internal/kvstore"},
	Run:      run,
}

// treeWrites are the tree methods whose func-literal argument runs under
// the border lock of the key it mutates.
var treeWrites = map[string]bool{"Update": true, "Apply": true, "PutBatchInto": true}

// chainAppends maps the checked Writer methods to the argument positions of
// (version, prev).
var chainAppends = map[string][2]int{
	"AppendPutBatch": {2, 3},
}

func run(pass *analysis.Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info

	// Critical sections: func literals passed to tree write methods. A
	// variable assigned inside one that draws a version is "drawn under the
	// border lock" — including scratch-rooted stores like sc.prevs[i].
	crit := map[*types.Var]bool{}
	var sections [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !treeWrites[sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			fl, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			sections = append(sections, [2]token.Pos{fl.Pos(), fl.End()})
			if !callsNextVersion(fl) {
				continue
			}
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if a, ok := m.(*ast.AssignStmt); ok {
					for _, lhs := range a.Lhs {
						if v := rootVar(info, lhs); v != nil {
							crit[v] = true
						}
					}
				}
				return true
			})
		}
		return true
	})

	// The worker lock's position: the draw-to-append window opens here.
	lockPos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lockPos.IsValid() {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "lockWorker" {
				lockPos = call.Pos()
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Version draws outside any tree-write literal are unordered
		// against the value they stamp.
		if sel.Sel.Name == "nextVersion" && !inside(sections, call.Pos()) {
			pass.Reportf(call.Pos(), "nextVersion outside a tree-write critical section: the version draw must run inside the func literal passed to Update/Apply/PutBatchInto")
			return true
		}
		argIdx, checked := chainAppends[sel.Sel.Name]
		if !checked || !isWriter(info, sel.X) || len(call.Args) <= argIdx[1] {
			return true
		}
		if !lockPos.IsValid() || call.Pos() < lockPos {
			pass.Reportf(call.Pos(), "%s without the worker lock: no lockWorker call precedes the append, so the draw-to-append window is not serialized", sel.Sel.Name)
		}
		for _, e := range elems(call.Args[argIdx[0]]) {
			if v := rootVar(info, e); v == nil || !crit[v] {
				pass.Reportf(e.Pos(), "version argument %s of %s is not assigned in the border-lock critical section that draws it", types.ExprString(e), sel.Sel.Name)
			}
		}
		for _, e := range elems(call.Args[argIdx[1]]) {
			if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok {
				if lit.Value != "0" {
					pass.Reportf(e.Pos(), "constant prev %s in %s: only 0 (a chain anchor) may be a constant link", lit.Value, sel.Sel.Name)
				}
				continue
			}
			if v := rootVar(info, e); v == nil || !crit[v] {
				pass.Reportf(e.Pos(), "prev link %s of %s is not read in the border-lock critical section that draws the version", types.ExprString(e), sel.Sel.Name)
			}
		}
		return true
	})
}

// elems returns a slice literal's elements, or the expression itself: the
// batched append's version and prev arguments are slices, and a literal
// one is checked element by element.
func elems(e ast.Expr) []ast.Expr {
	if cl, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
		return cl.Elts
	}
	return []ast.Expr{e}
}

// callsNextVersion reports whether the literal's body draws a version.
func callsNextVersion(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "nextVersion" {
				found = true
			}
		}
		return !found
	})
	return found
}

// inside reports whether pos falls in any of the ranges.
func inside(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// rootVar resolves an expression to the variable at its root: prev -> prev,
// sc.prevs[i] -> sc, (sc.vers) -> sc. Non-variable roots return nil.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// isWriter reports whether the expression's type is (a pointer to) a named
// type called Writer — the WAL writer.
func isWriter(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Writer"
}
