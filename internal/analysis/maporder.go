package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Maporder keeps map iteration away from order-sensitive outputs. Go
// randomizes map iteration order per range statement, so a loop over a
// map whose body appends to a slice, writes counter-indexed slots,
// accumulates a float, or writes serialized output produces a different
// result on every run — exactly the class of bug that silently breaks
// the project's bit-identical re-scoring contracts (provenance-journal
// vectors, flat-vs-pointer forest agreement, snapshot assembly).
//
// The analyzer flags a for-range over a map (resolved through go/types)
// whose body contains:
//
//   - an append call — sanctioned when the enclosing function sorts
//     after the loop (sort.* or slices.Sort* below the range statement),
//     the collect-then-sort idiom;
//   - an assignment to a counter-indexed slice/array slot (s[i] = v
//     where i is mutated inside the loop) — the slot an element lands in
//     depends on iteration order;
//   - a floating-point accumulation (x += v and friends) — float
//     addition is not associative, so the accumulated bits depend on
//     iteration order;
//   - a serialization call (fmt printing, Write*, Encode) — bytes are
//     emitted in map order.
//
// Integer accumulation, map-to-map writes, and key-indexed slot writes
// (s[k] = v, each key its own slot) are order-insensitive and never
// flagged. Sites that are deliberately order-free can carry a reasoned
// //dynalint:ignore maporder directive.
type Maporder struct{}

// Name implements Analyzer.
func (Maporder) Name() string { return "maporder" }

// Doc implements Analyzer.
func (Maporder) Doc() string {
	return "map iteration feeding order-sensitive sinks (append, indexed writes, float sums, serialization) without a deterministic order"
}

// serializeMethods are method names treated as serialization sinks.
var serializeMethods = map[string]bool{
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Encode": true,
}

// sortCallNames are the sort.*/slices.* functions that sanction an
// append sink when called after the loop.
var sortCallNames = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true,
}

// isMapRange reports whether rs ranges over a map.
func isMapRange(pass *Pass, rs *ast.RangeStmt) bool {
	_, ok := pass.Info.TypeOf(rs.X).Underlying().(*types.Map)
	return ok
}

// hasPostLoopSort reports whether the enclosing function calls a sort.*
// or slices.* sorting function lexically after the range statement.
func hasPostLoopSort(fn ast.Node, rs *ast.RangeStmt) bool {
	body := funcBody(fn)
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortCallNames[sel.Sel.Name] {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
			found = true
		}
		return !found
	})
	return found
}

// loopLocal reports whether an append destination is declared inside the
// loop body: each iteration then builds its own slice, so map order
// cannot influence any single result (the per-key rebuild idiom, e.g.
// filtering each value list of a map in place). An outer accumulator
// the local slice later feeds would itself be an append inside the loop
// and get flagged on its own.
func loopLocal(pass *Pass, body *ast.BlockStmt, dst ast.Expr) bool {
	id, ok := unparen(dst).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
}

// mutatedIn reports whether the identifier name is assigned or
// incremented anywhere in body (the counter-in-a-map-loop pattern),
// excluding the assignment node skip itself.
func mutatedIn(body *ast.BlockStmt, name string, skip ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == skip {
			return false
		}
		switch x := n.(type) {
		case *ast.IncDecStmt:
			if id, ok := unparen(x.X).(*ast.Ident); ok && id.Name == name {
				found = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isFloatExpr reports whether e has floating-point type (the blank
// identifier has none).
func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isMapIndexExpr reports whether e indexes into a map.
func isMapIndexExpr(pass *Pass, e ast.Expr) bool {
	ix, ok := unparen(e).(*ast.IndexExpr)
	if !ok {
		return false
	}
	_, isMap := pass.Info.TypeOf(ix.X).Underlying().(*types.Map)
	return isMap
}

// sliceIndexWrite reports whether lhs is an index expression into a
// slice or array (not a map).
func sliceIndexWrite(pass *Pass, lhs ast.Expr) (*ast.IndexExpr, bool) {
	ix, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	switch t := pass.Info.TypeOf(ix.X).Underlying().(type) {
	case *types.Slice, *types.Array:
		return ix, true
	case *types.Pointer:
		if _, arr := t.Elem().Underlying().(*types.Array); arr {
			return ix, true
		}
	}
	return nil, false
}

// Run implements Analyzer.
func (m Maporder) Run(pass *Pass) []Finding {
	var out []Finding
	for _, f := range pass.Files {
		walkStack(f, func(stack []ast.Node) {
			rs, ok := stack[len(stack)-1].(*ast.RangeStmt)
			if !ok || rs.Body == nil || !isMapRange(pass, rs) {
				return
			}
			sorted := hasPostLoopSort(enclosingFunc(stack), rs)
			out = append(out, m.checkBody(pass, rs, sorted)...)
		})
	}
	return out
}

// checkBody scans one map-range body for order-sensitive sinks.
func (m Maporder) checkBody(pass *Pass, rs *ast.RangeStmt, sorted bool) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, pass.finding(m.Name(), pos, format, args...))
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			// A nested map range reports its own findings; avoid doubling.
			if n != rs && isMapRange(pass, x) {
				return false
			}
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
				if !sorted && len(x.Args) > 0 && !loopLocal(pass, rs.Body, x.Args[0]) {
					report(x.Pos(), "append inside map iteration collects in nondeterministic order; sort the keys first or sort the result after the loop")
				}
				return true
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && serializeMethods[sel.Sel.Name] {
				report(x.Pos(), "%s inside map iteration serializes in nondeterministic order; iterate sorted keys instead", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			out = append(out, m.checkAssign(pass, rs, x)...)
		}
		return true
	})
	return out
}

// checkAssign flags order-sensitive assignments inside a map-range body:
// float accumulation and counter-indexed slot writes.
func (m Maporder) checkAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) []Finding {
	var out []Finding
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			// A keyed map-element accumulator (acc[k] += v, one slot per
			// distinct range key) is order-insensitive slot-wise; only
			// scalar/field accumulators depend on iteration order.
			if isMapIndexExpr(pass, lhs) {
				continue
			}
			if isFloatExpr(pass, lhs) {
				out = append(out, pass.finding(m.Name(), as.Pos(),
					"floating-point accumulation inside map iteration is order-dependent (float addition is not associative); iterate sorted keys"))
			}
		}
	case token.ASSIGN:
		// x = x + v self-reference form of the accumulator.
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 && isFloatExpr(pass, as.Lhs[0]) {
			if bin, ok := unparen(as.Rhs[0]).(*ast.BinaryExpr); ok {
				lhsText := chainText(as.Lhs[0])
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if lhsText != "" && (chainText(bin.X) == lhsText || chainText(bin.Y) == lhsText) {
						out = append(out, pass.finding(m.Name(), as.Pos(),
							"floating-point accumulation inside map iteration is order-dependent (float addition is not associative); iterate sorted keys"))
					}
				}
			}
		}
	}
	for _, lhs := range as.Lhs {
		ix, ok := sliceIndexWrite(pass, lhs)
		if !ok {
			continue
		}
		id, ok := unparen(ix.Index).(*ast.Ident)
		if !ok || !mutatedIn(rs.Body, id.Name, nil) {
			continue // key-indexed writes land each key in its own slot
		}
		out = append(out, pass.finding(m.Name(), lhs.Pos(),
			"counter-indexed slot write inside map iteration places elements in nondeterministic order; iterate sorted keys"))
	}
	return out
}
