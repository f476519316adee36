package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc turns the project's zero-alloc benchmark assertions into
// line-level findings. A function annotated with a "//dynalint:hotpath"
// doc comment declares that its steady state allocates nothing — the
// contract the PR 5/6 alloc-count tests enforce for FlatForest scoring,
// the feature cache, the graph scratch analytics, and the pooled
// httpstream parse path. Inside an annotated function the analyzer
// flags every allocation site:
//
//   - make and new calls;
//   - append calls that may grow beyond capacity;
//   - string concatenation (+ on strings builds a new string);
//   - string<->[]byte/[]rune conversions;
//   - arguments boxed into interface parameters (pointer-shaped values
//     are exempt — they fit the interface word);
//   - function literals (a closure that escapes allocates its context).
//
// Two idioms are recognized as cold and exempted without a directive:
//
//   - grow-on-demand: an allocation inside an if whose condition calls
//     cap(...) only fires until the buffer reaches steady-state size
//     (`if cap(dst) < n { dst = make(...) }`);
//   - failure paths: an allocation inside an if whose body panics is
//     the diagnostic for a bug, not the hot path;
//   - amortized reuse: an append whose destination the function also
//     reslices (q = q[:0], or carves from an arena with s[i] =
//     arena[a:b:c]) appends into retained capacity.
//
// Anything else that allocates deliberately (a parallel fan-out
// launching goroutines, say) carries a reasoned //dynalint:ignore
// hotalloc directive — the suppression is the documentation.
type Hotalloc struct{}

// Name implements Analyzer.
func (Hotalloc) Name() string { return "hotalloc" }

// Doc implements Analyzer.
func (Hotalloc) Doc() string {
	return `allocation sites in functions annotated "//dynalint:hotpath" (zero-alloc steady state enforced at lint time)`
}

// hotpathAnnotated reports whether the function declaration carries the
// //dynalint:hotpath marker in its doc comment group.
func hotpathAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
		if strings.HasPrefix(text, "dynalint:hotpath") {
			return true
		}
	}
	return false
}

// coldGuarded reports whether the node at the top of the stack sits
// inside an if statement that either panics (failure diagnostics) or
// whose condition calls cap(...) (the grow-on-demand idiom).
func coldGuarded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifst, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if condCallsCap(ifst.Cond) || blockPanics(ifst.Body) {
			return true
		}
		if ifst.Init != nil && condCallsCapStmt(ifst.Init) {
			return true
		}
	}
	return false
}

// condCallsCapStmt reports whether the statement (an if's init) contains
// a cap(...) call — `if rem := cap(dst) - n; rem < 0 { ... }` is the
// same grow-on-demand guard with the measurement hoisted.
func condCallsCapStmt(st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// condCallsCap reports whether the expression contains a cap(...) call.
func condCallsCap(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockPanics reports whether the block contains a panic call.
func blockPanics(body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootChainText renders the base chain of an expression with index
// subscripts dropped: s.und[a] and s.und[b] both yield "s.und", so a
// reslice of any element sanctions appends into every element of the
// same arena-backed family.
func rootChainText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := rootChainText(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
	case *ast.IndexExpr:
		return rootChainText(x.X)
	case *ast.SliceExpr:
		return rootChainText(x.X)
	case *ast.ParenExpr:
		return rootChainText(x.X)
	case *ast.StarExpr:
		return rootChainText(x.X)
	case *ast.UnaryExpr:
		return rootChainText(x.X)
	}
	return ""
}

// resliceRoots collects the root chains the function reslices: every
// assignment whose right-hand side is a slice expression (q = q[:0],
// s.und[u] = s.arenaU[off:off:end]). Appends into those roots reuse
// retained capacity.
func resliceRoots(body *ast.BlockStmt) map[string]bool {
	roots := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, ok := unparen(rhs).(*ast.SliceExpr); !ok {
				continue
			}
			if root := rootChainText(as.Lhs[i]); root != "" {
				roots[root] = true
			}
		}
		return true
	})
	return roots
}

// isStringBasic reports whether t's underlying type is string.
func isStringBasic(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune.
func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface's data word
// without allocating: pointers, channels, maps, funcs, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// Run implements Analyzer.
func (h Hotalloc) Run(pass *Pass) []Finding {
	var out []Finding
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotpathAnnotated(fd) {
				continue
			}
			out = append(out, h.checkFunc(pass, fd)...)
		}
	}
	return out
}

// checkFunc scans one annotated function for allocation sites.
func (h Hotalloc) checkFunc(pass *Pass, fd *ast.FuncDecl) []Finding {
	var out []Finding
	reuse := resliceRoots(fd.Body)
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, pass.finding(h.Name(), pos, format, args...))
	}
	walkStack(fd.Body, func(stack []ast.Node) {
		switch x := stack[len(stack)-1].(type) {
		case *ast.FuncLit:
			if !coldGuarded(stack) {
				report(x.Pos(), "closure in a hotpath function allocates its context when it escapes; hoist it or suppress with a reason")
			}
		case *ast.BinaryExpr:
			if x.Op != token.ADD || coldGuarded(stack) {
				return
			}
			if isStringBasic(pass.Info.TypeOf(x.X)) || isStringBasic(pass.Info.TypeOf(x.Y)) {
				report(x.Pos(), "string concatenation in a hotpath function allocates; build into a reused buffer in cold code")
			}
		case *ast.CallExpr:
			out = append(out, h.checkCall(pass, stack, x, reuse)...)
		}
	})
	return out
}

// checkCall flags allocating calls: make/new, unamortized appends,
// allocating conversions, and interface-boxing arguments.
func (h Hotalloc) checkCall(pass *Pass, stack []ast.Node, call *ast.CallExpr, reuse map[string]bool) []Finding {
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, pass.finding(h.Name(), pos, format, args...))
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if !coldGuarded(stack) {
				report(call.Pos(), "%s in a hotpath function allocates every call; preallocate in cold code or guard with a cap(...) check", id.Name)
			}
			return out
		case "append":
			if coldGuarded(stack) || len(call.Args) == 0 {
				return out
			}
			if root := rootChainText(call.Args[0]); root != "" && reuse[root] {
				return out // amortized reuse: the function reslices this root
			}
			report(call.Pos(), "append in a hotpath function may grow beyond capacity; reuse via a [:0] reslice or preallocate")
			return out
		}
	}
	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := pass.Info.TypeOf(call), pass.Info.TypeOf(call.Args[0])
		if (isStringBasic(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringBasic(src)) {
			if !coldGuarded(stack) {
				report(call.Pos(), "string conversion in a hotpath function copies its payload; keep one representation on the hot path")
			}
		}
		return out
	}
	// Interface boxing: concrete non-pointer values stored in interface
	// parameters escape to the heap.
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos || coldGuarded(stack) {
		return out
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "argument boxed into an interface parameter allocates in a hotpath function; avoid the interface or move the call to cold code")
	}
	return out
}
