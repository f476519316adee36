package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockscope enforces the engine/proxy lock discipline: a struct field
// annotated with a "guarded by <mu>" comment may only be read or written
// by a function that locks <mu> on the same receiver chain. PR 1
// re-architected the proxy so detection runs outside p.mu while the
// blocklist and counters stay inside it; this analyzer keeps that split
// from regressing as handlers grow.
//
// Field and receiver identity resolve through go/types objects: an
// access `base.field` is sanctioned when the enclosing function anywhere
// calls `base.<mu>.Lock()` or `base.<mu>.RLock()` on the same variable
// path, and an access through a pointer alias (`e := eng; e.hits++`
// after `eng.mu.Lock()`) matches the lock on the original receiver. A
// method that locks a mutex through a value receiver is flagged — the
// receiver is a copy, so the lock protects nothing.
//
// The check is flow-insensitive. Functions whose name ends in "Locked"
// are exempt (the caller holds the lock by contract), as is anything
// under a //dynalint:ignore lockscope directive.
type Lockscope struct{}

// Name implements Analyzer.
func (Lockscope) Name() string { return "lockscope" }

// Doc implements Analyzer.
func (Lockscope) Doc() string {
	return `fields annotated "guarded by <mu>" accessed without locking that mutex; mutexes locked through a value receiver`
}

// guardAnnotation extracts the mutex name from a "guarded by <mu>"
// comment group, or "".
func guardAnnotation(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	text := cg.Text()
	i := strings.Index(text, "guarded by ")
	if i < 0 {
		return ""
	}
	rest := strings.Fields(text[i+len("guarded by "):])
	if len(rest) == 0 {
		return ""
	}
	return strings.Trim(rest[0], ".,;:")
}

// Run implements Analyzer.
func (l Lockscope) Run(pass *Pass) []Finding {
	guarded := collectGuarded(pass)
	var out []Finding
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// Locking through a value receiver is a bug even in *Locked
			// helpers, so check it before the suffix exemption.
			out = append(out, l.checkValueReceiver(pass, fn)...)
			if strings.HasSuffix(fn.Name.Name, "Locked") || len(guarded) == 0 {
				continue
			}
			aliases := pointerAliases(pass, fn.Body)
			locked := lockedChains(pass, fn.Body, aliases)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				mu, isGuarded := guarded[fieldObject(pass, sel)]
				if !isGuarded {
					return true
				}
				base := chainKey(pass, sel.X, aliases)
				if base == "" || locked[base+"|"+mu] {
					return true
				}
				out = append(out, pass.finding(l.Name(), sel.Pos(),
					"%s.%s is guarded by %s.%s, but %s never locks it (lock it, or suffix the func name with Locked if the caller holds it)",
					chainText(sel.X), sel.Sel.Name, chainText(sel.X), mu, fn.Name.Name))
				return true
			})
		}
	}
	return out
}

// collectGuarded maps the package's struct fields whose doc or trailing
// comment says "guarded by <mu>" to that mutex field name.
func collectGuarded(pass *Pass) map[types.Object]string {
	guarded := map[types.Object]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field.Doc)
				if mu == "" {
					mu = guardAnnotation(field.Comment)
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
}

// fieldObject resolves the object a selector expression selects.
func fieldObject(pass *Pass, sel *ast.SelectorExpr) types.Object {
	if s, ok := pass.Info.Selections[sel]; ok {
		return s.Obj()
	}
	return pass.Info.Uses[sel.Sel]
}

// pointerAliases maps local objects introduced by pointer-copy
// assignments (`e := eng`, `e := &eng`) to the canonical chain key of
// their source, one level deep. Value copies are not aliases — copying
// a struct detaches it from the guarded original.
func pointerAliases(pass *Pass, body *ast.BlockStmt) map[types.Object]string {
	aliases := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			rhs := unparen(as.Rhs[i])
			if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
				rhs = unparen(u.X)
			} else if t := pass.Info.TypeOf(rhs); t == nil {
				continue
			} else if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
				continue
			}
			if key := chainKey(pass, rhs, aliases); key != "" {
				aliases[obj] = key
			}
		}
		return true
	})
	return aliases
}

// chainKey renders a selector chain as a canonical key rooted at
// the go/types object of its base identifier, following pointer aliases.
// Two chains get the same key exactly when they provably denote the same
// variable path.
func chainKey(pass *Pass, e ast.Expr, aliases map[types.Object]string) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.ObjectOf(x)
		if obj == nil {
			return ""
		}
		if root, ok := aliases[obj]; ok {
			return root
		}
		return pass.Fset.Position(obj.Pos()).String()
	case *ast.SelectorExpr:
		base := chainKey(pass, x.X, aliases)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.StarExpr:
		return chainKey(pass, x.X, aliases)
	}
	return ""
}

// lockedChains collects "baseKey|mu" for every <base>.<mu>.Lock or
// RLock call, with base resolved through objects and aliases.
func lockedChains(pass *Pass, body *ast.BlockStmt, aliases map[types.Object]string) map[string]bool {
	locked := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if base := chainKey(pass, muSel.X, aliases); base != "" {
			locked[base+"|"+muSel.Sel.Name] = true
		}
		return true
	})
	return locked
}

// checkValueReceiver flags a method that locks a sync.Mutex/RWMutex
// reached through a value receiver: the receiver is a copy, so the lock
// guards nothing the caller can see.
func (l Lockscope) checkValueReceiver(pass *Pass, fn *ast.FuncDecl) []Finding {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	recv := fn.Recv.List[0]
	if rt := pass.Info.TypeOf(recv.Type); rt == nil {
		return nil
	} else if _, isPtr := rt.(*types.Pointer); isPtr {
		return nil
	}
	recvObj := pass.Info.ObjectOf(recv.Names[0])
	if recvObj == nil {
		return nil
	}
	var out []Finding
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil || pass.Info.ObjectOf(root) != recvObj || !isMutexType(pass.Info.TypeOf(sel.X)) {
			return true
		}
		out = append(out, pass.finding(l.Name(), call.Pos(),
			"%s locks a mutex through value receiver %s — the receiver is a copy, so this lock protects nothing; use a pointer receiver",
			fn.Name.Name, root.Name))
		return true
	})
	return out
}

// rootIdent returns the identifier at the base of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}
