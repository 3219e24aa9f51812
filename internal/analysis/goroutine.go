package analysis

// GoroutineLeak enforces the join discipline: every `go` statement
// must reach a join the spawner can see, so no engine call leaves
// stray goroutines behind to race the next pass or pin pooled
// workspaces.
//
// A goroutine is considered joined when it signals completion —
// sync.WaitGroup.Done (including deferred), a channel send, or a
// channel close — on an object that the spawning function (or a
// module function statically reachable from it) waits on:
// sync.WaitGroup.Wait, a channel receive (<-ch, range ch, or a select
// receive case). Objects are matched through the SSA-lite layer:
// cross-unit identity by declaration position, and call-argument to
// parameter aliasing one interprocedural hop at a time, so
// `go worker(ws, ws.start)` is matched against joins on the same
// `start` field wherever the BFS can see them.
//
// Deliberately-unjoined goroutines come in two sanctioned flavors:
// parked worker pools (mark the spawn or the spawning function with
// //repro:worker-pool — the workers outlive the call by design and
// wake on tokens) and process-lifetime daemons (audit them with
// //repro:ignore goroutine-leak). A spawn whose body the analyzer
// cannot see (an external or dynamic callee) cannot prove a join and
// is diagnosed: keep spawn targets direct or annotate them.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLeak is the analyzer; see the package-level description.
type GoroutineLeak struct{}

// Name implements Analyzer.
func (GoroutineLeak) Name() string { return "goroutine-leak" }

// Run implements Analyzer.
func (a GoroutineLeak) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	g := prog.CallGraph()
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					gs, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					pos := prog.Fset.Position(gs.Pos())
					if prog.Directives.WorkerPool(pos) {
						return true // sanctioned parked pool
					}
					if goroutineJoined(prog, g, pkg, fd, gs) {
						return true
					}
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: a.Name(),
						Message: "goroutine has no reachable join (no WaitGroup.Wait or channel receive " +
							"observes its completion); join it, or mark a parked pool with //repro:worker-pool",
					})
					return true
				})
			}
		}
	}
	return diags
}

// goSignals are the completion signals a spawned goroutine emits,
// keyed by the cross-unit object identity of the WaitGroup or channel
// they go through.
type goSignals struct {
	keys map[token.Pos]bool
}

// goroutineJoined reports whether the goroutine spawned by gs inside
// fd provably reaches a join: some function statically reachable from
// fd (excluding the goroutine body itself) waits on an object the
// goroutine signals.
func goroutineJoined(prog *Program, g *callGraph, pkg *Package, fd *ast.FuncDecl, gs *ast.GoStmt) bool {
	sig, spawnedName := collectGoSignals(prog, g, pkg, gs)
	if sig == nil || len(sig.keys) == 0 {
		return false // body invisible, or it never signals: cannot join
	}

	// BFS the spawner's reachable set, excluding the spawned function:
	// a goroutine cannot join itself.
	encl, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	scope := g.reachable([]string{encl.FullName()})
	delete(scope, spawnedName)

	// Fixpoint over argument->parameter aliasing: scanning a body may
	// reveal that a signaled object is handed to a callee, whose
	// parameter then joins the alias set and may match joins there.
	for pass := 0; pass < 4; pass++ {
		grew := false
		for name := range scope {
			fi := g.funcs[name]
			if fi == nil {
				continue
			}
			skip := ast.Node(nil)
			if name == encl.FullName() {
				skip = gs // the goroutine's own body is not the spawner's join
			}
			found, g2 := scanForJoins(prog, g, fi, sig, skip)
			if found {
				return true
			}
			grew = grew || g2
		}
		if !grew {
			break
		}
	}
	return false
}

// collectGoSignals resolves the spawned body and gathers its
// completion signals. For `go f(...)` on a module function, signals
// found on f's parameters are translated to the spawn site's argument
// objects (and the parameter keys are kept too, for joins expressed
// against the callee's own view). Returns nil when the body is not
// analyzable. spawnedName is f's qualified name ("" for literals).
func collectGoSignals(prog *Program, g *callGraph, pkg *Package, gs *ast.GoStmt) (*goSignals, string) {
	sig := &goSignals{keys: make(map[token.Pos]bool)}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		gatherSignals(fun.Body, pkg.Info, sig)
		return sig, ""
	default:
		name := calleeName(prog, gs.Call, pkg.Info)
		fi := g.funcs[name]
		if fi == nil {
			return nil, "" // external or dynamic spawn target: invisible
		}
		gatherSignals(fi.decl.Body, fi.pkg.Info, sig)
		// Translate callee parameter signals to spawn-site arguments.
		params := paramObjs(fi)
		for i, p := range params {
			if p == nil || !sig.keys[objKey(p)] || i >= len(gs.Call.Args) {
				continue
			}
			if obj := baseObj(gs.Call.Args[i], pkg.Info); obj != nil {
				sig.keys[objKey(obj)] = true
			}
		}
		// A method spawn signals through its receiver's fields, which
		// already unify by field position; nothing extra to translate.
		_ = fun
		return sig, name
	}
}

// gatherSignals records every completion signal in a goroutine body:
// wg.Done(), ch <- v, close(ch).
func gatherSignals(body *ast.BlockStmt, info *types.Info, sig *goSignals) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObject(n, info)
			if isMethodOn(obj, "sync", "WaitGroup", "Done") {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if base := baseObj(sel.X, info); base != nil {
						sig.keys[objKey(base)] = true
					}
				}
			}
			if b, ok := obj.(*types.Builtin); ok && b.Name() == "close" && len(n.Args) == 1 {
				if base := baseObj(n.Args[0], info); base != nil {
					sig.keys[objKey(base)] = true
				}
			}
		case *ast.SendStmt:
			if base := baseObj(n.Chan, info); base != nil {
				sig.keys[objKey(base)] = true
			}
		}
		return true
	})
}

// scanForJoins looks through one function body for a join on any
// signaled object: WaitGroup.Wait or a channel receive. It also grows
// the alias set when a signaled object is passed as an argument to a
// module function (the callee's parameter becomes an alias); grew
// reports whether the set changed. skip, when non-nil, is a subtree to
// ignore (the go statement under analysis).
func scanForJoins(prog *Program, g *callGraph, fi *funcInfo, sig *goSignals, skip ast.Node) (found, grew bool) {
	info := fi.pkg.Info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		if found || n == skip {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			obj := calleeObject(n, info)
			if isMethodOn(obj, "sync", "WaitGroup", "Wait") {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if base := baseObj(sel.X, info); base != nil && sig.keys[objKey(base)] {
						found = true
						return false
					}
				}
			}
			// Alias growth: a signaled object handed to a module callee.
			if name := calleeName(prog, n, info); name != "" {
				if callee := g.funcs[name]; callee != nil {
					params := paramObjs(callee)
					for i, arg := range n.Args {
						if i >= len(params) || params[i] == nil {
							break
						}
						base := baseObj(arg, info)
						if base != nil && sig.keys[objKey(base)] && !sig.keys[objKey(params[i])] {
							sig.keys[objKey(params[i])] = true
							grew = true
						}
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if base := baseObj(n.X, info); base != nil && sig.keys[objKey(base)] {
					found = true
					return false
				}
			}
		case *ast.RangeStmt:
			if _, ok := info.Types[n.X].Type.Underlying().(*types.Chan); ok {
				if base := baseObj(n.X, info); base != nil && sig.keys[objKey(base)] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found, grew
}
