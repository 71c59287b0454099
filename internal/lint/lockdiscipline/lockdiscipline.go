// Package lockdiscipline enforces the informal locking contract of the
// concurrency wrappers (ConcurrentNetwork, DurableNetwork): every
// exported method of a struct carrying a `mu` mutex field must take the
// lock before touching the wrapped state, and must never call another
// exported method of the same receiver while holding it — sync.RWMutex is
// not reentrant, so a self-call is a self-deadlock that only fires under
// load.
//
// Concretely, for each struct type T with a field `mu` of type
// sync.Mutex or sync.RWMutex — declared directly or promoted from an
// embedded struct, as the facades get theirs from the shared lock layer —
// and each exported pointer-receiver method of T whose body reads or
// writes receiver fields other than mu:
//
//  1. the first statement must be recv.mu.Lock() or recv.mu.RLock();
//  2. the second must be the matching defer recv.mu.Unlock()/RUnlock();
//  3. no statement may call an exported method of a guarded type on recv,
//     whether declared on T or promoted from the embedded struct that
//     brought the mutex (recv.M() and recv.Embedded.M() alike): both lock
//     the same mu.
//
// Unexported methods (the *Locked helpers) are exempt from 1–2 and are
// the sanctioned way to share code between locked entry points.
//
// Fields whose type is internally synchronized — sync/atomic values, the
// nil-safe metric handles of anc/internal/obs, the lock-free
// materialized clustering cache of anc/internal/cluster/cache, and the
// analytics rank-snapshot cache of anc/internal/analytics — do not
// count as guarded state: reading an atomic snapshot counter, bumping a
// metric, or probing a cache lock-free is the whole point of using
// those types, and forcing the mu around them would make metric scrapes
// and cache hits queue behind long batch ingests.
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"anc/internal/lint/analysis"
)

// Analyzer enforces mu discipline on mutex-guarded wrapper types.
var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "exported methods of mu-guarded structs must lock first, " +
		"defer-unlock second, and never call exported sibling methods " +
		"while holding the lock (RWMutex self-deadlock)",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	guarded := guardedTypes(pass)
	if len(guarded) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			tname := receiverType(pass, fd)
			if tname == nil || !guarded[tname] {
				continue
			}
			checkMethod(pass, fd, tname, guarded)
		}
	}
	return nil, nil
}

// guardedTypes returns the named struct types of the package that carry a
// field `mu` of type sync.Mutex or sync.RWMutex, directly or promoted
// through embedding — whatever recv.mu resolves to.
func guardedTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Struct); !ok {
			continue
		}
		mu, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pass.Pkg, "mu")
		if fld, ok := mu.(*types.Var); ok && fld.IsField() && isSyncMutex(fld.Type()) {
			out[tn] = true
		}
	}
	return out
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	n := named.Obj().Name()
	return n == "Mutex" || n == "RWMutex"
}

func receiverType(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	if len(fd.Recv.List) == 0 {
		return nil
	}
	return namedOf(pass.TypeOf(fd.Recv.List[0].Type))
}

func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl, tname *types.TypeName, guarded map[*types.TypeName]bool) {
	recv := recvName(fd)
	if recv == "" || recv == "_" {
		return
	}
	exported := fd.Name.IsExported()
	touches := touchesGuardedState(pass, fd, recv)
	if exported && touches {
		lockKind := firstIsLock(fd, recv)
		if lockKind == "" {
			pass.Reportf(fd.Name.Pos(),
				"exported method %s.%s touches guarded state but does not start with %s.mu.Lock/RLock",
				tname.Name(), fd.Name.Name, recv)
		} else if !secondIsMatchingDeferUnlock(fd, recv, lockKind) {
			pass.Reportf(fd.Name.Pos(),
				"exported method %s.%s must defer %s.mu.%s directly after %s.mu.%s",
				tname.Name(), fd.Name.Name, recv, unlockFor(lockKind), recv, lockKind)
		}
	}
	// Self-call check applies to every method that holds the lock —
	// exported ones by rule 1, so scan all exported bodies plus any body
	// that locks.
	if exported || firstIsLock(fd, recv) != "" {
		flagSelfCalls(pass, fd, tname, recv, guarded)
	}
}

// touchesGuardedState reports whether the body mentions recv.<field> for
// any selector other than mu, ignoring fields of internally synchronized
// types (sync/atomic, anc/internal/obs, anc/internal/cluster/cache,
// anc/internal/analytics) which are safe to touch bare.
func touchesGuardedState(pass *analysis.Pass, fd *ast.FuncDecl, recv string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv && sel.Sel.Name != "mu" {
			if internallySynced(pass.TypeOf(sel)) {
				return true
			}
			found = true
			return false
		}
		return true
	})
	return found
}

// internallySynced reports whether t (after one pointer deref) is a named
// type from a package whose values carry their own synchronization, so
// touching such a field without mu is sound by construction.
func internallySynced(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync/atomic", "anc/internal/obs", "anc/internal/cluster/cache",
		"anc/internal/analytics":
		return true
	}
	return false
}

// firstIsLock returns "Lock" or "RLock" when the method's first statement
// is recv.mu.Lock() / recv.mu.RLock(), else "".
func firstIsLock(fd *ast.FuncDecl, recv string) string {
	if len(fd.Body.List) == 0 {
		return ""
	}
	es, ok := fd.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return ""
	}
	return muCallName(es.X, recv, "Lock", "RLock")
}

func unlockFor(lock string) string {
	if lock == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

func secondIsMatchingDeferUnlock(fd *ast.FuncDecl, recv, lockKind string) bool {
	if len(fd.Body.List) < 2 {
		return false
	}
	ds, ok := fd.Body.List[1].(*ast.DeferStmt)
	if !ok {
		return false
	}
	return muCallName(ds.Call, recv, unlockFor(lockKind)) != ""
}

// muCallName matches recv.mu.<name>() for any of the given names and
// returns the matched name.
func muCallName(e ast.Expr, recv string, names ...string) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "mu" {
		return ""
	}
	id, ok := inner.X.(*ast.Ident)
	if !ok || id.Name != recv {
		return ""
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n
		}
	}
	return ""
}

// flagSelfCalls reports calls to exported methods on the receiver — a
// self-deadlock while the lock is held. The callee may be declared on T or
// promoted from an embedded guarded struct, and may be reached as recv.M()
// or through the embedded field, recv.Embedded.M().
func flagSelfCalls(pass *analysis.Pass, fd *ast.FuncDecl, tname *types.TypeName, recv string, guarded map[*types.TypeName]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !sel.Sel.IsExported() || !onReceiver(pass, sel.X, recv) {
			return true
		}
		// Confirm it is a method (not a field holding a func) whose own
		// receiver is a guarded type: T itself, or the embedded struct T's
		// mu is promoted from.
		if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && guarded[namedOf(sig.Recv().Type())] {
				pass.Reportf(call.Pos(),
					"%s.%s calls exported method %s while holding %s.mu — RWMutex is not reentrant, this self-deadlocks",
					tname.Name(), fd.Name.Name, sel.Sel.Name, recv)
			}
		}
		return true
	})
}

// onReceiver reports whether e is recv itself or a chain of embedded
// fields hanging off it (recv.Embedded, recv.Outer.Inner, ...).
func onReceiver(pass *analysis.Pass, e ast.Expr, recv string) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == recv
		case *ast.SelectorExpr:
			if fld, ok := pass.ObjectOf(x.Sel).(*types.Var); !ok || !fld.Embedded() {
				return false
			}
			e = x.X
		default:
			return false
		}
	}
}

// namedOf returns the type name behind t after one pointer deref, or nil.
func namedOf(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}
