// Package hotalloc enforces the //anclint:hotpath annotation: a marked
// function body must not contain constructs that heap-allocate — the
// per-activation and per-frame kernels (metrics handles, frame-header
// packing, decay arithmetic) run millions of times per second, and one
// hidden allocation per call turns into GC pressure that caps ingest
// throughput, so steady ingest must allocate nothing on these paths.
//
// # What is flagged in a marked body
//
//   - make, new, &T{...}, and slice/map composite literals;
//   - append (growth reallocates; hot kernels use preallocated storage);
//   - function literals (a closure capturing variables allocates);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - interface conversions — explicit, or implicit at a call whose
//     parameter is an interface (fmt-style ...interface{} included):
//     boxing a non-pointer value escapes it to the heap.
//
// Struct value literals (point{1, 2}) stay on the stack and pass.
//
// The check is syntactic: it cannot see allocations inside callees, and
// it cannot run escape analysis, so the annotation contract has a
// second, dynamic half — every //anclint:hotpath function is listed in
// a hot-path allocation test asserting testing.AllocsPerRun == 0, and
// `make bench-smoke` runs the matching benchmarks under -benchmem
// (DESIGN.md §14). The analyzer keeps the obvious regressions out at
// compile time; the gate proves the property end to end.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"anc/internal/lint/analysis"
)

// Directive marks a function as an allocation-free hot path.
const Directive = "//anclint:hotpath"

// Analyzer flags allocating constructs inside //anclint:hotpath bodies.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions marked //anclint:hotpath must not allocate: no " +
		"make/new/composite-literal escapes, no append, no closures, no " +
		"string building, no interface boxing; backed by the " +
		"AllocsPerRun gate in bench-smoke",
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !marked(fd) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

// marked reports whether the declaration's doc group carries the
// hotpath directive.
func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, Directive) {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(),
				"hotpath %s: closure allocates (the captured environment escapes)", name)
			return false // its body is the closure's problem, already flagged
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(),
						"hotpath %s: &composite-literal allocates", name)
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(x.Pos(),
						"hotpath %s: %s literal allocates", name, kindWord(t))
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypeOf(x)) {
				pass.Reportf(x.Pos(),
					"hotpath %s: string concatenation allocates", name)
			}
		case *ast.CallExpr:
			checkCall(pass, name, x)
		}
		return true
	})
}

func kindWord(t types.Type) string {
	if _, ok := t.Underlying().(*types.Map); ok {
		return "map"
	}
	return "slice"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr) {
	// Builtins: make, new, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "hotpath %s: %s allocates", name, b.Name())
			case "append":
				pass.Reportf(call.Pos(), "hotpath %s: append may (re)allocate", name)
			}
			return
		}
	}
	// Conversions: T(x) where call.Fun denotes a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := pass.TypeOf(call.Args[0])
		switch {
		case isInterface(target) && !isInterface(src) && !isUntypedNil(src):
			pass.Reportf(call.Pos(),
				"hotpath %s: interface conversion boxes the value onto the heap", name)
		case isString(target) && isByteOrRuneSlice(src),
			isByteOrRuneSlice(target) && isString(src):
			pass.Reportf(call.Pos(),
				"hotpath %s: string conversion copies and allocates", name)
		}
		return
	}
	// Implicit interface boxing at call boundaries.
	sig, ok := typeAsSignature(pass.TypeOf(call.Fun))
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := pass.TypeOf(arg)
		if isInterface(pt) && !isInterface(at) && !isUntypedNil(at) && at != nil {
			pass.Reportf(arg.Pos(),
				"hotpath %s: argument boxed into interface parameter (heap escape)", name)
		}
	}
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
