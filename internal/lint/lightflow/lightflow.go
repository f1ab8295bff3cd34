// Package lightflow proves, at the source level, that no timing produced by
// a Dcrit-only "light" re-time ever reaches a path-consuming boundary.
//
// sta.Analyzer.RunLight and the Retimer Time*Light methods skip path
// extraction: the Timing they return carries bit-identical delays and
// DcritPS but an empty Paths set. Three call sites historically guarded
// this at runtime (core.NewAllocator, variation.TuneOn and
// variation.RecoverLeakageWith all reject tm.Light); a caller that slipped a light timing
// past review would have built a constraint-free clustering problem and
// silently produced garbage biases. This pass promotes those guards to
// compile-time errors.
//
// The analysis is an intra-procedural taint pass over the typed AST: every
// call of a light source taints its result, taint propagates through
// assignments, composite literals, struct fields, slices, interface
// conversions and type assertions, and a diagnostic is reported when a
// tainted value reaches
//
//   - core.NewAllocator (any argument),
//   - the nominal-timing parameter of variation.TuneOn or
//     variation.RecoverLeakageWith, or
//   - a read of the Paths field of an sta.Timing.
//
// Being intra-procedural, the pass checks each function body on its own: a
// helper that returns a light timing to its caller is the caller's source
// only if the helper itself is one of the named light entry points. That is
// exactly the repo's shape — light timings are produced at the Analyzer /
// Retimer boundary and consumed in the same function — and keeps the pass
// free of whole-program analysis.
package lightflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer is the lightflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "lightflow",
	Doc:  "prove Dcrit-only (light) re-times never reach a path-consuming boundary",
	Run:  run,
}

// sources are the light re-time producers, by (*types.Func).FullName.
var sources = map[string]bool{
	"(*repro/internal/sta.Analyzer).RunLight":                  true,
	"(*repro/internal/sta.TimingBatch).DieInto":                true,
	"(*repro/internal/variation.Retimer).TimeLight":            true,
	"(*repro/internal/variation.Retimer).TimeWithBiasLight":    true,
	"(*repro/internal/variation.Retimer).TimeUniformBiasLight": true,
}

// sinks maps path-consuming functions to the argument indices that must
// hold a full (path-extracting) timing; nil means every argument.
var sinks = map[string][]int{
	"repro/internal/core.NewAllocator":            nil,
	"repro/internal/variation.TuneOn":             {1},
	"repro/internal/variation.RecoverLeakageWith": {2},
}

const timingPath = "repro/internal/sta.Timing"

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// analyzeFunc runs the taint pass over one function body (closures
// included: they share the enclosing object space).
func analyzeFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	t := &tainter{pass: pass, tainted: map[types.Object]bool{}}
	for {
		before := len(t.tainted)
		ast.Inspect(body, t.propagate)
		if len(t.tainted) == before {
			break
		}
	}
	ast.Inspect(body, t.reportSinks)
}

type tainter struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool
}

// propagate grows the taint set across one traversal.
func (t *tainter) propagate(n ast.Node) bool {
	switch st := n.(type) {
	case *ast.AssignStmt:
		t.assign(st.Lhs, st.Rhs)
	case *ast.ValueSpec:
		if len(st.Values) > 0 {
			lhs := make([]ast.Expr, len(st.Names))
			for i, id := range st.Names {
				lhs[i] = id
			}
			t.assign(lhs, st.Values)
		}
	case *ast.RangeStmt:
		if t.exprTainted(st.X) {
			if st.Key != nil {
				t.taintLHS(st.Key)
			}
			if st.Value != nil {
				t.taintLHS(st.Value)
			}
		}
	}
	return true
}

// assign applies taint across one assignment, pairwise or through a single
// multi-value call.
func (t *tainter) assign(lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			if t.exprTainted(rhs[i]) {
				t.taintLHS(lhs[i])
			}
		}
		return
	}
	if len(rhs) == 1 && t.exprTainted(rhs[0]) {
		// tm, err := rt.TimeLight(die): taint only the results whose type
		// can carry a timing, so the error does not poison unrelated flow.
		tuple, _ := t.pass.TypesInfo.Types[rhs[0]].Type.(*types.Tuple)
		for i, l := range lhs {
			if tuple != nil && i < tuple.Len() && !canCarryTiming(tuple.At(i).Type(), 0) {
				continue
			}
			t.taintLHS(l)
		}
	}
}

// canCarryTiming reports whether a value of type t could hold (or point
// to, or contain) an sta.Timing — the filter that keeps errors and counts
// from a multi-value source call out of the taint set.
func canCarryTiming(t types.Type, depth int) bool {
	if depth > 4 {
		return true // deep generic nesting: stay conservative
	}
	if lintutil.NamedPath(t) == timingPath {
		return true
	}
	if t == types.Universe.Lookup("error").Type() {
		return false // a Timing has no Error method; err results stay clean
	}
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer:
		return canCarryTiming(u.Elem(), depth+1)
	case *types.Slice:
		return canCarryTiming(u.Elem(), depth+1)
	case *types.Array:
		return canCarryTiming(u.Elem(), depth+1)
	case *types.Map:
		return canCarryTiming(u.Elem(), depth+1) || canCarryTiming(u.Key(), depth+1)
	case *types.Chan:
		return canCarryTiming(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canCarryTiming(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Interface:
		return true // anything can hide behind an interface
	default:
		return true
	}
}

// taintLHS marks the object behind an assignment target. A store through a
// selector or index (h.tm = light, dies[i] = light) taints the root object:
// that is how taint crosses struct fields and containers.
func (t *tainter) taintLHS(e ast.Expr) {
	root := lintutil.RootIdent(e)
	if root == nil || root.Name == "_" {
		return
	}
	if obj, ok := lintutil.ObjectOf(t.pass.TypesInfo, root).(*types.Var); ok {
		t.tainted[obj] = true
	}
}

// exprTainted reports whether evaluating e can yield a light-derived value.
func (t *tainter) exprTainted(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		obj := lintutil.ObjectOf(t.pass.TypesInfo, x)
		return obj != nil && t.tainted[obj]
	case *ast.CallExpr:
		if fn := lintutil.Callee(t.pass.TypesInfo, x); fn != nil && sources[fn.FullName()] {
			return true
		}
		if lintutil.IsConversion(t.pass.TypesInfo, x) && len(x.Args) == 1 {
			return t.exprTainted(x.Args[0])
		}
		return false
	case *ast.SelectorExpr:
		if root := lintutil.RootIdent(x.X); root != nil {
			if _, isPkg := lintutil.ObjectOf(t.pass.TypesInfo, root).(*types.PkgName); isPkg {
				return false
			}
		}
		return t.exprTainted(x.X)
	case *ast.ParenExpr:
		return t.exprTainted(x.X)
	case *ast.StarExpr:
		return t.exprTainted(x.X)
	case *ast.UnaryExpr:
		return t.exprTainted(x.X)
	case *ast.TypeAssertExpr:
		return t.exprTainted(x.X)
	case *ast.IndexExpr:
		return t.exprTainted(x.X)
	case *ast.SliceExpr:
		return t.exprTainted(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.exprTainted(el) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// reportSinks walks the body once more with the converged taint set and
// reports every tainted value that reaches a boundary.
func (t *tainter) reportSinks(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.CallExpr:
		fn := lintutil.Callee(t.pass.TypesInfo, x)
		if fn == nil {
			return true
		}
		idxs, ok := sinks[fn.FullName()]
		if !ok {
			return true
		}
		if idxs == nil {
			for _, arg := range x.Args {
				t.reportArg(fn, arg)
			}
		} else {
			for _, i := range idxs {
				if i < len(x.Args) {
					t.reportArg(fn, x.Args[i])
				}
			}
		}
	case *ast.SelectorExpr:
		if x.Sel.Name != "Paths" {
			return true
		}
		tv, ok := t.pass.TypesInfo.Types[x.X]
		if !ok || lintutil.NamedPath(tv.Type) != timingPath {
			return true
		}
		if t.exprTainted(x.X) {
			t.pass.Reportf(x.Sel.Pos(), "reading Paths of a light (Dcrit-only) re-time: RunLight/Time*Light never extract paths, so this set is always empty — use the full Run/Time result")
		}
	}
	return true
}

func (t *tainter) reportArg(fn *types.Func, arg ast.Expr) {
	if t.exprTainted(arg) {
		t.pass.Reportf(arg.Pos(), "light (Dcrit-only) re-time flows into %s, which consumes the extracted path set; re-time this corner with the full Run/Time instead", fn.FullName())
	}
}
