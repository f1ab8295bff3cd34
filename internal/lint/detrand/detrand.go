// Package detrand forbids nondeterminism sources in the repro kernel
// packages. The reproduction's core guarantee — a study's population is
// byte-identical at any worker count or scheduling order, and on any
// machine of one GOARCH whose math.Exp takes the same path — holds only if
// the deterministic kernels never read the wall clock and never draw from
// an entropy-seeded or globally shared random stream. (It is not one set
// of bytes on every machine: on amd64, math.Exp has an FMA path and an
// SSE2 path, chosen by the CPU and GODEBUG, that round about 7.7% of the
// sampler's exponents differently; exactmath's TestExpReplicasDiffer
// counts them.) Seeds must be derived per die via variation.DieSeed /
// splitmix64 (or threaded in from a caller who did), and every generator
// must be a private rand.New(rand.NewSource(seed)).
//
// In the packages listed in Packages, non-test code may not:
//
//   - call time.Now, time.Since or time.Until (wall-clock reads);
//   - call math/rand package-level functions (the global, locked,
//     entropy-seeded stream: rand.Intn, rand.Float64, rand.Shuffle, ...);
//   - call rand.New with anything but an inline rand.NewSource(seed);
//   - seed rand.NewSource through any call chain that is not visibly a
//     seed derivation (a function whose name mentions Seed or splitmix).
//
// Constant seeds and seeds threaded in as plain variables are allowed: the
// contract bans entropy, not fixed or caller-derived values.
package detrand

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Packages is the set of deterministic kernel package paths the pass
// applies to; everything else (the service layer, CLIs, tests) may use
// clocks and entropy freely.
var Packages = map[string]bool{
	"repro/internal/sta":       true,
	"repro/internal/core":      true,
	"repro/internal/variation": true,
	"repro/internal/ilp":       true,
	"repro/internal/flow":      true,
}

// Analyzer is the detrand pass.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock reads and non-derived random streams in the deterministic kernel packages",
	Run:  run,
}

// wallClock names the forbidden time package functions.
var wallClock = map[string]bool{
	"time.Now":   true,
	"time.Since": true,
	"time.Until": true,
}

func run(pass *analysis.Pass) (any, error) {
	if !Packages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		name := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filepath.Base(name), "_test.go") {
			continue // tests may poll clocks and use throwaway entropy
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := lintutil.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			full := fn.Pkg().Path() + "." + fn.Name()
			switch {
			case wallClock[full]:
				pass.Reportf(call.Pos(), "%s in deterministic kernel package %s: results must not depend on the wall clock", full, pass.Pkg.Path())
			case fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2":
				checkRand(pass, call, fn)
			}
			return true
		})
	}
	return nil, nil
}

// checkRand vets one call into math/rand.
func checkRand(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) {
	if fn.Signature().Recv() != nil {
		return // methods on a private *rand.Rand are the sanctioned form
	}
	switch fn.Name() {
	case "New":
		src := ast.Unparen(firstArg(call))
		inner, ok := src.(*ast.CallExpr)
		if !ok || calleeName(pass, inner) != "NewSource" {
			pass.Reportf(call.Pos(), "rand.New must wrap an inline rand.NewSource(seed) so the seed derivation is auditable at the construction site")
		}
	case "NewSource":
		checkSeed(pass, firstArg(call))
	case "NewZipf":
		// takes an already-vetted *rand.Rand
	default:
		pass.Reportf(call.Pos(), "global math/rand stream (rand.%s) in deterministic kernel package %s: derive a seed via variation.DieSeed/splitmix64 and draw from a private rand.New(rand.NewSource(seed))", fn.Name(), pass.Pkg.Path())
	}
}

// checkSeed accepts constant seeds, seeds threaded in as plain variable
// expressions, and expressions whose call chain visibly derives a seed
// (…Seed…/…splitmix… in a callee name). Anything else — above all a clock
// read like time.Now().UnixNano() — is flagged.
func checkSeed(pass *analysis.Pass, seed ast.Expr) {
	if seed == nil {
		return
	}
	if tv, ok := pass.TypesInfo.Types[seed]; ok && tv.Value != nil && tv.Value.Kind() != constant.Unknown {
		return
	}
	hasCall, hasDerivation := false, false
	ast.Inspect(seed, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lintutil.IsConversion(pass.TypesInfo, call) {
			return true
		}
		hasCall = true
		if fn := lintutil.Callee(pass.TypesInfo, call); fn != nil {
			lower := strings.ToLower(fn.Name())
			if strings.Contains(lower, "seed") || strings.Contains(lower, "splitmix") {
				hasDerivation = true
			}
		}
		return true
	})
	if hasCall && !hasDerivation {
		pass.Reportf(seed.Pos(), "rand.NewSource seed must be a constant, a threaded-in variable, or a visible derivation (variation.DieSeed/splitmix64), not an arbitrary call chain")
	}
}

func firstArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	return call.Args[0]
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := lintutil.Callee(pass.TypesInfo, call); fn != nil {
		return fn.Name()
	}
	return ""
}
