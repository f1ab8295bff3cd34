package exactmath

import (
	"math"
	"math/rand"
	"testing"
)

// Constants of archExp ($GOROOT/src/math/exp_amd64.s).
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor is archExp's Taylor coefficients, highest order first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1,
}

// expFMA replicates archExp's AVX/FMA path for |x| < 700.
func expFMA(x float64) float64 {
	k := math.RoundToEven(x * expLog2e)
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = math.FMA(p, r, c)
	}
	e := r * p
	for range 3 {
		e *= e + 2
	}
	return math.Ldexp(math.FMA(e+2, e, 1), int(k))
}

// expSSE2 replicates archExp's SSE2 path for |x| < 700: the same steps
// with every product rounded before its sum.
func expSSE2(x float64) float64 {
	k := math.RoundToEven(x * expLog2e)
	r := x - k*expLn2U
	r -= k * expLn2L
	r *= 0.0625
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		p = p*r + c
	}
	e := r * p
	for range 4 {
		e *= e + 2
	}
	return math.Ldexp(e+1, int(k))
}

// expArgs returns 200 000 seeded arguments in [-0.3, 0.3], the range of
// the sampler's exponents (a-1)*log(x).
func expArgs() []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * 0.3
	}
	return xs
}

// mathExpOnFMAPath reports whether math.Exp matches expFMA on expArgs,
// failing the test unless it matches one of the two replicas everywhere.
func mathExpOnFMAPath(tb testing.TB) bool {
	tb.Helper()
	fma, sse2 := true, true
	for _, x := range expArgs() {
		got := math.Float64bits(math.Exp(x))
		fma = fma && got == math.Float64bits(expFMA(x))
		sse2 = sse2 && got == math.Float64bits(expSSE2(x))
	}
	if fma == sse2 {
		tb.Fatalf("math.Exp matches the FMA replica: %v, the SSE2 replica: %v; want exactly one", fma, sse2)
	}
	return fma
}

// TestExpReplicasDiffer: the two archExp paths round differently on a
// sizeable share of the sampler's exponents, and math.Exp is one of them.
func TestExpReplicasDiffer(t *testing.T) {
	xs := expArgs()
	differ := 0
	for _, x := range xs {
		if expFMA(x) != expSSE2(x) {
			differ++
		}
	}
	t.Logf("FMA and SSE2 exp differ on %d of %d arguments in [-0.3, 0.3]; math.Exp on the FMA path: %v",
		differ, len(xs), mathExpOnFMAPath(t))
	if differ < len(xs)/20 || differ > len(xs)/8 {
		t.Fatalf("the exp paths differ on %d of %d arguments, want 5%%-12.5%%", differ, len(xs))
	}
}

// TestProbeRowSeparatesExpPaths: the init probe row contains shifts whose
// exponent arguments the FMA and SSE2 paths of math.Exp round
// differently, so a math.Exp off the FMA path fails the probe.
func TestProbeRowSeparatesExpPaths(t *testing.T) {
	l := probeLaw
	differ := 0
	for _, v := range probeRow() {
		over := max(l.Over0-v, l.MinOver)
		arg := (l.Alpha - 1) * math.Log(l.Over0/over)
		if expFMA(arg) != expSSE2(arg) {
			differ++
		}
	}
	t.Logf("%d of %d probe exponents separate the exp paths", differ, len(probeRow()))
	if differ < 3 {
		t.Fatalf("only %d probe exponents separate the exp paths, want at least 3", differ)
	}
}

// TestDispatch: the cosine kernel runs wherever the CPU and OS support
// AVX2 and FMA; the law's kernel only where, in addition, math.Exp is on
// its FMA path (not under GODEBUG=cpu.fma=off). Either way both entry
// points match the standard library (the rest of this package's tests).
func TestDispatch(t *testing.T) {
	cpu := hasAVX2FMA()
	fmaExp := mathExpOnFMAPath(t)
	t.Logf("AVX2+FMA: %v, math.Exp on the FMA path: %v, cosine kernel: %v, law kernel: %v",
		cpu, fmaExp, cosVec, lawVec)
	if cosVec != cpu {
		t.Fatalf("cosine kernel on: %v, want %v", cosVec, cpu)
	}
	if lawVec != (cpu && fmaExp) {
		t.Fatalf("law kernel on: %v, want %v", lawVec, cpu && fmaExp)
	}
}
