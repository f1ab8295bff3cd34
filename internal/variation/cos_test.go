package variation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exactmath"
)

// cosExact is exactmath.CosInto, the sampler's cosine, on one argument.
func cosExact(x float64) float64 {
	v := [1]float64{x}
	exactmath.CosInto(v[:], v[:])
	return v[0]
}

// requireCosBits fails unless cosExact(x) has exactly math.Cos(x)'s bits.
func requireCosBits(tb testing.TB, x float64) {
	tb.Helper()
	if got, want := cosExact(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("cosExact(%v) = %v (%#016x), math.Cos = %v (%#016x)",
			x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestCosExactMatchesMath: the branch-free cosine must reproduce math.Cos
// bit for bit — on the special values, at every octant edge, across the
// 2^29 fallback boundary, and on random arguments over the sampler's wave
// range and the whole reduced domain.
func TestCosExactMatchesMath(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, 0x1p-1023, 1e-300, 1e-8,
		1, -1, 2, 3, math.Pi, -math.Pi, 2 * math.Pi, 100, -1000.5,
		1 << 29, -(1 << 29),
		math.Nextafter(1<<29, 0), math.Nextafter(-(1 << 29), 0),
		math.Nextafter(1<<29, math.Inf(1)), math.Nextafter(-(1 << 29), math.Inf(-1)),
		1 << 40, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// Multiples of pi/4 and their neighbours, where the octant (and so the
	// polynomial and the sign) changes.
	for k := -64; k <= 64; k++ {
		x := float64(k) * math.Pi / 4
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	for _, k := range []float64{1e3, 1e6, 1e8, 683565275} {
		x := k * math.Pi / 4
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	for _, x := range xs {
		requireCosBits(t, x)
	}
	// The slice form, out of place over the whole list.
	got := make([]float64, len(xs))
	exactmath.CosInto(got, xs)
	for i, x := range xs {
		if math.Float64bits(got[i]) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("CosInto at %v: %v, math.Cos %v", x, got[i], math.Cos(x))
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		// The wave argument kx*x + ky*y + phase: a few radians to a few
		// hundred over a placed die, of either sign.
		requireCosBits(t, (rng.Float64()*2-1)*1e3)
		// Anywhere below the fallback boundary.
		requireCosBits(t, (rng.Float64()*2-1)*(1<<29))
		// Random bit patterns: every exponent, NaN payloads included.
		requireCosBits(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzCosExact: cosExact agrees with math.Cos bit for bit on any argument.
// If a Go release changes math.cos, this (and the test above) is where it
// shows.
func FuzzCosExact(f *testing.F) {
	for _, x := range []float64{0, 1, -1, math.Pi / 4, 3 * math.Pi / 4, 1 << 29, math.NaN(), math.Inf(1), 5e-324} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) { requireCosBits(t, x) })
}
