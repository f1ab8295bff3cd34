package tech

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/exactmath"
)

// requirePowBits fails unless exactmath.AlphaPow(x, a) has exactly
// math.Pow's bits.
func requirePowBits(tb testing.TB, x, a float64) {
	tb.Helper()
	if got, want := exactmath.AlphaPow(x, a), math.Pow(x, a); math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("AlphaPow(%v, %v) = %v (%#016x), math.Pow = %v (%#016x)",
			x, a, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestAlphaPowMatchesPow: the alpha-power kernel must reproduce math.Pow
// bit for bit — inside its fast domain (1 < a <= 1.5, x within 2^±500), at
// both edges of it, and on the fallback side (a <= 1, a > 1.5, special and
// extreme x).
func TestAlphaPowMatchesPow(t *testing.T) {
	alphas := []float64{
		math.Nextafter(1, 2), 1.05, 1.2, 1.3, 1.4999, math.Nextafter(1.5, 1), 1.5,
		math.Nextafter(1.5, 2), 1.7, 2, 2.5, 1, 0.99, 0.5, 0, -1.3, math.Inf(1), math.NaN(),
	}
	xs := []float64{
		1, 2, 0.5, 13.14, 0.05, math.Nextafter(1, 0), math.Nextafter(1, 2),
		0x1p-500, math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p-500, 1),
		0x1p500, math.Nextafter(0x1p500, 0), math.Nextafter(0x1p500, math.Inf(1)),
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1030,
		math.MaxFloat64, -1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, a := range alphas {
		for _, x := range xs {
			requirePowBits(t, x, a)
		}
	}

	// Random ratios over0/over over the clamped delay range (over >= 0.05 V
	// against over0 ~ 0.66 V puts x in (0, ~13]) and a log-uniform sweep of
	// the whole fast domain.
	rng := rand.New(rand.NewSource(1))
	for _, a := range []float64{1.05, 1.2, 1.3, 1.4999, 1.5} {
		for i := 0; i < 100000; i++ {
			requirePowBits(t, rng.Float64()*14, a)
			requirePowBits(t, math.Exp2((rng.Float64()*2-1)*500), a)
		}
	}
	for i := 0; i < 100000; i++ {
		requirePowBits(t, rng.Float64()*14, 1+rng.Float64())
	}

	// DelayFactorDVth and DelayFactorDVthInto are the law written out with
	// math.Pow, over and beyond the 0.05 V overdrive clamp, on the default
	// process, a hot one and one whose exponent is outside AlphaPow's fast
	// domain. exactmath pins AlphaLaw.Into itself (every lane, in place,
	// fuzzed rows); this pins the law delayLaw builds from a Process.
	hot, slow := Default45nm(), Default45nm()
	hot.TempK = 370
	slow.Alpha = 1.7
	row := make([]float64, 100000)
	for i := range row {
		row[i] = (rng.Float64()*2 - 1) * 0.7
	}
	out := make([]float64, len(row))
	for _, p := range []*Process{Default45nm(), hot, slow} {
		p.DelayFactorDVthInto(out, row)
		for i, v := range row {
			want := math.Float64bits(powDelayLaw(p, v))
			if math.Float64bits(p.DelayFactorDVth(v)) != want || math.Float64bits(out[i]) != want {
				t.Fatalf("alpha %v, %v K: DelayFactorDVth(%v) = %v, row element %v, law with math.Pow %v",
					p.Alpha, p.TempK, v, p.DelayFactorDVth(v), out[i], powDelayLaw(p, v))
			}
		}
	}
}

// powDelayLaw is DelayFactorDVth written out with math.Pow.
func powDelayLaw(p *Process, dvth float64) float64 {
	over0 := p.VddV - p.Vth0V + p.DIBLOverdriveV
	over := over0 - dvth
	if over < 0.05 {
		over = 0.05
	}
	return math.Pow(over0/over, p.Alpha) * p.tempDelayFactor()
}

// FuzzAlphaPow: exactmath.AlphaPow agrees with math.Pow bit for bit on any (x, a).
// If a Go release changes math.pow, this (and the test above) is where it
// shows.
func FuzzAlphaPow(f *testing.F) {
	for _, c := range [][2]float64{{1.2, 1.3}, {13.14, 1.3}, {0.5, 1.5}, {2, 1.5000000000000002}, {0x1p-500, 1.3}, {3, 0.9}} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, x, a float64) { requirePowBits(t, x, a) })
}
