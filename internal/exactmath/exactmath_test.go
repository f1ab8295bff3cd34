package exactmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// powLaw is AlphaLaw.At written out with math.Pow: the standard library's
// bits the law's kernels must reproduce.
func powLaw(l AlphaLaw, dvth float64) float64 {
	over := l.Over0 - dvth
	if over < l.MinOver {
		over = l.MinOver
	}
	return math.Pow(l.Over0/over, l.Alpha) * l.Scale
}

// defaultLaw is the law of tech.Default45nm at 300 K.
var defaultLaw = AlphaLaw{Over0: 0.95 - 0.35 + 0.06, MinOver: 0.05, Alpha: 1.3, Scale: 1}

// hugeLaw reaches ratios above 2^500 at its clamp (2^480 / 2^-30).
var hugeLaw = AlphaLaw{Over0: 0x1p480, MinOver: 0x1p-30, Alpha: 1.3, Scale: 1}

// requireCosRow fails unless CosInto, out of place and in place, stores
// math.Cos's bits for every element of src.
func requireCosRow(tb testing.TB, src []float64) {
	tb.Helper()
	out := make([]float64, len(src))
	CosInto(out, src)
	in := append([]float64(nil), src...)
	CosInto(in, in)
	for i, x := range src {
		want := math.Float64bits(math.Cos(x))
		if math.Float64bits(out[i]) != want || math.Float64bits(in[i]) != want {
			tb.Fatalf("CosInto row %v: element %d (%v) = %v / in place %v, math.Cos %v",
				src, i, x, out[i], in[i], math.Cos(x))
		}
	}
}

// requireLawRow fails unless l.Into, out of place and in place, stores
// the bits of the law written out with math.Pow for every element.
func requireLawRow(tb testing.TB, l AlphaLaw, dvth []float64) {
	tb.Helper()
	out := make([]float64, len(dvth))
	l.Into(out, dvth)
	in := append([]float64(nil), dvth...)
	l.Into(in, in)
	for i, v := range dvth {
		want := math.Float64bits(powLaw(l, v))
		if math.Float64bits(out[i]) != want || math.Float64bits(in[i]) != want ||
			math.Float64bits(l.At(v)) != want {
			tb.Fatalf("%+v row %v: element %d (%v) = %v / in place %v / At %v, law with math.Pow %v",
				l, dvth, i, v, out[i], in[i], l.At(v), powLaw(l, v))
		}
	}
}

// TestCosIntoLanes: rows of length 0-11 with one argument outside the
// vector guard (NaN, ±Inf, ±2^29 and beyond) at every position, so every
// lane of a vector block and every tail length meets the scalar fallback.
func TestCosIntoLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 1 << 29, -(1 << 29),
		math.Nextafter(1<<29, 0), 1 << 40, math.MaxFloat64, 0, math.Copysign(0, -1),
	}
	for n := 0; n <= 11; n++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = (rng.Float64()*2 - 1) * 1e3
		}
		requireCosRow(t, row)
		for pos := 0; pos < n; pos++ {
			for _, x := range specials {
				r := append([]float64(nil), row...)
				r[pos] = x
				requireCosRow(t, r)
			}
		}
	}
}

// TestAlphaLawIntoLanes is TestCosIntoLanes for the law: NaN and -Inf
// shifts (ratio NaN and 0), +Inf and the clamp (ratio Over0/MinOver), and
// a ratio above 2^500, at every position of rows of length 0-11.
func TestAlphaLawIntoLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, l := range []AlphaLaw{defaultLaw, hugeLaw, {Over0: 0.66, MinOver: 0.05, Alpha: 1.5, Scale: 1.07}} {
		specials := []float64{
			math.NaN(), math.Inf(1), math.Inf(-1),
			l.Over0 - l.MinOver, math.Nextafter(l.Over0-l.MinOver, math.Inf(1)), l.Over0,
			l.Over0 - 0x1p-40, // over below the clamp; above 2^500 for hugeLaw
		}
		for n := 0; n <= 11; n++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = (rng.Float64()*2 - 1) * 0.3 * l.Over0
			}
			requireLawRow(t, l, row)
			for pos := 0; pos < n; pos++ {
				for _, v := range specials {
					r := append([]float64(nil), row...)
					r[pos] = v
					requireLawRow(t, l, r)
				}
			}
		}
	}
}

// TestAlphaLawIntoOutsideFastAlpha: exponents outside (1, 1.5] take
// math.Pow in both forms.
func TestAlphaLawIntoOutsideFastAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row := make([]float64, 37)
	for i := range row {
		row[i] = (rng.Float64()*2 - 1) * 0.5
	}
	for _, a := range []float64{1, 0.5, math.Nextafter(1.5, 2), 2, math.NaN()} {
		l := defaultLaw
		l.Alpha = a
		requireLawRow(t, l, row)
	}
}

// TestIntoMatchesScalarOnLongRows: long random rows over the sampler's
// ranges, where nearly every element goes through the vector kernels.
func TestIntoMatchesScalarOnLongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1000, 4097} {
		waves := make([]float64, n)
		dvth := make([]float64, n)
		for i := range waves {
			waves[i] = (rng.Float64()*2 - 1) * 1e3
			dvth[i] = rng.NormFloat64() * 0.05
		}
		// A sprinkle of guard failures in the middle of the rows.
		waves[n/2], dvth[n/3] = math.NaN(), math.Inf(-1)
		requireCosRow(t, waves)
		requireLawRow(t, defaultLaw, dvth)
	}
}

// decodeRow reads up to 16 float64s from data, eight bytes each.
func decodeRow(data []byte) []float64 {
	row := make([]float64, 0, 16)
	for len(data) >= 8 && len(row) < 16 {
		row = append(row, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return row
}

// encodeRow is decodeRow's inverse, for the fuzz seeds.
func encodeRow(row ...float64) []byte {
	var b []byte
	for _, x := range row {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzCosInto: CosInto agrees with math.Cos bit for bit on any short row,
// whichever lanes hold guard failures.
func FuzzCosInto(f *testing.F) {
	f.Add(encodeRow())
	f.Add(encodeRow(1, 2, 3))
	f.Add(encodeRow(0.5, -700, 1e3, math.Pi/4, 3*math.Pi/4))
	f.Add(encodeRow(1, 2, 3, 4, 5, math.NaN(), 7, 8, 9))
	f.Add(encodeRow(1, 2, 3, 1<<29, 5, 6, 7, 8, 9, 10, 11, math.Inf(-1)))
	f.Fuzz(func(t *testing.T, data []byte) { requireCosRow(t, decodeRow(data)) })
}

// FuzzAlphaLawInto: AlphaLaw.Into (tech.Process.DelayFactorDVthInto's
// body) agrees with the law written out with math.Pow on any short row of
// shifts and any overdrive, exponent and derating, whichever lanes hold
// guard failures.
func FuzzAlphaLawInto(f *testing.F) {
	f.Add(defaultLaw.Over0, 1.3, 1.0, encodeRow())
	f.Add(defaultLaw.Over0, 1.3, 1.0, encodeRow(0.01, -0.02, 0.03, 0.6, 0.65, math.NaN(), -0.1, 0.2, 0.05))
	f.Add(0.81, 1.5, 1.14, encodeRow(0.01, -0.02, 0.03, math.Inf(-1), 0.65, 0.7, -0.1, 0.2))
	f.Add(0x1p500, 1.2, 1.0, encodeRow(0x1p500, 0.1, 0.2, 0.3, 0.4))
	f.Add(defaultLaw.Over0, 1.7, 1.0, encodeRow(0.01, -0.02, 0.03, 0.04))
	f.Fuzz(func(t *testing.T, over0, alpha, scale float64, data []byte) {
		l := AlphaLaw{Over0: over0, MinOver: defaultLaw.MinOver, Alpha: alpha, Scale: scale}
		requireLawRow(t, l, decodeRow(data))
	})
}

func benchRow(n int) (waves, dvth []float64) {
	rng := rand.New(rand.NewSource(5))
	waves, dvth = make([]float64, n), make([]float64, n)
	for i := range waves {
		waves[i] = (rng.Float64()*2 - 1) * 1e3
		dvth[i] = rng.NormFloat64() * 0.05
	}
	return waves, dvth
}

// BenchmarkCosInto reports ns/element of the dispatching entry point and
// of the scalar form over a 4096-element wave row.
func BenchmarkCosInto(b *testing.B) {
	src, _ := benchRow(4096)
	dst := make([]float64, len(src))
	for _, c := range []struct {
		name string
		fn   func(dst, src []float64)
	}{{"dispatch", CosInto}, {"scalar", cosScalarInto}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.fn(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
		})
	}
}

// BenchmarkAlphaLawInto is BenchmarkCosInto for the delay law over a row
// of sampled threshold shifts.
func BenchmarkAlphaLawInto(b *testing.B) {
	_, src := benchRow(4096)
	dst := make([]float64, len(src))
	l := defaultLaw
	for _, c := range []struct {
		name string
		fn   func(dst, src []float64)
	}{{"dispatch", l.Into}, {"scalar", func(dst, src []float64) { lawScalarInto(l, dst, src) }}} {
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				c.fn(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
		})
	}
}

// TestAlphaLawIntoLogTie: ratios x = Sqrt2/2 · 2^j exactly (at the clamp,
// Over0/MinOver), where archLog's `f1 <= Sqrt2/2` takes the other branch
// from pure-Go log's `<`.
func TestAlphaLawIntoLogTie(t *testing.T) {
	row := []float64{math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), 0.25}
	for j := -40; j <= 40; j++ {
		for _, a := range []float64{1.05, 1.3, 1.5} {
			requireLawRow(t, AlphaLaw{Over0: math.Ldexp(math.Sqrt2/2, j), MinOver: 1, Alpha: a, Scale: 1}, row)
		}
	}
}
