// Package exactmath holds the die sampler's two per-element kernels — the
// cosine of the systematic wave field and the alpha-power delay law — in
// forms that return exactly the standard library's bits (math.Cos, and
// math.Pow on the law's domain) without its branches and special-case
// scaffolding.
//
// CosInto and AlphaLaw.Into are the entry points. On amd64 they run 4-lane
// AVX2 kernels (vec_amd64.s) that perform the same IEEE operations in the
// same order as the scalar forms, so the vector and scalar paths agree bit
// for bit. The choice is made once at init and has no option: the vector
// path needs AVX2, FMA and OS-enabled YMM state (CPUID/XGETBV, the rules of
// Go's internal/cpu), and the law's kernel additionally needs math.Exp to
// be on its FMA path, which init checks by running the kernel on a fixed
// probe row against the scalar law. Any 4-lane block with a lane outside
// the scalar guard, and the tail of a row, take the scalar form. Every
// other architecture runs the scalar forms.
package exactmath

import (
	"math"
	"runtime"
)

// Coefficients of Go's pure-Go math.cos (Cephes sin.c), copied bit for bit:
// the cosine kernels must evaluate the same polynomials in the same order.
var (
	cosSinP = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCosP = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// CosInto stores math.Cos(src[i]) into dst[i], bit for bit; dst may alias
// src and must be at least as long. It is a slice kernel rather than a
// scalar function because the sampler's wave sweep is its one caller: a
// per-gate call would spill the sweep's live values around every cosine,
// which costs about what the branch-free form saves.
func CosInto(dst, src []float64) {
	cosInto(dst[:len(src)], src)
}

// cosScalarInto is the scalar form of CosInto. It is Go's pure-Go cos,
// which math.Cos is on every architecture but s390x (there math.Cos is
// assembly, so s390x calls it): the same Cody-Waite reduction by pi/4 in
// three parts and the same two polynomials. Where cos branches on the
// octant, this rounds the octant up to even arithmetically, evaluates both
// polynomials, picks one with a bit mask and applies the sign by flipping
// the sign bit. |x| >= 2^29 (where cos switches to Payne-Hanek reduction),
// NaN and ±Inf take math.Cos.
func cosScalarInto(dst, src []float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	dst = dst[:len(src)]
	for i, x := range src {
		ax := math.Abs(x)
		if runtime.GOARCH == "s390x" || !(ax < 1<<29) {
			dst[i] = math.Cos(x)
			continue
		}
		// The octant fits in an int64, whose conversion is a single
		// instruction where uint64's is not.
		j := uint64(int64(ax * (4 / math.Pi)))
		j += j & 1 // map zeros to origin: odd octants round up
		y := float64(j)
		z := ((ax - y*pi4A) - y*pi4B) - y*pi4C
		zz := z * z
		s := z + z*zz*((((((cosSinP[0]*zz)+cosSinP[1])*zz+cosSinP[2])*zz+cosSinP[3])*zz+cosSinP[4])*zz+cosSinP[5])
		c := 1.0 - 0.5*zz + zz*zz*((((((cosCosP[0]*zz)+cosCosP[1])*zz+cosCosP[2])*zz+cosCosP[3])*zz+cosCosP[4])*zz+cosCosP[5])
		// With j even, octants 2 and 6 (mod 8) take the sine polynomial;
		// octants 2 and 4 negate.
		useSin := -(j >> 1 & 1)
		bits := math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin
		bits ^= (j>>1 ^ j>>2) & 1 << 63
		dst[i] = math.Float64frombits(bits)
	}
}

// AlphaPow returns math.Pow(x, a) bit for bit, minus Pow's special-case
// scaffolding on the alpha-power law's domain. For 1 < a <= 1.5, Go's pow
// splits a into yi = 1 and yf = a-1 (exact by Sterbenz) and returns
// Ldexp(Exp(yf*Log(x))*frac(x), exp(x)); scaling by a power of two commutes
// with rounding while the result stays normal, so Exp(yf*Log(x))*x is the
// same bits. The guard keeps x, and so x^a, far from subnormals and
// overflow; every other input (NaN and ±Inf included) takes math.Pow. The
// equality is with Go's pure-Go pow, which math.Pow is on every
// architecture but s390x; there math.Pow is assembly, so s390x always
// calls it.
func AlphaPow(x, a float64) float64 {
	if runtime.GOARCH != "s390x" && powFast(a) && x >= 0x1p-500 && x <= 0x1p500 {
		return math.Exp((a-1)*math.Log(x)) * x
	}
	return math.Pow(x, a)
}

// powFast reports whether AlphaPow's exponent is inside its fast domain.
func powFast(a float64) bool { return a > 1 && a <= 1.5 }

// AlphaLaw is the alpha-power delay law of a gate whose threshold moved by
// dvth volts: Scale * (Over0 / over)^Alpha with over = Over0 - dvth,
// clamped from below at MinOver.
type AlphaLaw struct {
	Over0   float64 // gate overdrive at zero shift, volts
	MinOver float64 // floor of the shifted overdrive, volts
	Alpha   float64 // velocity-saturation exponent
	Scale   float64 // multiplies every factor (a temperature derating)
}

// At returns the law's delay factor at threshold shift dvth.
func (l AlphaLaw) At(dvth float64) float64 {
	over := l.Over0 - dvth
	if over < l.MinOver {
		over = l.MinOver
	}
	return AlphaPow(l.Over0/over, l.Alpha) * l.Scale
}

// Into stores l.At(dvth[i]) into dst[i], bit for bit; dst may alias dvth
// and must be at least as long.
func (l AlphaLaw) Into(dst, dvth []float64) {
	lawInto(l, dst[:len(dvth)], dvth)
}

// lawScalarInto is the scalar form of AlphaLaw.Into.
func lawScalarInto(l AlphaLaw, dst, dvth []float64) {
	for i, v := range dvth {
		dst[i] = l.At(v)
	}
}
