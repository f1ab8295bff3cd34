package variation

import (
	"math"
	"runtime"
)

// Coefficients of Go's pure-Go math.cos (Cephes sin.c), copied bit for bit:
// cosExactInto must evaluate the same polynomials in the same order.
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

// cosExactInto stores math.Cos(src[i]) into dst[i], bit for bit, without
// data-dependent branches; dst may alias src and must be at least as long.
// It is Go's pure-Go cos, which math.Cos is on every architecture but
// s390x (there math.Cos is assembly, so s390x calls it): the same Cody-Waite
// reduction by pi/4 in three parts and the same two polynomials. Where cos
// branches on the octant, this rounds the octant up to even arithmetically,
// evaluates both polynomials, picks one with a bit mask and applies the
// sign by flipping the sign bit. |x| >= 2^29 (where cos switches to
// Payne-Hanek reduction), NaN and ±Inf take math.Cos. It is a slice kernel
// rather than a scalar function because the sampler's wave sweep is its one
// caller: a per-gate call would spill the sweep's live values around every
// cosine, which costs about what the branch-free form saves.
func cosExactInto(dst, src []float64) {
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
