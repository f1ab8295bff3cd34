package exactmath

import "math"

// cosVec and lawVec select the AVX2 kernels; init sets them once.
var cosVec, lawVec bool

func init() {
	if !hasAVX2FMA() {
		return
	}
	cosVec = true
	lawVec = lawProbeMatches()
}

// Implemented in vec_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cosAVX2 runs the vector cosine over src's whole 4-lane blocks into dst
// and returns how many elements it stored: it stops at the first block
// with a lane at |x| >= 2^29, NaN or ±Inf.
//
//go:noescape
func cosAVX2(dst, src []float64) int

// lawAVX2 is cosAVX2's counterpart for AlphaLaw.Into with am1 = Alpha-1 in
// (0, 0.5]; it stops at the first block with a lane whose ratio
// Over0/over is outside [2^-500, 2^500] or NaN.
//
//go:noescape
func lawAVX2(dst, dvth []float64, over0, minOver, am1, scale float64) int

// hasAVX2FMA reports AVX2 and FMA with the OS saving YMM state, by the
// rules of Go's internal/cpu.
func hasAVX2FMA() bool {
	const (
		ecx1FMA     = 1 << 12
		ecx1OSXSAVE = 1 << 27
		ecx1AVX     = 1 << 28
		ebx7AVX2    = 1 << 5
	)
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&ecx1OSXSAVE == 0 || ecx1&ecx1AVX == 0 || ecx1&ecx1FMA == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&ebx7AVX2 != 0
}

// probeLaw and probeRow are the inputs init checks the law's kernel on.
// The kernel replicates math.Exp's FMA path; math.Exp leaves that path
// under GODEBUG=cpu.fma=off (or cpu.avx=off), and the row holds shifts
// whose exponent arguments the two paths round differently
// (TestProbeRowSeparatesExpPaths), so the kernel runs only where it
// reproduces the scalar law.
var probeLaw = AlphaLaw{Over0: 0.66, MinOver: 0.05, Alpha: 1.3, Scale: 1.02}

// probeRow returns 64 threshold shifts evenly spaced over [-0.5, 0.484375] V.
func probeRow() []float64 {
	row := make([]float64, 64)
	for i := range row {
		row[i] = -0.5 + float64(i)/64
	}
	return row
}

// lawProbeMatches reports whether the law's kernel matches the scalar law
// bit for bit on the probe row.
func lawProbeMatches() bool {
	l, row := probeLaw, probeRow()
	got := make([]float64, len(row))
	if lawAVX2(got, row, l.Over0, l.MinOver, l.Alpha-1, l.Scale) != len(row) {
		return false
	}
	for i, v := range row {
		if math.Float64bits(got[i]) != math.Float64bits(l.At(v)) {
			return false
		}
	}
	return true
}

func cosInto(dst, src []float64) {
	if !cosVec {
		cosScalarInto(dst, src)
		return
	}
	for i := 0; i < len(src); {
		i += cosAVX2(dst[i:], src[i:])
		// The row's tail, or a block with a lane outside the guard.
		end := min(i+4, len(src))
		cosScalarInto(dst[i:end], src[i:end])
		i = end
	}
}

func lawInto(l AlphaLaw, dst, dvth []float64) {
	if !lawVec || !powFast(l.Alpha) {
		lawScalarInto(l, dst, dvth)
		return
	}
	for i := 0; i < len(dvth); {
		i += lawAVX2(dst[i:], dvth[i:], l.Over0, l.MinOver, l.Alpha-1, l.Scale)
		end := min(i+4, len(dvth))
		lawScalarInto(l, dst[i:end], dvth[i:end])
		i = end
	}
}
