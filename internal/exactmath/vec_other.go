//go:build !amd64

package exactmath

func cosInto(dst, src []float64) { cosScalarInto(dst, src) }

func lawInto(l AlphaLaw, dst, dvth []float64) { lawScalarInto(l, dst, dvth) }
