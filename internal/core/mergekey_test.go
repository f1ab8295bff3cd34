package core

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fixed6Ref renders v exactly as the reference's "%.6f" signature does.
func fixed6Ref(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// decodeFixed6 decodes one level's merge key back to the string it stands
// for: the sign, then q = |v|·10⁶ rounded half to even as digits with the
// decimal point six places from the right, or NaN/±Inf. Wide payloads are
// rounded here independently of fixed6, on an exact big.Rat.
func decodeFixed6(t *testing.T, key []uint64) string {
	t.Helper()
	sign := ""
	if key[0]&fixed6Sign != 0 {
		sign = "-"
	}
	var q *big.Int
	switch w := key[0] &^ fixed6Sign; {
	case w != fixed6Escape:
		if len(key) != 1 {
			t.Fatalf("inline key %x has %d words", key, len(key))
		}
		q = new(big.Int).SetUint64(w)
	case len(key) != 2:
		t.Fatalf("escaped key %x has %d words", key, len(key))
	case key[1] == fixed6NaN:
		if sign != "" {
			t.Fatalf("NaN key %x keeps a sign", key)
		}
		return "NaN"
	case key[1] == fixed6Inf:
		if sign == "" {
			return "+Inf"
		}
		return "-Inf"
	case key[1] < fixed6Wide || key[1] > fixed6Inf:
		t.Fatalf("escaped key %x carries a non-wide payload", key)
	default:
		q = roundFixed6(math.Float64frombits(key[1]))
	}
	digits := q.String()
	if len(digits) < 7 {
		digits = strings.Repeat("0", 7-len(digits)) + digits
	}
	return sign + digits[:len(digits)-6] + "." + digits[len(digits)-6:]
}

// roundFixed6 is |v|·10⁶ rounded half to even on the exact rational value.
func roundFixed6(v float64) *big.Int {
	r := new(big.Rat).SetFloat64(math.Abs(v))
	r.Mul(r, big.NewRat(1e6, 1))
	q, rem := new(big.Int).QuoRem(r.Num(), r.Denom(), new(big.Int))
	switch rem.Lsh(rem, 1).Cmp(r.Denom()) {
	case 1:
		q.Add(q, big.NewInt(1))
	case 0:
		if q.Bit(0) == 1 {
			q.Add(q, big.NewInt(1))
		}
	}
	return q
}

// checkFixed6 holds the merge key of a and b to the reference's strings:
// each key decodes to its value's "%.6f" rendering, and the keys are equal
// exactly when the renderings are.
func checkFixed6(t *testing.T, a, b float64) {
	t.Helper()
	ka, kb := appendFixed6(nil, a), appendFixed6(nil, b)
	sa, sb := fixed6Ref(a), fixed6Ref(b)
	if got := decodeFixed6(t, ka); got != sa {
		t.Fatalf("key of %v (bits %#x) decodes to %q, want %q", a, math.Float64bits(a), got, sa)
	}
	if got := decodeFixed6(t, kb); got != sb {
		t.Fatalf("key of %v (bits %#x) decodes to %q, want %q", b, math.Float64bits(b), got, sb)
	}
	if slices.Equal(ka, kb) != (sa == sb) {
		t.Fatalf("%v vs %v: keys equal %v, strings %q vs %q", a, b, slices.Equal(ka, kb), sa, sb)
	}
}

// fixed6Seeds are the boundary values of the key: ties at 1/128 steps,
// neighbours of x.xxxxxx5, signed zeros and values that round to zero,
// subnormals, NaN payloads, infinities, and the 2^43 escape, 9.2e12 and
// 2^53 boundaries.
func fixed6Seeds() [][2]float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	var s [][2]float64
	for k := 1; k <= 9; k += 2 {
		x := float64(k) / 128
		s = append(s, [2]float64{x, down(x)}, [2]float64{x, up(x)}, [2]float64{-x, x})
	}
	for _, x := range []float64{0.0000005, 1.2345675, 123.4567895, 2.5e-6, 0.0000015} {
		s = append(s, [2]float64{down(x), up(x)}, [2]float64{x, up(x)}, [2]float64{x, down(x)})
	}
	s = append(s,
		[2]float64{0, math.Copysign(0, -1)},
		[2]float64{math.Copysign(0, -1), -1e-9},
		[2]float64{0, 1e-9},
		[2]float64{0.1, 0.1 + 1e-12},
		[2]float64{5e-324, -5e-324},
		[2]float64{math.Float64frombits(0x000fffffffffffff), math.SmallestNonzeroFloat64},
		[2]float64{math.NaN(), math.Float64frombits(0xfff8000000000001)},
		[2]float64{math.Float64frombits(0x7ff0000000000001), math.Inf(1)},
		[2]float64{math.Inf(1), math.Inf(-1)},
		[2]float64{math.MaxFloat64, -math.MaxFloat64},
		[2]float64{1 << 43, down(1 << 43)},
		[2]float64{-(1 << 43), up(-(1 << 43))},
		[2]float64{9.2e12, up(9.2e12)},
		[2]float64{9223372036854.775, up(9223372036854.775)},
		[2]float64{1 << 53, up(1 << 53)},
		[2]float64{down(1 << 53), 1<<53 - 1},
	)
	return s
}

// TestFixed6KeyMatchesStrconv runs the key property over seeded random
// floats: uniform bit patterns, and decimals within a few ulps of a rounding
// boundary paired with their neighbours. (The boundary seeds run as
// FuzzFixed6Key's corpus.)
func TestFixed6KeyMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a := math.Float64frombits(rng.Uint64())
		checkFixed6(t, a, math.Float64frombits(rng.Uint64()))
		// A value on a rounding boundary x.xxxxxx5 at a random scale,
		// nudged a few ulps either way.
		x := (float64(rng.Int63n(1e9)) + 0.5) * math.Pow(10, float64(rng.Intn(14)-6)) / 1e6
		for n := rng.Intn(4); n > 0; n-- {
			x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
		}
		checkFixed6(t, x, math.Nextafter(x, math.Inf(1)))
		checkFixed6(t, x, -x)
	}
}

// FuzzFixed6Key: for any two floats, the merge keys are equal exactly when
// the reference's "%.6f" strings are, and each key decodes to its string.
func FuzzFixed6Key(f *testing.F) {
	for _, s := range fixed6Seeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b float64) {
		checkFixed6(t, a, b)
		checkFixed6(t, a, math.Nextafter(a, b))
	})
}
