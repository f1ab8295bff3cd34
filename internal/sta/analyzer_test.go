package sta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/place"
)

// randomPlacement builds and places a random DAG (with a sprinkling of
// flip-flops so sequential endpoints are exercised) deterministically from
// seed.
func randomPlacement(tb testing.TB, seed int64) *place.Placement {
	tb.Helper()
	l := cell.Default()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder("rand", l)
	nPI := 2 + rng.Intn(4)
	pool := make([]netlist.Signal, 0, 64)
	for i := 0; i < nPI; i++ {
		pool = append(pool, b.PI("p"+string(rune('0'+i))))
	}
	nG := 8 + rng.Intn(40)
	for i := 0; i < nG; i++ {
		x := pool[rng.Intn(len(pool))]
		y := pool[rng.Intn(len(pool))]
		var s netlist.Signal
		switch rng.Intn(5) {
		case 0:
			s = b.Nand(x, y)
		case 1:
			s = b.Nor(x, y)
		case 2:
			s = b.DFF(x)
		default:
			s = b.Not(x)
		}
		pool = append(pool, s)
	}
	for i, s := range pool[nPI:] {
		if rng.Intn(3) == 0 || i == len(pool)-nPI-1 {
			b.Output("o"+string(rune('a'+i%26))+string(rune('0'+i/26)), s)
		}
	}
	d, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := place.Place(d, l, place.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return pl
}

// randomScale draws a per-gate delay-scale vector; returns nil (the nominal
// corner) roughly one time in four.
func randomScale(rng *rand.Rand, n int) []float64 {
	if rng.Intn(4) == 0 {
		return nil
	}
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.8 + 0.5*rng.Float64()
	}
	return s
}

// requireTimingEqual asserts two Timings are identical in every output
// field, exact to the bit: both sides compute the same float operations in
// the same order, so any drift is a real divergence.
func requireTimingEqual(tb testing.TB, want, got *Timing, label string) {
	tb.Helper()
	if want.DcritPS != got.DcritPS {
		tb.Fatalf("%s: Dcrit %v != %v", label, got.DcritPS, want.DcritPS)
	}
	eqF := func(name string, a, b []float64) {
		tb.Helper()
		if len(a) != len(b) {
			tb.Fatalf("%s: %s length %d != %d", label, name, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				tb.Fatalf("%s: %s[%d] = %v, want %v", label, name, i, b[i], a[i])
			}
		}
	}
	eqF("GateDelayPS", want.GateDelayPS, got.GateDelayPS)
	eqF("ArrPS", want.ArrPS, got.ArrPS)
	eqF("TailPS", want.TailPS, got.TailPS)
	if len(want.Paths) != len(got.Paths) {
		tb.Fatalf("%s: %d paths, want %d", label, len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		w, g := want.Paths[i], got.Paths[i]
		if w.DelayPS != g.DelayPS || w.SlackPS != g.SlackPS {
			tb.Fatalf("%s: path %d delay/slack (%v, %v), want (%v, %v)",
				label, i, g.DelayPS, g.SlackPS, w.DelayPS, w.SlackPS)
		}
		if len(w.Gates) != len(g.Gates) {
			tb.Fatalf("%s: path %d has %d gates, want %d", label, i, len(g.Gates), len(w.Gates))
		}
		for k := range w.Gates {
			if w.Gates[k] != g.Gates[k] {
				tb.Fatalf("%s: path %d gate %d = %d, want %d", label, i, k, g.Gates[k], w.Gates[k])
			}
		}
	}
}

// TestAnalyzerMatchesAnalyze is the differential harness of the batched STA
// path: across random placements and random DelayScale vectors, a shared
// Analyzer re-running into one dirty, continually reused Timing buffer must
// reproduce a from-scratch one-shot run (oneShot) exactly.
func TestAnalyzerMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	buf := &Timing{} // deliberately reused — and dirtied — across everything
	for trial := 0; trial < 30; trial++ {
		pl := randomPlacement(t, int64(trial))
		an, err := NewAnalyzer(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.NumGates() != len(pl.Design.Gates) {
			t.Fatalf("NumGates() = %d, want %d", an.NumGates(), len(pl.Design.Gates))
		}
		for round := 0; round < 4; round++ {
			scale := randomScale(rng, len(pl.Design.Gates))
			want, err := oneShot(pl, scale)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Run(scale, buf)
			if err != nil {
				t.Fatal(err)
			}
			if got != buf {
				t.Fatal("Run did not return the provided buffer")
			}
			requireTimingEqual(t, want, got, "random trial")
		}
	}
}

// TestAnalyzerMatchesAnalyzeOnBenchmarks runs the same differential check
// on real generated benchmarks, where path sets are deep and heavily
// shared.
func TestAnalyzerMatchesAnalyzeOnBenchmarks(t *testing.T) {
	l := cell.Default()
	rng := rand.New(rand.NewSource(7))
	buf := &Timing{}
	names := []string{"c1355", "c3540"}
	if !testing.Short() {
		names = append(names, "c6288")
	}
	for _, name := range names {
		d, err := gen.Build(name, l)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := place.Place(d, l, place.Options{})
		if err != nil {
			t.Fatal(err)
		}
		an, err := NewAnalyzer(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			scale := randomScale(rng, len(d.Gates))
			want, err := oneShot(pl, scale)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Run(scale, buf)
			if err != nil {
				t.Fatal(err)
			}
			requireTimingEqual(t, want, got, name)
		}
	}
}

// TestAnalyzerRunValidation pins the error contract of the batched path.
func TestAnalyzerRunValidation(t *testing.T) {
	pl := randomPlacement(t, 1)
	an, err := NewAnalyzer(pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Run(make([]float64, an.NumGates()+1), nil); err == nil {
		t.Error("bad DelayScale length accepted")
	}
	// A nil buffer allocates a fresh Timing per call.
	a, err := an.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := an.Run(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("nil-buffer Runs returned the same Timing")
	}
	requireTimingEqual(t, a, b, "repeat nominal")
}

// TestAnalyzerBufferCrossesDesigns reuses one Timing buffer across
// analyzers of different designs and sizes — buffers carry capacity, never
// stale content.
func TestAnalyzerBufferCrossesDesigns(t *testing.T) {
	buf := &Timing{}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		pl := randomPlacement(t, int64(100+trial))
		an, err := NewAnalyzer(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scale := randomScale(rng, len(pl.Design.Gates))
		want, err := oneShot(pl, scale)
		if err != nil {
			t.Fatal(err)
		}
		got, err := an.Run(scale, buf)
		if err != nil {
			t.Fatal(err)
		}
		requireTimingEqual(t, want, got, "cross-design reuse")
	}
}

// FuzzAnalyzerRun fuzzes the differential property: for any (design seed,
// scale seed, scale spread), a reused-buffer Analyzer.Run equals a fresh
// one-shot run.
func FuzzAnalyzerRun(f *testing.F) {
	f.Add(int64(1), int64(1), 0.3)
	f.Add(int64(2), int64(7), 0.0)
	f.Add(int64(42), int64(99), 0.9)
	f.Add(int64(-5), int64(0), 0.5)
	f.Add(int64(12345), int64(-8), 0.05)
	f.Fuzz(func(t *testing.T, designSeed, scaleSeed int64, spread float64) {
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			t.Skip("degenerate spread")
		}
		spread = math.Abs(spread)
		if spread > 0.95 {
			spread = math.Mod(spread, 0.95)
		}
		pl := randomPlacement(t, designSeed)
		an, err := NewAnalyzer(pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(scaleSeed))
		buf := &Timing{}
		for round := 0; round < 3; round++ {
			var scale []float64
			if round > 0 { // round 0 checks the nominal corner
				scale = make([]float64, an.NumGates())
				for i := range scale {
					scale[i] = 1 - spread + 2*spread*rng.Float64()
				}
			}
			want, err := oneShot(pl, scale)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an.Run(scale, buf)
			if err != nil {
				t.Fatal(err)
			}
			requireTimingEqual(t, want, got, "fuzz")
		}
	})
}
