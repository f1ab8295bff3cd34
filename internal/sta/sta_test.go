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

// oneShot times pl at the given per-gate delay scales (nil: nominal) the
// one-shot way, the reference the Analyzer's reused buffers and fast paths
// are held to: a fresh Analyzer (a freshly built timing graph) and a fresh
// Timing.
func oneShot(pl *place.Placement, scale []float64) (*Timing, error) {
	an, err := NewAnalyzer(pl, Options{})
	if err != nil {
		return nil, err
	}
	return an.Run(scale, nil)
}

func placeDesign(t *testing.T, d *netlist.Design) *place.Placement {
	t.Helper()
	p, err := place.Place(d, cell.Default(), place.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyze(t *testing.T, d *netlist.Design) *Timing {
	t.Helper()
	tm, err := oneShot(placeDesign(t, d), nil)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestInverterChain(t *testing.T) {
	l := cell.Default()
	b := netlist.NewBuilder("chain", l)
	s := b.PI("a")
	const n = 10
	for i := 0; i < n; i++ {
		s = b.Not(s)
	}
	b.Output("y", s)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := analyze(t, d)

	// Dcrit equals the sum of all gate delays.
	sum := 0.0
	for _, gd := range tm.GateDelayPS {
		sum += gd
	}
	if math.Abs(tm.DcritPS-sum) > 1e-9 {
		t.Errorf("Dcrit = %f, want chain sum %f", tm.DcritPS, sum)
	}
	// One unique path containing all n gates.
	if len(tm.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(tm.Paths))
	}
	if len(tm.Paths[0].Gates) != n {
		t.Errorf("path length = %d, want %d", len(tm.Paths[0].Gates), n)
	}
	if tm.Paths[0].SlackPS != 0 {
		t.Errorf("critical path slack = %f, want 0", tm.Paths[0].SlackPS)
	}
}

func TestDiamondPicksLongerBranch(t *testing.T) {
	l := cell.Default()
	b := netlist.NewBuilder("diamond", l)
	a := b.PI("a")
	short := b.Not(a)
	long := b.Not(b.Not(b.Not(a)))
	b.Output("y", b.Nand(short, long))
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := analyze(t, d)
	cp := tm.CriticalPath()
	if len(cp.Gates) != 4 { // 3 inverters + NAND
		t.Errorf("critical path length = %d, want 4", len(cp.Gates))
	}
}

func TestSequentialBoundaries(t *testing.T) {
	// PI -> INV -> DFF -> INV -> PO. Two paths: one ending at the D pin
	// (with setup), one starting at the FF (clk-to-q).
	l := cell.Default()
	b := netlist.NewBuilder("seq", l)
	a := b.PI("a")
	x := b.Not(a)
	q := b.DFF(x)
	y := b.Not(q)
	b.Output("y", y)
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tm := analyze(t, d)

	dff := l.MustCell("DFF_X1")
	// Path 1: INV(x) + setup.
	want1 := tm.GateDelayPS[x.Idx] + dff.SetupPS
	// Path 2: DFF clk-to-q + INV(y).
	want2 := tm.GateDelayPS[q.Idx] + tm.GateDelayPS[y.Idx]
	if len(tm.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(tm.Paths))
	}
	got := map[int]float64{}
	for _, p := range tm.Paths {
		got[len(p.Gates)] = p.DelayPS
	}
	// Path 1 has 1 gate (the input inverter), path 2 has 2 (FF + inverter).
	if math.Abs(got[1]-want1) > 1e-9 {
		t.Errorf("D-pin path delay = %f, want %f", got[1], want1)
	}
	if math.Abs(got[2]-want2) > 1e-9 {
		t.Errorf("clk-to-q path delay = %f, want %f", got[2], want2)
	}
}

func TestPathsAreConnectedChains(t *testing.T) {
	l := cell.Default()
	d, err := gen.Build("c3540", l)
	if err != nil {
		t.Fatal(err)
	}
	tm := analyze(t, d)
	for _, p := range tm.Paths {
		for i := 0; i+1 < len(p.Gates); i++ {
			drv, snk := p.Gates[i], p.Gates[i+1]
			found := false
			for _, in := range d.Gates[snk].Ins {
				if in.Kind == netlist.SigGate && in.Idx == drv {
					found = true
				}
			}
			if !found {
				t.Fatalf("path gates %d -> %d not connected", drv, snk)
			}
		}
	}
}

func TestPathInvariants(t *testing.T) {
	l := cell.Default()
	for _, name := range []string{"c1355", "c5315", "c6288"} {
		d, err := gen.Build(name, l)
		if err != nil {
			t.Fatal(err)
		}
		tm := analyze(t, d)
		if tm.DcritPS <= 0 {
			t.Fatalf("%s: non-positive Dcrit", name)
		}
		seen := map[string]bool{}
		for i, p := range tm.Paths {
			if p.DelayPS > tm.DcritPS+1e-9 {
				t.Errorf("%s: path %d longer than Dcrit", name, i)
			}
			if p.SlackPS < -1e-9 {
				t.Errorf("%s: negative slack %f at nominal corner", name, p.SlackPS)
			}
			if i > 0 && p.DelayPS > tm.Paths[i-1].DelayPS+1e-9 {
				t.Errorf("%s: paths not sorted", name)
			}
			k := ""
			for _, g := range p.Gates {
				k += string(rune(g)) + ","
			}
			if seen[k] {
				t.Errorf("%s: duplicate path", name)
			}
			seen[k] = true
		}
		// The critical path must be among the extracted ones and achieve
		// slack zero.
		if tm.Paths[0].SlackPS != 0 {
			t.Errorf("%s: no zero-slack path", name)
		}
		t.Logf("%-8s Dcrit=%.0fps paths=%d", name, tm.DcritPS, len(tm.Paths))
	}
}

// TestAgainstBruteForce compares Dcrit with an exhaustive DFS longest-path
// search on small random DAGs.
func TestAgainstBruteForce(t *testing.T) {
	l := cell.Default()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		b := netlist.NewBuilder("rand", l)
		nPI := 3 + rng.Intn(3)
		pool := make([]netlist.Signal, 0, 40)
		for i := 0; i < nPI; i++ {
			pool = append(pool, b.PI("p"+string(rune('0'+i))))
		}
		nG := 5 + rng.Intn(20)
		for i := 0; i < nG; i++ {
			x := pool[rng.Intn(len(pool))]
			y := pool[rng.Intn(len(pool))]
			var s netlist.Signal
			switch rng.Intn(3) {
			case 0:
				s = b.Nand(x, y)
			case 1:
				s = b.Nor(x, y)
			default:
				s = b.Not(x)
			}
			pool = append(pool, s)
		}
		// Expose everything as POs so nothing dangles ambiguously.
		for i, s := range pool[nPI:] {
			b.Output("o"+string(rune('a'+i%26))+string(rune('0'+i/26)), s)
		}
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pl := placeDesign(t, d)
		tm, err := oneShot(pl, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Brute force longest endpoint arrival via memoized DFS.
		memo := make([]float64, len(d.Gates))
		for i := range memo {
			memo[i] = -1
		}
		var longest func(g netlist.GateID) float64
		longest = func(g netlist.GateID) float64 {
			if memo[g] >= 0 {
				return memo[g]
			}
			best := 0.0
			for _, in := range d.Gates[g].Ins {
				if in.Kind == netlist.SigGate {
					if v := longest(in.Idx); v > best {
						best = v
					}
				}
			}
			memo[g] = best + tm.GateDelayPS[g]
			return memo[g]
		}
		want := 0.0
		for g := range d.Gates {
			if v := longest(netlist.GateID(g)); v > want {
				want = v
			}
		}
		if math.Abs(want-tm.DcritPS) > 1e-6 {
			t.Fatalf("trial %d: Dcrit=%f, brute force %f", trial, tm.DcritPS, want)
		}
	}
}

func TestFanoutLoadIncreasesDelay(t *testing.T) {
	l := cell.Default()
	build := func(fan int) *netlist.Design {
		b := netlist.NewBuilder("fan", l)
		a := b.PI("a")
		x := b.Not(a)
		for i := 0; i < fan; i++ {
			b.Output("y"+string(rune('0'+i)), b.Not(x))
		}
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tm1 := analyze(t, build(1))
	tm8 := analyze(t, build(8))
	if tm8.GateDelayPS[0] <= tm1.GateDelayPS[0] {
		t.Errorf("8-fanout driver delay %f not above 1-fanout %f",
			tm8.GateDelayPS[0], tm1.GateDelayPS[0])
	}
}

func TestDelayScale(t *testing.T) {
	l := cell.Default()
	d, err := gen.Build("c1355", l)
	if err != nil {
		t.Fatal(err)
	}
	pl := placeDesign(t, d)
	base, err := oneShot(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	scale := make([]float64, len(d.Gates))
	for i := range scale {
		scale[i] = 1.1
	}
	slow, err := oneShot(pl, scale)
	if err != nil {
		t.Fatal(err)
	}
	// Dcrit scales by 1.1 up to the (unscaled) FF setup contribution.
	ratio := slow.DcritPS / base.DcritPS
	if ratio < 1.09 || ratio > 1.11 {
		t.Errorf("uniform 1.1 scaling changed Dcrit by %f", ratio)
	}
	if _, err := oneShot(pl, scale[:3]); err == nil {
		t.Error("bad DelayScale length accepted")
	}
}

func TestMultiplierHasManyNearCriticalPaths(t *testing.T) {
	// The c6288 class is the paper's stress case: its constraint count
	// (Table 1, No.Constr) is an order of magnitude above the others.
	l := cell.Default()
	mult := analyze(t, mustGen(t, l, "c6288"))
	ecc := analyze(t, mustGen(t, l, "c1355"))
	nearCritical := func(tm *Timing, frac float64) int {
		n := 0
		for _, p := range tm.Paths {
			if p.DelayPS >= tm.DcritPS*(1-frac) {
				n++
			}
		}
		return n
	}
	m, e := nearCritical(mult, 0.05), nearCritical(ecc, 0.05)
	t.Logf("paths within 5%% of critical: c6288=%d c1355=%d", m, e)
	if m < 3*e {
		t.Errorf("multiplier near-critical path count %d not >> ECC's %d", m, e)
	}
}

func mustGen(t *testing.T, l *cell.Library, name string) *netlist.Design {
	t.Helper()
	d, err := gen.Build(name, l)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
