package variation

import (
	"math"
	"math/rand"

	"repro/internal/place"
	"repro/internal/tech"
)

// Sampler draws dies of one placement into reused buffers. Everything a
// seed cannot change is hoisted out of the per-die loop: the gate-centre
// coordinates come from the placement's cached structure-of-arrays form
// (computed once per placement, shared by every Sampler over it), and the
// generator state is re-seeded in place instead of reallocated, so a
// warmed-up SampleInto allocates nothing. The systematic-surface loop is
// restructured wave-major — each cosine wave sweeps all gates in
// branch-free passes — which keeps the wave constants in registers and
// performs the same additions in the same order per gate as a gate-major
// accumulation. Its per-gate cosine (cosExactInto) and alpha-power delay
// factor (tech.Process.DelayFactorDVth) return exactly the bits of
// math.Cos and math.Pow without their branches and special-case
// scaffolding, so the sampled population is the standard library's.
//
// A Sampler's geometry is immutable but its generator is not: one Sampler
// must not be used from more than one goroutine at a time. Concurrent
// population loops create one per worker with Clone, which shares the
// placement geometry and gives the worker a private generator (YieldStream
// does exactly that via its worker pool).
type Sampler struct {
	m    Model
	pl   *place.Placement
	proc *tech.Process
	// xs, ys are the placement's cached gate centres (SoA); shared across
	// Clones and never written.
	xs, ys []float64
	rng    *rand.Rand
}

// NewSampler builds a Sampler for the placement/process pair. The gate
// coordinates are the placement's cached SoA centres, so constructing more
// Samplers over one placement costs O(1) geometry work after the first.
func NewSampler(pl *place.Placement, proc *tech.Process, m Model) *Sampler {
	xs, ys := pl.Centers()
	return &Sampler{m: m, pl: pl, proc: proc, xs: xs, ys: ys, rng: rand.New(rand.NewSource(0))}
}

// Clone returns a Sampler sharing the immutable geometry with a private
// generator, the per-worker form of a shared Sampler.
func (s *Sampler) Clone() *Sampler {
	c := *s
	c.rng = rand.New(rand.NewSource(0))
	return &c
}

// Placement returns the placement being sampled.
func (s *Sampler) Placement() *place.Placement { return s.pl }

// grow sizes the die's per-gate slices for n gates, reusing capacity.
func (d *Die) grow(n int) {
	if cap(d.DVthV) < n {
		d.DVthV = make([]float64, n)
	}
	d.DVthV = d.DVthV[:n]
	if cap(d.DelayScale) < n {
		d.DelayScale = make([]float64, n)
	}
	d.DelayScale = d.DelayScale[:n]
}

// SampleInto draws the die of the given seed into die's reused buffers (nil
// allocates a fresh Die) and returns it. The sampled population is
// bit-identical to Model.Sample's: the generator is re-seeded exactly as a
// fresh rand.New(rand.NewSource(seed)) and every draw happens in the same
// order.
func (s *Sampler) SampleInto(die *Die, seed int64) *Die {
	if die == nil {
		die = &Die{}
	}
	n := len(s.pl.Design.Gates)
	die.Seed = seed
	die.grow(n)
	s.sampleRow(die.DVthV, die.DelayScale, seed)
	return die
}

// sampleRow draws one die's threshold shifts and delay scales into the given
// rows — the shared body of SampleInto and SampleBlockInto, so the scalar
// and block samplers cannot diverge. Both rows must have length NumGates.
func (s *Sampler) sampleRow(dv, dscale []float64, seed int64) {
	s.rng.Seed(seed)
	d2d := s.rng.NormFloat64() * s.m.SigmaD2DmV / 1000

	// Accumulate the systematic surface wave by wave directly into the
	// DVthV row. Each wave takes three branch-free sweeps: the phases
	// into the DelayScale row (scratch until the last loop fills it),
	// their cosines in place, and the weighted add into DVthV.
	clear(dv)
	if s.m.SigmaSysmV > 0 && s.m.CorrLenUM > 0 {
		const waves = 6
		amp := s.m.SigmaSysmV / 1000 * math.Sqrt(2/float64(waves))
		for i := 0; i < waves; i++ {
			theta := s.rng.Float64() * 2 * math.Pi
			lambda := s.m.CorrLenUM * (0.7 + 0.6*s.rng.Float64())
			kx := 2 * math.Pi / lambda * math.Cos(theta)
			ky := 2 * math.Pi / lambda * math.Sin(theta)
			phase := s.rng.Float64() * 2 * math.Pi
			for g, x := range s.xs {
				dscale[g] = kx*x + ky*s.ys[g] + phase
			}
			cosExactInto(dscale, dscale)
			for g, c := range dscale {
				dv[g] += amp * c
			}
		}
	}

	for g := range dv {
		dvth := d2d + dv[g] + s.rng.NormFloat64()*s.m.SigmaRndmV/1000
		dv[g] = dvth
		dscale[g] = s.proc.DelayFactorDVth(dvth)
	}
}

// AgedInto ages d into out's reused buffers (nil allocates a fresh Die; out
// == d ages in place) after NBTI-like aging: a t^0.16 threshold drift scaled
// by the activity factor, with 20% per-gate spread drawn from the die's own
// aging stream (the Sampler's generator re-seeded from the die seed), so the
// aged population is deterministic per die and costs zero allocations.
// years <= 0 copies d unaged.
func (s *Sampler) AgedInto(out, d *Die, years, activity float64) *Die {
	if years <= 0 {
		return d.copyInto(out)
	}
	s.rng.Seed(d.Seed ^ 0x5eed)
	if out == nil {
		out = &Die{}
	}
	drift := AgingDVthV(years, activity)
	out.Seed = d.Seed
	out.grow(len(d.DVthV))
	for g := range d.DVthV {
		out.DVthV[g] = d.DVthV[g] + drift*(1+0.2*s.rng.NormFloat64())
		out.DelayScale[g] = s.proc.DelayFactorDVth(out.DVthV[g])
	}
	return out
}

// copyInto copies d into out's buffers (nil allocates).
func (d *Die) copyInto(out *Die) *Die {
	if out == nil {
		out = &Die{}
	}
	if out == d {
		return out
	}
	out.Seed = d.Seed
	out.grow(len(d.DVthV))
	copy(out.DVthV, d.DVthV)
	copy(out.DelayScale, d.DelayScale)
	return out
}
