package workload

import "javasim/internal/sim"

// Tape is an immutable, pre-generated unit sequence for one (spec, seed)
// pair — the warm-start snapshot of a workload's generation stream.
//
// Unit generation is the thread-count-invariant part of a run's warmup:
// generate ignores which thread is asking, so the k-th unit taken is a
// pure function of (spec, seed, k) at every thread count and offered
// rate. A tape captures that sequence once; every sweep point then
// replays it instead of re-deriving the same lognormal/Zipf draws, which
// profiling shows is still the single largest CPU component of a run
// (~30% of BenchmarkVMRun on a 2-vCPU Xeon VM, ~43% before the ziggurat
// normal). What a
// tape deliberately does NOT capture is simulated VM state (heap, TLABs,
// scheduler, pending events): those diverge between sweep points from
// the first event on, so any "fork" of them would not be bit-identical
// to a cold run. See docs/architecture.md.
//
// A tape is safe to share across concurrently executing runs: the unit
// records are read-only after Build (the VM never mutates ops), and each
// attached Run tracks its own replay position. End-of-tape RNG states
// are cloned per run on detach.
type Tape struct {
	spec  Spec
	seed  uint64
	units []Unit

	// Stream states at the moment the last unit was generated; a run
	// that exhausts the tape resumes live generation from clones of
	// these, making replay+overflow bit-identical to never replaying.
	endRng     *sim.Rand
	endSiteRng *sim.Rand
	endLockPop *sim.Zipf
}

// BuildTape generates the first n units of (spec, seed). n <= 0 defaults
// to spec.TotalUnits — a full closed-system run. Open-system runs may
// consume more than n units; replay then falls back to live generation
// seamlessly (see Run.AttachTape).
func BuildTape(spec Spec, seed uint64, n int) (*Tape, error) {
	r, err := NewRun(spec, 1, seed)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = spec.TotalUnits
	}
	units := make([]Unit, n)
	for i := range units {
		units[i] = r.generate(0)
	}
	t := &Tape{
		spec:       spec,
		seed:       seed,
		units:      units,
		endRng:     r.rng.Clone(),
		endSiteRng: r.siteRng.Clone(),
	}
	if r.lockPop != nil {
		t.endLockPop = r.lockPop.Clone()
	}
	return t, nil
}

// Len returns the number of pre-generated units.
func (t *Tape) Len() int { return len(t.units) }

// Seed returns the seed the tape was generated from.
func (t *Tape) Seed() uint64 { return t.seed }
