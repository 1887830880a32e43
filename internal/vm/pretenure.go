package vm

import (
	"javasim/internal/objmodel"
	"javasim/internal/workload"
)

// Allocation-site pretenuring (Config.Pretenuring) — the classic JVM
// mitigation for exactly the problem the paper identifies: long-lived
// objects defeating the generational hypothesis. The learner watches each
// allocation site's observed lifetimes online; once a site is confidently
// long-lived, its objects are allocated directly in the old generation,
// skipping the nursery and the survivor copying that inflates minor
// pauses at high thread counts.

// pretenureMinSamples is the evidence required before a site's verdict is
// trusted.
const pretenureMinSamples = 64

// pretenureThreshold is the long-lived fraction above which a site is
// pretenured.
const pretenureThreshold = 0.6

type siteStats struct {
	samples   int64
	longLived int64
}

type pretenurer struct {
	enabled bool
	sites   [workload.NumAllocSites]siteStats
	// longLifespan is the lifespan (bytes) above which a death counts as
	// long-lived; the VM sets it to the eden size — an object outliving
	// one nursery cycle would have been copied.
	longLifespan int64
	// siteOf maps a registry slot to the allocation site of the object
	// in it; a reused slot's entry is overwritten at allocation.
	siteOf []int32
	// pretenured counts objects allocated straight to the old generation.
	pretenured int64
}

// recordAlloc remembers the object's site.
func (p *pretenurer) recordAlloc(id objmodel.ID, site int32) {
	for int(id) >= len(p.siteOf) {
		p.siteOf = append(p.siteOf, -1)
	}
	p.siteOf[id] = site
}

// site returns the recorded site of an object, or -1.
func (p *pretenurer) site(id objmodel.ID) int32 {
	if int(id) >= len(p.siteOf) {
		return -1
	}
	return p.siteOf[id]
}

// onDeath feeds the learner one completed lifetime.
func (p *pretenurer) onDeath(id objmodel.ID, lifespan int64) {
	site := p.site(id)
	if site < 0 {
		return
	}
	s := &p.sites[site]
	s.samples++
	if lifespan >= p.longLifespan {
		s.longLived++
	}
}

// onPromote feeds the learner a promotion — the strongest pre-death
// long-lived signal.
func (p *pretenurer) onPromote(id objmodel.ID) {
	site := p.site(id)
	if site < 0 {
		return
	}
	s := &p.sites[site]
	s.samples++
	s.longLived++
}

// shouldPretenure reports whether new allocations at site belong in the
// old generation.
func (p *pretenurer) shouldPretenure(site int32) bool {
	if !p.enabled || site < 0 {
		return false
	}
	s := &p.sites[site]
	return s.samples >= pretenureMinSamples &&
		float64(s.longLived) >= pretenureThreshold*float64(s.samples)
}
