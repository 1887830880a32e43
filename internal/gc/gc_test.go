package gc

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
)

func newWorld(minHeapMB int64, compartments int) (*heap.Heap, *objmodel.Registry, *Collector) {
	h := heap.New(heap.Config{
		MinHeap: minHeapMB << 20, Factor: 3, TLABSize: 16 << 10,
		Compartments: compartments,
	})
	reg := objmodel.NewRegistry()
	return h, reg, mustNew(nil, Config{Workers: 4}, h, reg)
}

// mustNew is NewWithPolicy for configurations known to be valid.
func mustNew(p Policy, cfg Config, h *heap.Heap, reg *objmodel.Registry) *Collector {
	c, err := NewWithPolicy(p, cfg, h, reg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestDefaultWorkers(t *testing.T) {
	cases := []struct{ cores, want int }{
		{0, 1}, {1, 1}, {4, 4}, {8, 8}, {16, 13}, {48, 33},
	}
	for _, c := range cases {
		if got := DefaultWorkers(c.cores); got != c.want {
			t.Errorf("DefaultWorkers(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
}

func TestMinorReclaimsDead(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	var ids []objmodel.ID
	for i := 0; i < 100; i++ {
		id := reg.Alloc(512, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	// Kill the first 60.
	for _, id := range ids[:60] {
		reg.Kill(id)
	}
	p, err := c.CollectMinor(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReclaimedObjs != 60 {
		t.Errorf("reclaimed %d, want 60", p.ReclaimedObjs)
	}
	if p.ScannedLive != 40 {
		t.Errorf("scanned %d, want 40", p.ScannedLive)
	}
	if p.CopiedBytes != 40*512 {
		t.Errorf("copied %d, want %d", p.CopiedBytes, 40*512)
	}
	if c.YoungCount(0) != 40 {
		t.Errorf("young population %d after GC, want 40", c.YoungCount(0))
	}
	if p.Duration <= 0 {
		t.Error("non-positive pause duration")
	}
}

func TestAgingAndPromotion(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	id := reg.Alloc(1000, 0)
	c.OnAlloc(id, 0)
	threshold := int(c.Config().TenuringThreshold)
	// The object stays young until it has survived threshold collections.
	for i := 0; i < threshold-1; i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
		if got := reg.Get(id).Gen; got != objmodel.Young {
			t.Fatalf("promoted after %d collections, want %d", i+1, threshold)
		}
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Get(id).Gen != objmodel.Old {
		t.Error("object not promoted at tenuring threshold")
	}
	if p.PromotedBytes != 1000 {
		t.Errorf("promoted bytes %d, want 1000", p.PromotedBytes)
	}
	if c.OldCount() != 1 || c.YoungCount(0) != 0 {
		t.Errorf("populations young=%d old=%d", c.YoungCount(0), c.OldCount())
	}
}

func TestSurvivorOverflowPromotes(t *testing.T) {
	h, reg, c := newWorld(1, 1) // tiny heap: survivor space is small
	cap := h.SurvivorSize()
	// Allocate live objects totalling 3x survivor capacity.
	objSize := int32(1024)
	n := int(3 * cap / int64(objSize))
	for i := 0; i < n; i++ {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.PromotedBytes == 0 {
		t.Error("no overflow promotion despite survivor pressure")
	}
	if p.CopiedBytes > cap {
		t.Errorf("survivor bytes %d exceed capacity %d", p.CopiedBytes, cap)
	}
}

func TestFullCollection(t *testing.T) {
	_, reg, c := newWorld(4, 1)
	// Build an old population: allocate, survive to promotion via repeated
	// minors.
	var ids []objmodel.ID
	for i := 0; i < 50; i++ {
		id := reg.Alloc(2048, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.OldCount() != 50 {
		t.Fatalf("old population %d, want 50", c.OldCount())
	}
	// Kill half the old objects, plus allocate some fresh young ones.
	for _, id := range ids[:25] {
		reg.Kill(id)
	}
	young := reg.Alloc(512, 0)
	c.OnAlloc(young, 0)
	p, err := c.CollectFull(5000)
	if err != nil {
		t.Fatal(err)
	}
	if p.ReclaimedObjs != 25 {
		t.Errorf("full reclaimed %d, want 25", p.ReclaimedObjs)
	}
	// Young survivor was promoted by the full collection.
	if reg.Get(young).Gen != objmodel.Old {
		t.Error("live young object not promoted by full collection")
	}
	if c.YoungCount(0) != 0 {
		t.Error("young population not emptied by full collection")
	}
	if c.OldCount() != 26 {
		t.Errorf("old population %d, want 26", c.OldCount())
	}
	if p.Kind != Full || p.Compartment != -1 {
		t.Errorf("pause metadata %+v", p)
	}
}

// youngState captures a compartment's young list with each member's age
// and generation.
type youngState struct {
	ids  []objmodel.ID
	age  []uint8
	gens []objmodel.Generation
}

func captureYoung(c *Collector, comp int) youngState {
	var st youngState
	for _, id := range c.young[comp] {
		o := c.reg.Get(id)
		st.ids = append(st.ids, id)
		st.age = append(st.age, o.Age)
		st.gens = append(st.gens, o.Gen)
	}
	return st
}

// TestMinorRollbackOnOldGenFull pins CollectMinor's failure contract
// under the double-buffered young lists: after ErrOldGenFull the young
// list, ages and generations equal their pre-collection values — when
// the survivors went into a spare array recycled from an earlier
// collection, and again on a retry that fails the same way. A retry that
// then fits produces exactly the collection of a collector that never
// failed.
func TestMinorRollbackOnOldGenFull(t *testing.T) {
	// build gives two identical worlds: a prior successful minor leaves
	// the spare buffer holding a recycled array, then a live batch larger
	// than the old generation is allocated on top of mixed-age survivors.
	build := func() (*heap.Heap, *objmodel.Registry, *Collector, []objmodel.ID) {
		h, reg, c := newWorld(1, 1)
		for i := 0; i < 64; i++ {
			id := reg.Alloc(512, 0)
			c.OnAlloc(id, 0)
			if i%3 == 0 {
				reg.Kill(id)
			}
		}
		if _, err := c.CollectMinor(0, 0); err != nil {
			t.Fatal(err)
		}
		if cap(c.spare[0]) == 0 {
			t.Fatal("first minor left no spare young array to recycle")
		}
		var batch []objmodel.ID
		for n := int64(0); n < h.OldSize()+h.SurvivorSize(); n += 4096 {
			id := reg.Alloc(4096, 0)
			c.OnAlloc(id, 0)
			batch = append(batch, id)
		}
		return h, reg, c, batch
	}

	_, reg, c, batch := build()
	before := captureYoung(c, 0)
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := c.CollectMinor(0, 0); !errors.Is(err, heap.ErrOldGenFull) {
			t.Fatalf("attempt %d: err = %v, want ErrOldGenFull", attempt, err)
		}
		if after := captureYoung(c, 0); !reflect.DeepEqual(after, before) {
			t.Fatalf("attempt %d: young state changed by a failed minor collection", attempt)
		}
	}

	// Free half the batch so the promotion fits, and retry against a twin
	// world that never failed.
	_, twinReg, twin, twinBatch := build()
	for i := 0; i < len(batch); i += 2 {
		reg.Kill(batch[i])
		twinReg.Kill(twinBatch[i])
	}
	got, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	want, err := twin.CollectMinor(0, 0)
	if err != nil {
		t.Fatalf("twin: %v", err)
	}
	if got != want {
		t.Errorf("retry pause %+v, want %+v", got, want)
	}
	if a, b := captureYoung(c, 0), captureYoung(twin, 0); !reflect.DeepEqual(a, b) {
		t.Error("young state after the retry differs from a collector that never failed")
	}
	if !reflect.DeepEqual(c.old, twin.old) {
		t.Error("old generation after the retry differs from a collector that never failed")
	}
}

func TestOldGenFullError(t *testing.T) {
	h, reg, c := newWorld(1, 1)
	// Fill old gen nearly to capacity via forced promotion, then check a
	// minor that cannot promote returns ErrOldGenFull.
	objSize := int32(4096)
	budget := h.OldSize() - h.OldSize()/16
	var allocated int64
	for allocated < budget {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
		allocated += int64(objSize)
		// Tenure fast: age objects by repeated collection every batch.
		if allocated%(budget/4) < int64(objSize) {
			for i := 0; i < 4; i++ {
				if _, err := c.CollectMinor(0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Now add another survivor-overflowing batch of live objects.
	extra := h.SurvivorSize()*2/int64(objSize) + h.OldSize()/16/int64(objSize) + 2
	for i := int64(0); i < extra; i++ {
		id := reg.Alloc(objSize, 0)
		c.OnAlloc(id, 0)
	}
	_, err := c.CollectMinor(0, 0)
	if !errors.Is(err, heap.ErrOldGenFull) {
		t.Fatalf("err = %v, want ErrOldGenFull", err)
	}
	// After a full collection (everything is live, so this may itself be
	// tight), dead space must be reclaimed. Kill everything and verify
	// recovery.
	reg.KillAllLive()
	if _, err := c.CollectFull(0); err != nil {
		t.Fatal(err)
	}
	if h.OldUsed() != 0 {
		t.Errorf("old gen %d bytes after collecting all-dead heap", h.OldUsed())
	}
	if _, err := c.CollectMinor(0, 0); err != nil {
		t.Errorf("minor after recovery failed: %v", err)
	}
}

func TestPauseCostScalesWithSurvivors(t *testing.T) {
	_, regA, cA := newWorld(64, 1)
	_, regB, cB := newWorld(64, 1)
	// A: 1000 dead objects. B: 1000 live objects (more copying).
	for i := 0; i < 1000; i++ {
		idA := regA.Alloc(1024, 0)
		cA.OnAlloc(idA, 0)
		regA.Kill(idA)
		idB := regB.Alloc(1024, 0)
		cB.OnAlloc(idB, 0)
	}
	pA, err := cA.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := cB.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pB.Duration <= pA.Duration {
		t.Errorf("live-heavy pause %v not longer than dead-heavy pause %v",
			pB.Duration, pA.Duration)
	}
}

func TestMoreWorkersShortenPauses(t *testing.T) {
	mk := func(workers int) Pause {
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := mustNew(nil, Config{Workers: workers}, h, reg)
		for i := 0; i < 2000; i++ {
			id := reg.Alloc(1024, 0)
			c.OnAlloc(id, 0)
		}
		p, err := c.CollectMinor(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p8 := mk(1), mk(8)
	if p8.Duration >= p1.Duration {
		t.Errorf("8 workers (%v) not faster than 1 worker (%v)", p8.Duration, p1.Duration)
	}
	// But not linearly: the efficiency curve must cost something.
	ideal := p1.Duration / 8
	if p8.Duration <= ideal {
		t.Errorf("8 workers (%v) faster than ideal linear (%v) — efficiency model missing", p8.Duration, ideal)
	}
}

func TestCompartmentLocalCollection(t *testing.T) {
	_, reg, c := newWorld(16, 4)
	// Populate two compartments.
	a := reg.Alloc(1024, 0)
	c.OnAlloc(a, 0)
	b := reg.Alloc(1024, 1)
	c.OnAlloc(b, 1)
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Compartment != 0 {
		t.Errorf("pause compartment = %d", p.Compartment)
	}
	// Compartment 1's object must be untouched: age 0, still young-listed.
	if reg.Get(b).Age != 0 {
		t.Error("compartment-local collection aged a foreign object")
	}
	if c.YoungCount(1) != 1 {
		t.Error("compartment 1 population disturbed")
	}
	if reg.Get(a).Age != 1 {
		t.Error("collected compartment's object not aged")
	}
}

func TestPauseBreakdown(t *testing.T) {
	_, reg, c := newWorld(8, 1)
	for i := 0; i < 500; i++ {
		id := reg.Alloc(1024, 0)
		c.OnAlloc(id, 0)
	}
	p, err := c.CollectMinor(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Phases.Total() != p.Duration {
		t.Errorf("phase sum %v != duration %v", p.Phases.Total(), p.Duration)
	}
	if p.Phases.Setup != c.Config().FixedMinorPause {
		t.Errorf("setup phase %v, want fixed pause", p.Phases.Setup)
	}
	if p.Phases.Copy <= 0 || p.Phases.Scan <= 0 {
		t.Errorf("degenerate phases %+v with live survivors", p.Phases)
	}
	fp, err := c.CollectFull(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Phases.Total() != fp.Duration {
		t.Errorf("full phase sum %v != duration %v", fp.Phases.Total(), fp.Duration)
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, reg, c := newWorld(8, 1)
	for i := 0; i < 10; i++ {
		id := reg.Alloc(256, 0)
		c.OnAlloc(id, 0)
	}
	c.CollectMinor(0, 0)
	c.CollectFull(0)
	st := c.Stats()
	if st.MinorCount != 1 || st.FullCount != 1 {
		t.Errorf("counts %d/%d, want 1/1", st.MinorCount, st.FullCount)
	}
	if st.TotalTime() != st.MinorTime+st.FullTime {
		t.Error("TotalTime inconsistent")
	}
	if len(c.Pauses()) != 2 {
		t.Errorf("pauses %d, want 2", len(c.Pauses()))
	}
	if c.PauseHistogram().Total() != 2 {
		t.Error("pause histogram not fed")
	}
}

// A worker count below one is a configuration error, not a panic: the VM
// passes it through to its caller.
func TestNewRejectsMissingWorkers(t *testing.T) {
	h := heap.New(heap.Config{MinHeap: 1 << 20})
	for _, workers := range []int{0, -2} {
		if c, err := New(Config{Workers: workers}, h, objmodel.NewRegistry()); err == nil || c != nil {
			t.Errorf("New with Workers=%d: collector %v, err %v; want an error", workers, c, err)
		}
		if _, err := NewWithPolicy(nil, Config{Workers: workers}, h, objmodel.NewRegistry()); err == nil {
			t.Errorf("NewWithPolicy with Workers=%d: no error", workers)
		}
	}
}

// Collections release exactly the registry slots of the dead objects they
// reclaim, and only once their heap commit succeeds: a minor collection
// that fails with ErrOldGenFull releases nothing, so its retry and the
// full collection still find every dead object in place.
func TestCollectionsReleaseReclaimedSlots(t *testing.T) {
	freed := func(reg *objmodel.Registry, ids []objmodel.ID) (n int) {
		for _, id := range ids {
			if reg.Get(id).Size == 0 {
				n++
			}
		}
		return n
	}
	slots := func(ids []objmodel.ID) map[objmodel.ID]bool {
		m := map[objmodel.ID]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}

	// Minor: the dead young objects' slots are freed and are the next
	// ones Alloc hands out.
	_, reg, c := newWorld(4, 1)
	var ids []objmodel.ID
	for i := 0; i < 100; i++ {
		id := reg.Alloc(512, 0)
		c.OnAlloc(id, 0)
		ids = append(ids, id)
	}
	for _, id := range ids[:60] {
		reg.Kill(id)
	}
	if _, err := c.CollectMinor(0, 0); err != nil {
		t.Fatal(err)
	}
	if n := freed(reg, ids[:60]); n != 60 {
		t.Errorf("minor freed %d of 60 dead slots", n)
	}
	if n := freed(reg, ids[60:]); n != 0 {
		t.Errorf("minor freed %d live slots", n)
	}
	dead := slots(ids[:60])
	for i := 0; i < 60; i++ {
		if id := reg.Alloc(64, 0); !dead[id] {
			t.Fatalf("Alloc %d after the minor opened slot %d instead of reusing one", i, id)
		}
	}
	if reg.Count() != 160 {
		t.Errorf("Count = %d, want 160", reg.Count())
	}

	// A failed minor frees nothing; the full collection that follows
	// frees both generations' dead objects.
	h, reg, c := newWorld(1, 1)
	var young []objmodel.ID
	for i := 0; i < 8; i++ {
		id := reg.Alloc(512, 0)
		c.OnAlloc(id, 0)
		reg.Kill(id)
		young = append(young, id)
	}
	var batch []objmodel.ID
	for n := int64(0); n < h.OldSize()+h.SurvivorSize(); n += 4096 {
		id := reg.Alloc(4096, 0)
		c.OnAlloc(id, 0)
		batch = append(batch, id)
	}
	if _, err := c.CollectMinor(0, 0); !errors.Is(err, heap.ErrOldGenFull) {
		t.Fatalf("err = %v, want ErrOldGenFull", err)
	}
	if n := freed(reg, young); n != 0 {
		t.Fatalf("failed minor freed %d dead slots", n)
	}
	if id := reg.Alloc(64, 0); slots(young)[id] {
		t.Fatalf("Alloc after a failed minor reused dead slot %d", id)
	}
	for i := 0; i < len(batch); i += 2 {
		reg.Kill(batch[i])
	}
	p, err := c.CollectFull(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := freed(reg, young); n != len(young) {
		t.Errorf("full collection freed %d of %d dead young slots", n, len(young))
	}
	var deadBatch []objmodel.ID
	for i := 0; i < len(batch); i += 2 {
		deadBatch = append(deadBatch, batch[i])
	}
	if n := freed(reg, deadBatch); n != len(deadBatch) || p.ReclaimedObjs != int64(len(young)+len(deadBatch)) {
		t.Errorf("full collection freed %d of %d dead batch slots, reclaimed %d",
			n, len(deadBatch), p.ReclaimedObjs)
	}
}

// Property: across random alloc/kill/collect sequences, the collector
// never loses a live object and never resurrects a dead one — the young and
// old populations always partition the live set after each collection
// round, and heap accounting matches registry truth.
func TestLivenessPartitionProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		h, reg, c := newWorld(32, 1)
		var live []objmodel.ID
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // allocate
				id := reg.Alloc(int32(op%200)+1, 0)
				c.OnAlloc(id, 0)
				live = append(live, id)
			case 2: // kill one live object
				if len(live) > 0 {
					idx := int(op) % len(live)
					reg.Kill(live[idx])
					live = append(live[:idx], live[idx+1:]...)
				}
			case 3: // collect
				if op%8 < 6 {
					if _, err := c.CollectMinor(0, 0); err != nil {
						if _, ferr := c.CollectFull(0); ferr != nil {
							return false
						}
						if _, rerr := c.CollectMinor(0, 0); rerr != nil {
							return false
						}
					}
				} else {
					if _, err := c.CollectFull(0); err != nil {
						return false
					}
				}
				// After any collection, tracked populations contain every
				// live object exactly once.
				seen := map[objmodel.ID]int{}
				for _, id := range c.young[0] {
					if reg.Get(id).Live() {
						seen[id]++
					}
				}
				for _, id := range c.old {
					if reg.Get(id).Live() {
						seen[id]++
					}
				}
				if len(seen) < len(live) {
					// Some live objects may still be tracked as "dead
					// pending" in young lists between collections, but all
					// live ones must be present.
					return false
				}
				for _, id := range live {
					if seen[id] != 1 {
						return false
					}
				}
				// Heap's old usage covers at least the live promoted bytes.
				var oldLive int64
				for _, id := range c.old {
					if o := reg.Get(id); o.Live() {
						oldLive += int64(o.Size)
					}
				}
				if h.OldUsed() < oldLive {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
