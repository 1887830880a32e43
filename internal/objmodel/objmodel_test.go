package objmodel

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// The record's size is the registry's per-object memory cost; a field
// that pushes it past 32 bytes costs every run 50% more.
func TestObjectIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Object{}); got != 32 {
		t.Errorf("sizeof(Object) = %d, want 32", got)
	}
}

// Allocating up to the capacity NewRegistry was given never moves the
// backing array, so Get pointers taken early stay valid.
func TestAllocWithinCapacityKeepsPointers(t *testing.T) {
	r := NewRegistry(64)
	first := r.Get(r.Alloc(16, 0))
	for r.Count() < 64 {
		r.Alloc(16, 0)
	}
	if r.Cap() != 64 || r.Get(0) != first {
		t.Errorf("backing array moved within capacity (cap %d)", r.Cap())
	}
	r.Alloc(16, 0)
	if r.Cap() <= 64 {
		t.Errorf("cap %d after outgrowing 64", r.Cap())
	}
}

func TestAllocBasics(t *testing.T) {
	r := NewRegistry(16)
	id := r.Alloc(128, 3)
	o := r.Get(id)
	if o.Size != 128 || o.Thread != 3 || o.Gen != Young || o.Age != 0 {
		t.Errorf("object fields %+v", o)
	}
	if !o.Live() {
		t.Error("fresh object not live")
	}
	if o.Birth != 128 {
		t.Errorf("first object birth clock = %d, want 128 (after own bytes)", o.Birth)
	}
	if r.Clock() != 128 {
		t.Errorf("clock = %d, want 128", r.Clock())
	}
	id2 := r.Alloc(64, 1)
	if r.Get(id2).Birth != 192 {
		t.Errorf("second object birth = %d, want 192", r.Get(id2).Birth)
	}
}

func TestLifespanMetric(t *testing.T) {
	// The paper (§II-A) measures lifespan as heap memory allocated to
	// *other* objects between an object's creation and its death: allocate
	// A (100B), then B (50B), then kill A — A's lifespan is exactly B's 50
	// bytes. An object killed immediately has lifespan 0.
	r := NewRegistry(4)
	a := r.Alloc(100, 0)
	r.Alloc(50, 1)
	r.Kill(a)
	if got := r.Get(a).Lifespan(); got != 50 {
		t.Errorf("lifespan = %d, want 50 (B's bytes only)", got)
	}
	c := r.Alloc(32, 0)
	r.Kill(c)
	if got := r.Get(c).Lifespan(); got != 0 {
		t.Errorf("immediate-death lifespan = %d, want 0", got)
	}
}

func TestKillAccounting(t *testing.T) {
	r := NewRegistry(4)
	a := r.Alloc(100, 0)
	b := r.Alloc(200, 0)
	if r.LiveCount() != 2 || r.LiveBytes() != 300 {
		t.Fatalf("live %d/%d, want 2/300", r.LiveCount(), r.LiveBytes())
	}
	r.Kill(a)
	if r.LiveCount() != 1 || r.LiveBytes() != 200 {
		t.Errorf("after kill live %d/%d, want 1/200", r.LiveCount(), r.LiveBytes())
	}
	if r.DeadCount() != 1 {
		t.Errorf("dead = %d, want 1", r.DeadCount())
	}
	r.Kill(b)
	if r.LiveCount() != 0 || r.LiveBytes() != 0 {
		t.Errorf("final live %d/%d, want 0/0", r.LiveCount(), r.LiveBytes())
	}
}

func TestDoubleKillPanics(t *testing.T) {
	r := NewRegistry(1)
	id := r.Alloc(10, 0)
	r.Kill(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double kill did not panic")
		}
	}()
	r.Kill(id)
}

func TestZeroSizeAllocPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size alloc did not panic")
		}
	}()
	NewRegistry(1).Alloc(0, 0)
}

func TestLifespanOfLivePanics(t *testing.T) {
	r := NewRegistry(1)
	id := r.Alloc(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Lifespan of live object did not panic")
		}
	}()
	_ = r.Get(id).Lifespan()
}

func TestKillAllLive(t *testing.T) {
	r := NewRegistry(8)
	for i := 0; i < 5; i++ {
		r.Alloc(100, 0)
	}
	r.Kill(2)
	r.KillAllLive()
	if r.LiveCount() != 0 {
		t.Errorf("live after KillAllLive = %d", r.LiveCount())
	}
	r.ForEach(func(id ID, o *Object) {
		if o.Live() {
			t.Errorf("object %d still live", id)
		}
	})
	if r.Get(4).Death != r.Clock() {
		t.Errorf("death clock = %d, want the final clock %d", r.Get(4).Death, r.Clock())
	}
}

func TestForEachOrder(t *testing.T) {
	r := NewRegistry(8)
	for i := 1; i <= 5; i++ {
		r.Alloc(int32(i*10), 0)
	}
	var sizes []int32
	r.ForEach(func(id ID, o *Object) { sizes = append(sizes, o.Size) })
	for i, s := range sizes {
		if s != int32((i+1)*10) {
			t.Errorf("ForEach out of allocation order: %v", sizes)
		}
	}
}

func TestGenerationString(t *testing.T) {
	if Young.String() != "young" || Old.String() != "old" {
		t.Error("generation names wrong")
	}
}

// Property: the allocation clock equals the sum of all object sizes, and
// live + dead bytes always equals that clock.
func TestClockConservationProperty(t *testing.T) {
	f := func(sizes []uint16, killMask []bool) bool {
		r := NewRegistry(len(sizes))
		var ids []ID
		var sum int64
		for _, s := range sizes {
			size := int32(s%1000) + 1
			ids = append(ids, r.Alloc(size, 0))
			sum += int64(size)
		}
		for i, id := range ids {
			if i < len(killMask) && killMask[i] {
				r.Kill(id)
			}
		}
		if r.Clock() != sum {
			return false
		}
		liveBytes, deadBytes := int64(0), int64(0)
		r.ForEach(func(_ ID, o *Object) {
			if o.Live() {
				liveBytes += int64(o.Size)
			} else {
				deadBytes += int64(o.Size)
			}
		})
		return liveBytes == r.LiveBytes() && liveBytes+deadBytes == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: lifespans are never negative, and an object allocated last has
// lifespan exactly 0 when everything is retired together.
func TestLifespanNonNegativeProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		r := NewRegistry(len(sizes))
		for _, s := range sizes {
			r.Alloc(int32(s%512)+1, 0)
		}
		r.KillAllLive()
		ok := true
		var lastLifespan int64 = -1
		r.ForEach(func(id ID, o *Object) {
			ls := o.Lifespan()
			if ls < 0 {
				ok = false
			}
			if int(id) == len(sizes)-1 {
				lastLifespan = ls
			}
		})
		if len(sizes) > 0 && lastLifespan != 0 {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestForEachLive(t *testing.T) {
	r := NewRegistry(8)
	var ids []ID
	for i := 0; i < 6; i++ {
		ids = append(ids, r.Alloc(64, 0))
	}
	r.Kill(ids[1])
	r.Kill(ids[4])

	var visited []ID
	r.ForEachLive(func(id ID, o *Object) {
		if !o.Live() {
			t.Errorf("ForEachLive visited dead object %d", id)
		}
		visited = append(visited, id)
	})
	want := []ID{ids[0], ids[2], ids[3], ids[5]}
	if len(visited) != len(want) {
		t.Fatalf("visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited %v, want %v (allocation order)", visited, want)
		}
	}
}

// ForEachLive's early exit must tolerate fn killing the object it was
// handed — the end-of-run retirement pattern — and still visit every
// object that was live at call time exactly once.
func TestForEachLiveKillDuringIteration(t *testing.T) {
	r := NewRegistry(8)
	for i := 0; i < 5; i++ {
		r.Alloc(32, 0)
	}
	n := 0
	r.ForEachLive(func(id ID, o *Object) {
		n++
		r.Kill(id)
	})
	if n != 5 {
		t.Errorf("visited %d objects, want 5", n)
	}
	if r.LiveCount() != 0 {
		t.Errorf("LiveCount = %d after retiring all, want 0", r.LiveCount())
	}
}
