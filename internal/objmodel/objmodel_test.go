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

// Opening slots past a chunk boundary adds a chunk and never moves the
// earlier ones, so Get pointers taken early stay valid.
func TestChunkGrowthKeepsPointers(t *testing.T) {
	r := NewRegistry()
	if r.Cap() != 0 {
		t.Fatalf("empty registry cap %d, want 0", r.Cap())
	}
	first := r.Get(r.Alloc(16, 0))
	if r.Cap() != ChunkSize {
		t.Fatalf("cap %d after one Alloc, want one chunk (%d)", r.Cap(), ChunkSize)
	}
	for r.Count() < 2*ChunkSize+1 {
		r.Alloc(16, 0)
	}
	if r.Cap() != 3*ChunkSize {
		t.Errorf("cap %d for %d objects, want 3 chunks", r.Cap(), r.Count())
	}
	if r.Get(0) != first || first.Serial != 0 || !first.Live() {
		t.Errorf("first record moved or changed across chunk growth: %+v", *first)
	}
	last := ID(2 * ChunkSize)
	if o := r.Get(last); o.Serial != uint32(last) || o.Size != 16 {
		t.Errorf("record in the third chunk: %+v", *o)
	}
}

// A released slot is the next one Alloc hands out, with a fresh record
// and the next Serial; the registry does not grow.
func TestReleasedSlotIsReused(t *testing.T) {
	r := NewRegistry()
	a := r.Alloc(100, 1)
	b := r.Alloc(200, 2)
	r.Kill(a)
	r.Release(a)
	c := r.Alloc(50, 3)
	if c != a {
		t.Fatalf("Alloc after Release returned slot %d, want reused slot %d", c, a)
	}
	o := r.Get(c)
	want := Object{Size: 50, Thread: 3, Birth: 350, Death: -1, Gen: Young, Serial: 2}
	if *o != want {
		t.Errorf("reused record %+v, want %+v", *o, want)
	}
	if r.Count() != 3 || r.LiveCount() != 2 || r.DeadCount() != 1 || r.Cap() != ChunkSize {
		t.Errorf("count %d live %d dead %d cap %d", r.Count(), r.LiveCount(), r.DeadCount(), r.Cap())
	}
	if d := r.Alloc(10, 0); d == a || d == b {
		t.Errorf("Alloc with an empty free list returned occupied slot %d", d)
	}
}

// Releasing a live object or an already free slot would hand one slot to
// two objects, so both panic.
func TestReleasePanics(t *testing.T) {
	for name, setup := range map[string]func(*Registry) ID{
		"live": func(r *Registry) ID { return r.Alloc(8, 0) },
		"twice": func(r *Registry) ID {
			id := r.Alloc(8, 0)
			r.Kill(id)
			r.Release(id)
			return id
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRegistry()
			id := setup(r)
			defer func() {
				if recover() == nil {
					t.Error("Release did not panic")
				}
			}()
			r.Release(id)
		})
	}
}

func TestAllocBasics(t *testing.T) {
	r := NewRegistry()
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
	r := NewRegistry()
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
	r := NewRegistry()
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
	r := NewRegistry()
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
	NewRegistry().Alloc(0, 0)
}

func TestLifespanOfLivePanics(t *testing.T) {
	r := NewRegistry()
	id := r.Alloc(10, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Lifespan of live object did not panic")
		}
	}()
	_ = r.Get(id).Lifespan()
}

func TestKillAllLive(t *testing.T) {
	r := NewRegistry()
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
	r := NewRegistry()
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
		r := NewRegistry()
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
		r := NewRegistry()
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
	r := NewRegistry()
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
			t.Fatalf("visited %v, want %v (slot order)", visited, want)
		}
	}
}

// ForEachLive's early exit must tolerate fn killing the object it was
// handed — the end-of-run retirement pattern — and still visit every
// object that was live at call time exactly once.
func TestForEachLiveKillDuringIteration(t *testing.T) {
	r := NewRegistry()
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

// FuzzRegistry drives random Alloc/Kill/Release sequences against a
// map-based reference: counters, clock, each record's fields and
// lifespan, serials, slot reuse (no more distinct slots than the peak
// number of unreleased objects, and chunks to match), and that ForEachLive
// visits exactly the live set in slot order.
func FuzzRegistry(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 2, 0, 3, 0, 0, 30})
	f.Add([]byte{4, 110, 2, 1, 2, 2, 3, 0, 3, 1, 4, 9, 1, 5}) // crosses a chunk boundary
	f.Add([]byte{1, 255, 1, 1, 2, 7, 2, 7, 3, 3, 3, 3, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			slot         ID
			size, thread int32
			birth, death int64
			serial       uint32
			released     bool
		}
		r := NewRegistry()
		var (
			objs         []*ref // by serial
			live, dead   []*ref // dead: not yet released
			clock, liveB int64
			peak         int
			occupied     = map[ID]*ref{} // unreleased objects by slot
			opened       = map[ID]bool{} // every slot Alloc returned
		)
		take := func(list *[]*ref, b byte) *ref {
			i := int(b) % len(*list)
			o := (*list)[i]
			(*list)[i] = (*list)[len(*list)-1]
			*list = (*list)[:len(*list)-1]
			return o
		}
		alloc := func(size int32, thread int32) {
			id := r.Alloc(size, thread)
			clock += int64(size)
			liveB += int64(size)
			o := &ref{slot: id, size: size, thread: thread, birth: clock, death: -1, serial: uint32(len(objs))}
			if held, ok := occupied[id]; ok {
				t.Fatalf("Alloc returned slot %d held by object %d", id, held.serial)
			}
			occupied[id] = o
			opened[id] = true
			objs = append(objs, o)
			live = append(live, o)
			if n := len(live) + len(dead); n > peak {
				peak = n
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0, 1:
				alloc(int32(arg)+1, int32(op/5))
			case 2:
				if len(live) > 0 {
					o := take(&live, arg)
					r.Kill(o.slot)
					o.death = clock
					liveB -= int64(o.size)
					dead = append(dead, o)
				}
			case 3:
				if len(dead) > 0 {
					o := take(&dead, arg)
					r.Release(o.slot)
					o.released = true
					delete(occupied, o.slot)
				}
			case 4:
				// A burst that crosses chunk boundaries.
				for j := 0; j < int(arg)*40; j++ {
					alloc(16, 0)
				}
			}
			if r.Count() != int64(len(objs)) || r.Clock() != clock || r.LiveCount() != int64(len(live)) ||
				r.LiveBytes() != liveB || r.DeadCount() != int64(len(objs)-len(live)) {
				t.Fatalf("op %d: count %d clock %d live %d/%dB dead %d; want %d %d %d/%dB %d",
					i/2, r.Count(), r.Clock(), r.LiveCount(), r.LiveBytes(), r.DeadCount(),
					len(objs), clock, len(live), liveB, len(objs)-len(live))
			}
		}
		for _, o := range objs {
			if o.released {
				continue
			}
			got := r.Get(o.slot)
			if got.Size != o.size || got.Thread != o.thread || got.Birth != o.birth ||
				got.Death != o.death || got.Serial != o.serial {
				t.Fatalf("slot %d holds %+v, want %+v", o.slot, *got, *o)
			}
			if o.death >= 0 && got.Lifespan() != o.death-o.birth {
				t.Fatalf("object %d lifespan %d, want %d", o.serial, got.Lifespan(), o.death-o.birth)
			}
		}
		if len(opened) > peak {
			t.Fatalf("%d slots used for a peak of %d unreleased objects", len(opened), peak)
		}
		if want := (peak + ChunkSize - 1) / ChunkSize * ChunkSize; r.Cap() > want {
			t.Fatalf("cap %d for a peak of %d unreleased objects, want <= %d", r.Cap(), peak, want)
		}
		want := make(map[ID]uint32, len(live))
		for _, o := range live {
			want[o.slot] = o.serial
		}
		prev := ID(0)
		r.ForEachLive(func(id ID, o *Object) {
			s, ok := want[id]
			if !ok || o.Serial != s {
				t.Fatalf("ForEachLive visited slot %d (serial %d), not a live object", id, o.Serial)
			}
			if id < prev {
				t.Fatalf("ForEachLive visited slot %d after %d", id, prev)
			}
			prev = id
			delete(want, id)
		})
		if len(want) != 0 {
			t.Fatalf("ForEachLive missed %d live objects", len(want))
		}
	})
}
