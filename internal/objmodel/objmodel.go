// Package objmodel tracks every simulated heap object from allocation to
// death, reproducing the measurement model of Elephant Tracks (Ricci,
// Guyer, Moss — ISMM 2013), the tracer the paper uses.
//
// The central metric is the paper's definition of object lifespan (§II-A):
// the amount of heap memory allocated to other objects between an object's
// creation and its death. The registry therefore timestamps each object
// with the global allocation clock — cumulative bytes ever allocated — at
// birth and at death; the difference is the lifespan in bytes.
//
// A record is needed only until the collector reclaims its object, so the
// registry is a slab of slots the collector recycles (Registry.Release):
// its size follows the simulated heap, not the run's allocation count.
package objmodel

import "fmt"

// ID names a slot in one registry. A slot holds one object from its
// allocation until the collector reclaims it (see Registry.Release), and
// is then reused, so an ID names an object only for that span. Slots are
// dense, starting at 0. Object.Serial is the object's lasting name.
type ID uint32

// NoID is the sentinel for "no object".
const NoID ID = ^ID(0)

// Generation is the heap generation holding an object.
type Generation uint8

const (
	// Young objects live in the nursery (eden or a survivor space).
	Young Generation = iota
	// Old objects have been promoted to the mature generation.
	Old
)

// String returns the generation name.
func (g Generation) String() string {
	if g == Young {
		return "young"
	}
	return "old"
}

// Object is the per-object record, 32 bytes. Records are stored by value
// in the registry's fixed-size chunks, which never move, so a pointer from
// Get stays valid for the registry's lifetime. It describes the slot's
// current object: after Release and a later Alloc it describes another.
type Object struct {
	// Size is the object's size in bytes, including header; 0 marks a
	// released or never-used slot.
	Size int32
	// Thread is the allocating mutator thread index.
	Thread int32
	// Birth is the global allocation clock (bytes allocated by everyone,
	// ever) when the object was created. A released slot keeps its free
	// list link here instead.
	Birth int64
	// Death is the allocation clock at death, or -1 while the object lives.
	Death int64
	// Age counts the minor collections this object has survived; it drives
	// the tenuring decision.
	Age uint8
	// Gen is the generation currently holding the object.
	Gen Generation
	// Compartment is the heap compartment (future-work feature) the object
	// was allocated into; 0 when compartmentalization is off.
	Compartment uint16
	// Serial is the object's allocation index: 0 for the registry's first
	// object, then 1, 2, ... It is unique over the run, unlike the slot.
	Serial uint32
}

// Live reports whether the object has not yet died.
func (o *Object) Live() bool { return o.Death < 0 }

// Lifespan returns the object's lifespan in allocation-clock bytes. It
// panics if the object is still live; callers check Live first or only ask
// after the run retires all objects.
func (o *Object) Lifespan() int64 {
	if o.Death < 0 {
		panic("objmodel: Lifespan of live object")
	}
	return o.Death - o.Birth
}

// ChunkSize is how many records one registry chunk holds (128 KiB).
// Chunks are allocated as slots are first opened, and never move or shrink.
const ChunkSize = 1 << chunkBits

const (
	chunkBits = 12
	chunkMask = ChunkSize - 1
)

type chunk [ChunkSize]Object

// Registry owns the object records of one VM run. It holds a record only
// while the collector tracks the object: Release returns a reclaimed
// object's slot for reuse, so the registry grows with the most objects
// tracked at once, not with how many the run allocates.
type Registry struct {
	chunks []*chunk
	opened ID // slots handed out at least once
	// free heads the list of released slots, reused last-in first-out.
	// The list is threaded through the released records' Birth fields,
	// so it costs no memory of its own; NoID ends it.
	free ID

	liveCount int64
	liveBytes int64

	allocated      int64 // objects ever allocated
	allocatedBytes int64 // == the allocation clock

	diedCount int64
	diedBytes int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{free: NoID} }

// Alloc records a new young object of the given size by thread and
// returns its slot, reusing a released one before it opens a new one. It
// advances the allocation clock by size. The birth clock is sampled after
// the object's own bytes are counted, so a lifespan measures only memory
// allocated to *other* objects between creation and death — the paper's
// §II-A definition.
func (r *Registry) Alloc(size int32, thread int32) ID {
	if size <= 0 {
		panic(fmt.Sprintf("objmodel: Alloc size %d", size))
	}
	id := r.free
	if id != NoID {
		r.free = ID(r.Get(id).Birth)
	} else {
		id = r.opened
		if int(id>>chunkBits) == len(r.chunks) {
			r.chunks = append(r.chunks, new(chunk))
		}
		r.opened++
	}
	r.allocatedBytes += int64(size)
	*r.Get(id) = Object{
		Size:   size,
		Thread: thread,
		Birth:  r.allocatedBytes,
		Death:  -1,
		Gen:    Young,
		Serial: uint32(r.allocated),
	}
	r.allocated++
	r.liveCount++
	r.liveBytes += int64(size)
	return id
}

// Kill marks an object dead at the current allocation clock. Killing an
// already-dead object panics: the workload driver owns each object's single
// death, and a double kill means lifespans would be corrupted.
func (r *Registry) Kill(id ID) {
	o := r.Get(id)
	if o.Death >= 0 {
		panic(fmt.Sprintf("objmodel: double kill of object %d", id))
	}
	o.Death = r.allocatedBytes
	r.liveCount--
	r.liveBytes -= int64(o.Size)
	r.diedCount++
	r.diedBytes += int64(o.Size)
}

// Release returns a dead object's slot for reuse by a later Alloc. The
// collector calls it once it has reclaimed the object, which is the last
// time anyone reads the record. Releasing a live object or a free slot
// panics: either would hand one slot to two objects.
func (r *Registry) Release(id ID) {
	o := r.Get(id)
	if o.Death < 0 || o.Size == 0 {
		panic(fmt.Sprintf("objmodel: release of live or free slot %d", id))
	}
	o.Size = 0
	o.Birth = int64(r.free)
	r.free = id
}

// Get returns the record in slot id. The pointer stays valid for the
// registry's lifetime; it may describe a dead object, and after Release
// whatever object next takes the slot.
func (r *Registry) Get(id ID) *Object { return &r.chunks[id>>chunkBits][id&chunkMask] }

// Cap returns how many slots the registry's chunks hold.
func (r *Registry) Cap() int { return len(r.chunks) * ChunkSize }

// Clock returns the global allocation clock: total bytes ever allocated.
func (r *Registry) Clock() int64 { return r.allocatedBytes }

// Count returns the number of objects ever allocated.
func (r *Registry) Count() int64 { return r.allocated }

// LiveCount returns the number of currently live objects.
func (r *Registry) LiveCount() int64 { return r.liveCount }

// LiveBytes returns the bytes held by live objects.
func (r *Registry) LiveBytes() int64 { return r.liveBytes }

// DeadCount returns the number of objects that have died.
func (r *Registry) DeadCount() int64 { return r.diedCount }

// KillAllLive retires every live object at the current clock, in slot
// order.
func (r *Registry) KillAllLive() {
	r.ForEachLive(func(id ID, _ *Object) { r.Kill(id) })
}

// ForEach calls fn for every object still in a slot — live, or dead and
// not yet released — in slot order. Without Release that is every object
// ever allocated, in allocation order.
func (r *Registry) ForEach(fn func(ID, *Object)) {
	for c, ch := range r.chunks {
		for i := range ch {
			if o := &ch[i]; o.Size != 0 {
				fn(ID(c<<chunkBits|i), o)
			}
		}
	}
}

// ForEachLive calls fn for every object live at the time of the call, in
// slot order, without materializing an ID list. The registry tracks the
// live count, so the scan stops as soon as the last live object has been
// visited. fn may kill the object it is handed (the VM's end-of-run
// retirement does); such objects still count as live at call time. fn
// must not kill not-yet-visited objects, allocate or release.
func (r *Registry) ForEachLive(fn func(ID, *Object)) {
	left := r.liveCount
	for c, ch := range r.chunks {
		for i := range ch {
			if left == 0 {
				return
			}
			if o := &ch[i]; o.Live() {
				left--
				fn(ID(c<<chunkBits|i), o)
			}
		}
	}
}
