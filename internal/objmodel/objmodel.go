// Package objmodel tracks every simulated heap object from allocation to
// death, reproducing the measurement model of Elephant Tracks (Ricci,
// Guyer, Moss — ISMM 2013), the tracer the paper uses.
//
// The central metric is the paper's definition of object lifespan (§II-A):
// the amount of heap memory allocated to other objects between an object's
// creation and its death. The registry therefore timestamps each object
// with the global allocation clock — cumulative bytes ever allocated — at
// birth and at death; the difference is the lifespan in bytes.
package objmodel

import "fmt"

// ID names an object within one registry. IDs are dense, starting at 0.
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
// inside the registry's backing array. A pointer from Get stays valid only
// while that array is not reallocated: the VM sizes the registry to an
// upper bound on the run's allocations (see NewRegistry), so in a VM run
// the array never moves. Callers of a registry that may outgrow its
// capacity must re-Get after an Alloc.
type Object struct {
	// Size is the object's size in bytes, including header.
	Size int32
	// Thread is the allocating mutator thread index.
	Thread int32
	// Birth is the global allocation clock (bytes allocated by everyone,
	// ever) when the object was created.
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

// Registry owns all object records for one VM run.
type Registry struct {
	objects []Object

	liveCount int64
	liveBytes int64

	allocated      int64 // objects ever allocated
	allocatedBytes int64 // == the allocation clock

	diedCount int64
	diedBytes int64
}

// NewRegistry returns an empty registry with room for n objects. Allocating
// beyond n reallocates the backing array (a copy of every record), so
// callers that know an upper bound on their allocations pass it.
func NewRegistry(n int) *Registry {
	return &Registry{objects: make([]Object, 0, n)}
}

// Alloc records a new young object of the given size by thread and
// returns its ID. It advances the allocation clock by size. The birth
// clock is sampled after the object's own bytes are counted, so a lifespan
// measures only memory allocated to *other* objects between creation and
// death — the paper's §II-A definition.
func (r *Registry) Alloc(size int32, thread int32) ID {
	if size <= 0 {
		panic(fmt.Sprintf("objmodel: Alloc size %d", size))
	}
	id := ID(len(r.objects))
	r.allocated++
	r.allocatedBytes += int64(size)
	r.objects = append(r.objects, Object{
		Size:   size,
		Thread: thread,
		Birth:  r.allocatedBytes,
		Death:  -1,
		Gen:    Young,
	})
	r.liveCount++
	r.liveBytes += int64(size)
	return id
}

// Kill marks an object dead at the current allocation clock. Killing an
// already-dead object panics: the workload driver owns each object's single
// death, and a double kill means lifespans would be corrupted.
func (r *Registry) Kill(id ID) {
	o := &r.objects[id]
	if o.Death >= 0 {
		panic(fmt.Sprintf("objmodel: double kill of object %d", id))
	}
	o.Death = r.allocatedBytes
	r.liveCount--
	r.liveBytes -= int64(o.Size)
	r.diedCount++
	r.diedBytes += int64(o.Size)
}

// Get returns the record for id. The pointer may describe a dead object,
// and stays valid until an Alloc outgrows the registry's capacity.
func (r *Registry) Get(id ID) *Object { return &r.objects[id] }

// Cap returns how many objects the registry holds before an Alloc must
// reallocate its backing array.
func (r *Registry) Cap() int { return cap(r.objects) }

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

// KillAllLive retires every live object at the current clock; the VM calls
// it at program exit so that end-of-run objects contribute lifespans, as
// Elephant Tracks does when the traced program terminates.
func (r *Registry) KillAllLive() {
	for i := range r.objects {
		if r.objects[i].Death < 0 {
			r.Kill(ID(i))
		}
	}
}

// ForEach calls fn for every object ever allocated, in allocation order.
func (r *Registry) ForEach(fn func(ID, *Object)) {
	for i := range r.objects {
		fn(ID(i), &r.objects[i])
	}
}

// ForEachLive calls fn for every object live at the time of the call, in
// allocation order, without materializing an ID list. The registry tracks
// the live count, so the scan stops as soon as the last live object has
// been visited instead of walking the entire allocation history. fn may
// kill the object it is handed (the VM's end-of-run retirement does);
// such objects still count as live at call time. fn must not kill
// not-yet-visited objects or allocate new ones.
func (r *Registry) ForEachLive(fn func(ID, *Object)) {
	left := r.liveCount
	for i := 0; i < len(r.objects) && left > 0; i++ {
		if o := &r.objects[i]; o.Live() {
			left--
			fn(ID(i), o)
		}
	}
}
