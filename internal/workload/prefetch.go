package workload

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

// Prefetched generation
//
// Unit k of a run is a pure function of (spec, seed, k), so a closed run's
// whole unit stream can be drawn ahead of the simulation on a goroutine of
// its own. The producer draws the run's remaining units in order into a
// ring of prefetchDepth reusable op blocks; nextUnit copies each unit out
// of the ring into the taking thread's scratch buffer. The producer owns
// the run's RNG streams until it has handed over its last unit; after
// that they stand exactly where inline generation would have left them.
// Unlike a Tape, the ring holds a few hundred units at a time, not the
// whole run.

const (
	// prefetchBlockUnits is the most units one block carries. Larger
	// blocks mean fewer producer wake-ups landing on the simulation
	// goroutine; 64 is where the gain levels off.
	prefetchBlockUnits = 64
	// prefetchDepth is the number of blocks in one run's ring.
	prefetchDepth = 4
)

// opBlock is one ring slot: up to prefetchBlockUnits consecutive units,
// their ops concatenated. ends[i] is the end offset of unit i in ops.
type opBlock struct {
	ops  []Op
	ends []int32
	// panicked, when non-nil, is a panic the producer raised while
	// filling the block, with the producer's stack.
	panicked any
	stack    []byte
}

// blockPool recycles op blocks across runs. Unlike a sync.Pool it
// survives garbage collections, which would otherwise reallocate the
// ring every few runs; its bound keeps idle blocks to a few rings' worth.
var blockPool = make(chan *opBlock, 2*prefetchDepth*runtime.GOMAXPROCS(0))

// getBlock returns an empty block whose ops hold at least want ops.
func getBlock(want int) *opBlock {
	var b *opBlock
	select {
	case b = <-blockPool:
	default:
		b = &opBlock{ends: make([]int32, 0, prefetchBlockUnits)}
	}
	if cap(b.ops) < want {
		b.ops = make([]Op, 0, want)
	}
	return b
}

// putBlock returns b to the pool, or drops it when the pool is full.
func putBlock(b *opBlock) {
	b.ops, b.ends = b.ops[:0], b.ends[:0]
	b.panicked, b.stack = nil, nil
	select {
	case blockPool <- b:
	default:
	}
}

// prefetch is a run's producer hand-off state. full carries filled blocks
// to the consumer in order; free carries consumed blocks back. Each has
// room for the whole ring, so sending a block back never blocks.
type prefetch struct {
	full, free chan *opBlock
	stop       chan struct{} // closed to make the producer return early
	done       chan struct{} // closed when the producer has returned

	cur  *opBlock // block the consumer is reading
	pos  int      // next unit of cur
	left int      // units not yet handed to the consumer
}

// prefetchHook, when non-nil, runs in the producer before each unit — a
// test hook for injecting producer panics. Never set outside tests.
var prefetchHook func()

// producerLabels tags every producer goroutine with the pprof label
// javasim=prefetch, so a CPU profile splits off-path generation from the
// simulation goroutine (go tool pprof -tagfocus javasim=prefetch).
var producerLabels = pprof.WithLabels(context.Background(), pprof.Labels("javasim", "prefetch"))

// Prefetch starts drawing the run's remaining units on a producer
// goroutine. It reports whether the producer started: it does not when a
// tape is attached, when the run does not recycle unit buffers (see
// ReuseUnitBuffers; prefetched units are copied into them), or when no
// units remain. Only closed-system takes (Take) may follow: the producer
// draws exactly the remaining units, after which the run generates live
// again from where the producer left the RNG streams.
//
// Every run that prefetches must be stopped with StopPrefetch once the
// caller is done taking, whether or not it ran to completion.
func (r *Run) Prefetch() bool {
	n := r.Remaining()
	if r.tape != nil || !r.reuse || r.pf != nil || n == 0 {
		return false
	}
	maxOps := r.spec.maxOpsPerUnit()
	meanOps := 2 + r.spec.AllocsPerUnit + 3*r.spec.maxLockOpsPerUnit()
	// Sized to the mean unit with room for a few maximal ones: the
	// producer closes a block when a maximal unit might no longer fit, so
	// ops never regrow and nearly every block carries a full 64 units.
	want := prefetchBlockUnits*meanOps + 4*maxOps
	p := &prefetch{
		full: make(chan *opBlock, prefetchDepth),
		free: make(chan *opBlock, prefetchDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
		left: n,
	}
	for i := 0; i < prefetchDepth; i++ {
		p.free <- getBlock(want)
	}
	r.pf = p
	go r.produce(p, n, maxOps)
	return true
}

// produce draws n units into the ring. It runs on its own goroutine and
// touches only the RNG streams, read-only spec state and p's channels. A
// panic is captured and handed over in place of the next block.
func (r *Run) produce(p *prefetch, n, maxOps int) {
	pprof.SetGoroutineLabels(producerLabels)
	defer close(p.done)
	var b *opBlock
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if b == nil {
			b = &opBlock{}
		}
		b.panicked, b.stack = v, debug.Stack()
		select {
		case p.full <- b:
		case <-p.stop:
		}
	}()
	for n > 0 {
		select {
		case b = <-p.free:
		case <-p.stop:
			return
		}
		b.ops, b.ends = b.ops[:0], b.ends[:0]
		for len(b.ends) < prefetchBlockUnits && n > 0 && cap(b.ops)-len(b.ops) >= maxOps {
			if prefetchHook != nil {
				prefetchHook()
			}
			b.ops = r.appendUnit(b.ops)
			b.ends = append(b.ends, int32(len(b.ops)))
			n--
		}
		select {
		case p.full <- b:
			b = nil
		case <-p.stop:
			putBlock(b)
			return
		}
	}
}

// prefetched hands tid the next unit from the ring, copied into tid's
// scratch buffer. Once the last unit is handed over the producer has
// finished, so the ring is released and the run generates live again.
func (r *Run) prefetched(tid int) Unit {
	p := r.pf
	b := p.cur
	if b == nil || p.pos == len(b.ends) {
		if b != nil {
			p.free <- b
		}
		b = <-p.full
		p.cur, p.pos = b, 0
		if b.panicked != nil {
			panic(fmt.Errorf("workload: %s unit producer panicked: %v\n\nproducer stack:\n%s",
				r.spec.Name, b.panicked, b.stack))
		}
	}
	start := int32(0)
	if p.pos > 0 {
		start = b.ends[p.pos-1]
	}
	ops := append(r.scratch[tid][:0], b.ops[start:b.ends[p.pos]]...)
	r.scratch[tid] = ops
	p.pos++
	p.left--
	if p.left == 0 {
		r.StopPrefetch()
	}
	return Unit{Ops: ops}
}

// StopPrefetch stops the run's producer, waits for it to return and
// recycles its blocks. It is a no-op when no producer runs. A run stopped
// before its producer handed over every unit must not be taken from
// again: its RNG streams have run ahead of the units taken.
func (r *Run) StopPrefetch() {
	p := r.pf
	if p == nil {
		return
	}
	r.pf = nil
	close(p.stop)
	<-p.done
	if p.cur != nil {
		putBlock(p.cur)
	}
	for len(p.full) > 0 {
		putBlock(<-p.full)
	}
	for len(p.free) > 0 {
		putBlock(<-p.free)
	}
}

// maxOpsPerUnit returns the most ops one generated unit can hold: two
// compute ops, the allocation burst and three ops per critical section.
func (s *Spec) maxOpsPerUnit() int {
	return 2 + s.MaxAllocsPerUnit() + 3*s.maxLockOpsPerUnit()
}

// maxLockOpsPerUnit returns the most critical sections one unit can
// enter: LockOpsPerUnit rounded up.
func (s *Spec) maxLockOpsPerUnit() int {
	if s.LockOpsPerUnit <= 0 {
		return 0
	}
	return int(math.Ceil(s.LockOpsPerUnit))
}
