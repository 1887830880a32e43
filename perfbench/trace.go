package main

import (
	"context"
	"sync"
	"time"

	"javasim/internal/core"
	"javasim/internal/store"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// epoch anchors every timestamp the harness takes, so spans recorded on
// engine goroutines and samples recorded by the client share one clock.
var epoch = time.Now()

// clock returns the host time elapsed since epoch (monotonic).
func clock() time.Duration { return time.Since(epoch) }

// Span and mark names, one per layer boundary the harness wraps.
const (
	spanRunner       = "core.runner"   // one simulation inside the engine's runner seam
	spanTape         = "workload.tape" // building or fetching the run's workload tape
	spanReplay       = "vm.replay"     // vm.RunContext replaying the tape
	spanStoreGet     = "store.get"
	spanStorePut     = "store.put"
	spanStoreFlush   = "store.flush" // draining the store's write-behind queue
	markScenarioDone = "core.scenario_done"
	markPlanDone     = "core.plan_done"
)

// span is one recorded interval. Spans of one op share its op id; n
// carries a count measured at the same boundary (objects allocated by a
// replay).
type span struct {
	name string
	op   int
	iv   interval
	n    int64
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	op    int
	spans []span

	// Cache and store counters summed over the traced ops; engines and
	// stores count the readings added.
	cache           core.CacheStats
	store           store.Stats
	engines, stores int
}

// addCache adds an engine's cache-tier counters between two readings
// to the trace.
func (t *tracer) addCache(before, after core.CacheStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cache.MemoryHits += after.MemoryHits - before.MemoryHits
	t.cache.DiskHits += after.DiskHits - before.DiskHits
	t.cache.Shared += after.Shared - before.Shared
	t.cache.Misses += after.Misses - before.Misses
	t.engines++
}

// addStore adds a store's counters between two readings to the trace.
func (t *tracer) addStore(before, after store.Stats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store.Hits += after.Hits - before.Hits
	t.store.Misses += after.Misses - before.Misses
	t.store.Corrupt += after.Corrupt - before.Corrupt
	t.store.Writes += after.Writes - before.Writes
	t.stores++
}

// newOp starts the next op; later spans carry its id. The client is a
// closed loop, so at most one op is in flight.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

// record stores a span that ran from start until now.
func (t *tracer) record(name string, start time.Duration, n int64) {
	if t == nil {
		return
	}
	end := clock()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: t.op, iv: interval{start, end}, n: n})
	t.mu.Unlock()
}

// mark stores an instant.
func (t *tracer) mark(name string) { t.record(name, clock(), 0) }

// lastMark returns the time of the most recent mark with this name.
func (t *tracer) lastMark(name string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].name == name {
			return t.spans[i].iv.end, true
		}
	}
	return 0, false
}

// engineOptions wraps the engine's runner and observer seams when tracing.
func (t *tracer) engineOptions() []core.Option {
	if t == nil {
		return nil
	}
	return []core.Option{core.WithRunner(t.runner), core.WithObserver(core.ObserverFunc(t.observe))}
}

// runner is the traced core.Runner: it splits one simulation into the
// workload tape (the sweep's shared snapshot when the engine attached
// one, else a fresh vm.NewSnapshot for this run's spec and seed) and the
// replay of that tape by vm.RunContext.
func (t *tracer) runner(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	start := clock()
	snap := vm.SnapshotFrom(ctx)
	if !snap.Matches(spec, cfg) {
		var err error
		if snap, err = vm.NewSnapshot(spec, cfg); err != nil {
			return nil, err
		}
		ctx = vm.ContextWithSnapshot(ctx, snap)
	}
	t.record(spanTape, start, 0)
	replay := clock()
	res, err := vm.RunContext(ctx, spec, cfg)
	var objects int64
	if res != nil {
		objects = res.ObjectsAllocated
	}
	t.record(spanReplay, replay, objects)
	t.record(spanRunner, start, 0)
	return res, err
}

// observe turns the engine's plan events into marks.
func (t *tracer) observe(ev core.Event) {
	switch ev.Kind {
	case core.ScenarioDone:
		t.mark(markScenarioDone)
	case core.PlanDone:
		t.mark(markPlanDone)
	}
}

// tracedStore times the store calls the engine makes through
// core.WithDiskStore. Put only enqueues; the write itself happens on the
// store's writer and shows in the flush time.
type tracedStore struct {
	st core.ResultStore
	t  *tracer
}

func (s tracedStore) Get(fp string) (*vm.Result, bool) {
	start := clock()
	res, ok := s.st.Get(fp)
	s.t.record(spanStoreGet, start, 0)
	return res, ok
}

func (s tracedStore) Put(fp string, res *vm.Result) {
	start := clock()
	s.st.Put(fp, res)
	s.t.record(spanStorePut, start, 0)
}
