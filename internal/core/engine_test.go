package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"javasim/internal/lockprof"
	"javasim/internal/trace"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

func testSpec(t testing.TB, name string, scale float64) workload.Spec {
	t.Helper()
	spec, ok := workload.Lookup(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	return spec.Scale(scale)
}

// countingObserver tallies events and tracks the maximum number of
// simulations in flight at once. Safe for concurrent use.
type countingObserver struct {
	mu       sync.Mutex
	counts   map[EventKind]int
	inFlight int
	maxSeen  int
}

func newCountingObserver() *countingObserver {
	return &countingObserver{counts: map[EventKind]int{}}
}

func (o *countingObserver) Observe(ev Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.counts[ev.Kind]++
	switch ev.Kind {
	case RunStarted:
		o.inFlight++
		if o.inFlight > o.maxSeen {
			o.maxSeen = o.inFlight
		}
	case RunFinished:
		o.inFlight--
	}
}

func (o *countingObserver) count(k EventKind) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.counts[k]
}

func (o *countingObserver) maxInFlight() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.maxSeen
}

func TestEngineRunMemoizes(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithObserver(obs))
	spec := testSpec(t, "xalan", 0.02)
	cfg := vm.Config{Threads: 4, Seed: 7}

	a, err := e.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second identical run did not return the memoized *Result")
	}
	if got := obs.count(RunStarted); got != 1 {
		t.Errorf("simulations = %d, want 1", got)
	}
	if got := obs.count(RunCached); got != 1 {
		t.Errorf("cache-hit events = %d, want 1", got)
	}
	st := e.Stats()
	if st.Simulations != 1 || st.CacheHits != 1 || st.CachedResults != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineRunCanonicalizesConfigKeys(t *testing.T) {
	e := NewEngine()
	spec := testSpec(t, "jython", 0.02)
	// Threads 0 defaults to 4; both configs describe the same run and must
	// share one cache entry.
	a, err := e.Run(context.Background(), spec, vm.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec, vm.Config{Threads: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("zero-value and explicit-default configs did not share a cache entry")
	}
}

func TestEngineSinkRunsBypassCache(t *testing.T) {
	spec := testSpec(t, "h2", 0.02)
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7}); !ok {
		t.Fatal("plain config should be cacheable")
	}
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7, LockProfiler: lockprof.New()}); ok {
		t.Error("profiler-carrying config must not be cacheable")
	}
	if _, ok := runKey(spec, vm.Config{Threads: 2, Seed: 7, TraceSink: &trace.MemorySink{}}); ok {
		t.Error("trace-carrying config must not be cacheable")
	}
}

func TestEngineSingleflightDeduplicates(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(4), WithObserver(obs))
	spec := testSpec(t, "xalan", 0.02)
	cfg := vm.Config{Threads: 4, Seed: 9}

	const callers = 8
	results := make([]*vm.Result, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			res, err := e.Run(context.Background(), spec, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	if got := obs.count(RunStarted); got != 1 {
		t.Errorf("concurrent identical requests ran %d simulations, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different *Result", i)
		}
	}
}

func TestEngineSweepBoundsParallelism(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(2), WithObserver(obs))
	spec := testSpec(t, "sunflow", 0.02)
	sw, err := e.Sweep(context.Background(), spec, SweepConfig{
		ThreadCounts: []int{2, 3, 4, 6, 8, 12},
		Base:         vm.Config{Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(sw.Points))
	}
	if got := obs.maxInFlight(); got > 2 {
		t.Errorf("max concurrent simulations = %d, want <= 2", got)
	}
	if got := obs.count(SweepPointDone); got != 6 {
		t.Errorf("sweep-point events = %d, want 6", got)
	}
	if got := obs.count(SweepDone); got != 1 {
		t.Errorf("sweep-done events = %d, want 1", got)
	}
}

func TestEngineParallelMatchesSequential(t *testing.T) {
	spec := testSpec(t, "lusearch", 0.03)
	counts := []int{2, 4, 8}
	seq, err := NewEngine(WithParallelism(1)).Sweep(context.Background(), spec,
		SweepConfig{ThreadCounts: counts, Base: vm.Config{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(WithParallelism(8)).Sweep(context.Background(), spec,
		SweepConfig{ThreadCounts: counts, Base: vm.Config{Seed: 21}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if !reflect.DeepEqual(seq.Points[i].Result, par.Points[i].Result) {
			t.Errorf("point t=%d differs between sequential and parallel engines", counts[i])
		}
	}
}

func TestEngineSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the first simulation starts: the remaining points
	// must abort mid-run instead of draining the whole sweep.
	e := NewEngine(WithParallelism(1), WithObserver(ObserverFunc(func(ev Event) {
		if ev.Kind == RunStarted {
			cancel()
		}
	})))
	spec := testSpec(t, "xalan", 0.3)
	_, err := e.Sweep(ctx, spec, SweepConfig{
		ThreadCounts: []int{4, 8, 16, 32, 48},
		Base:         vm.Config{Seed: 3},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
}

func TestEngineRunPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine()
	_, err := e.Run(ctx, testSpec(t, "xalan", 0.02), vm.Config{Threads: 2, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Simulations != 0 {
		t.Errorf("pre-canceled run still simulated: %+v", st)
	}
}

func TestEngineWithSeedDefault(t *testing.T) {
	e := NewEngine(WithSeed(77))
	spec := testSpec(t, "jython", 0.02)
	a, err := e.Run(context.Background(), spec, vm.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec, vm.Config{Threads: 2, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("WithSeed default did not map to the explicit-seed cache entry")
	}
}

// TestSuiteRepeatedFiguresHitCache reruns the paper's figure suite on
// one engine: the second run re-renders every artifact from memoized
// results without simulating anything.
func TestSuiteRepeatedFiguresHitCache(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithObserver(obs))
	p := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02})
	ctx := context.Background()

	first, err := e.RunPlan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	sims := obs.count(RunStarted)
	if sims == 0 {
		t.Fatal("first run simulated nothing")
	}
	second, err := e.RunPlan(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.count(RunStarted); got != sims {
		t.Errorf("repeated figures re-simulated: %d -> %d", sims, got)
	}
	if got, want := obs.count(ArtifactRendered), 2*len(p.Reports); got != want {
		t.Errorf("artifact events = %d, want %d", got, want)
	}
	for i := range first.Reports {
		if first.Reports[i].String() != second.Reports[i].String() {
			t.Errorf("report %s changed between runs", p.Reports[i].Name)
		}
	}
}

// TestSuiteConcurrentFigureGeneration runs the paper's figure suite from
// several goroutines on one engine: however the runs race, every
// (workload, thread count) point and ablation simulates exactly once.
func TestSuiteConcurrentFigureGeneration(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(4), WithObserver(obs))
	p := PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.RunPlan(ctx, p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Six workloads x two thread counts, plus the biased and
	// compartmented ablation points (the ablation baseline is the xalan
	// sweep's last point).
	if got := obs.count(RunStarted); got != 14 {
		t.Errorf("concurrent figure generation ran %d simulations, want 14", got)
	}
}

func TestResultCacheLRUEvicts(t *testing.T) {
	c := newResultCache(2)
	r1, r2, r3 := &vm.Result{Threads: 1}, &vm.Result{Threads: 2}, &vm.Result{Threads: 3}
	c.put("a", r1)
	c.put("b", r2)
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", r3)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, _ := c.get("a"); got != r1 {
		t.Error("a evicted or wrong")
	}
	if got, _ := c.get("c"); got != r3 {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestDisabledCacheStillRuns(t *testing.T) {
	obs := newCountingObserver()
	e := NewEngine(WithCache(0), WithObserver(obs))
	spec := testSpec(t, "jython", 0.02)
	cfg := vm.Config{Threads: 2, Seed: 3}
	if _, err := e.Run(context.Background(), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if got := obs.count(RunStarted); got != 2 {
		t.Errorf("uncached engine simulated %d times, want 2", got)
	}
	if st := e.Stats(); st.CachedResults != 0 {
		t.Errorf("disabled cache holds %d results", st.CachedResults)
	}
}

// panicRunner simulates normally except at 3 threads, where it panics
// the way a model bug would.
func panicRunner(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	if cfg.Threads == 3 {
		panic("model invariant broken")
	}
	return vm.RunContext(ctx, spec, cfg)
}

func TestEngineRecoversRunnerPanic(t *testing.T) {
	var (
		mu      sync.Mutex
		finErrs []error
	)
	obs := newCountingObserver()
	e := NewEngine(WithParallelism(1), WithRunner(panicRunner), WithObserver(obs),
		WithObserver(ObserverFunc(func(ev Event) {
			if ev.Kind == RunFinished {
				mu.Lock()
				finErrs = append(finErrs, ev.Err)
				mu.Unlock()
			}
		})))
	spec := testSpec(t, "xalan", 0.02)
	bad := vm.Config{Threads: 3, Seed: 7}

	for attempt := 1; attempt <= 2; attempt++ {
		res, err := e.Run(context.Background(), spec, bad)
		if err == nil || res != nil {
			t.Fatalf("attempt %d: panicking run returned (%v, %v), want an error", attempt, res, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "model invariant broken") || !strings.Contains(msg, "panicRunner") {
			t.Errorf("attempt %d: error lacks the panic value or the stack: %s", attempt, msg)
		}
		// Nothing was cached: the retry simulates again.
		if got := obs.count(RunStarted); got != attempt {
			t.Errorf("attempt %d: %d simulations started, want %d", attempt, got, attempt)
		}
	}
	if st := e.Stats(); st.CachedResults != 0 {
		t.Errorf("a failed run was cached: %+v", st)
	}
	mu.Lock()
	if len(finErrs) != 2 || finErrs[0] == nil || finErrs[1] == nil {
		t.Errorf("RunFinished errors = %v, want two non-nil", finErrs)
	}
	mu.Unlock()

	// The single worker slot was released: a healthy run still completes.
	if _, err := e.Run(context.Background(), spec, vm.Config{Threads: 2, Seed: 7}); err != nil {
		t.Fatalf("engine unusable after a recovered panic: %v", err)
	}
	if got := obs.maxInFlight(); got != 1 {
		t.Errorf("max in flight = %d, want 1", got)
	}
}
