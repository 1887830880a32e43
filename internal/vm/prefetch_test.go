package vm

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"javasim/internal/sim"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// The prefetch contract: a closed run whose units a producer goroutine
// draws ahead produces the same Result as one generating inline
// (DisableSnapshot), and every exit path stops the producer.

// needTwoProcs makes the process eligible for prefetch for the rest of
// the test, whatever GOMAXPROCS the suite runs under.
func needTwoProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// countPrefetches installs prefetchObserver for the rest of the test and
// returns the number of runs it has seen start a producer.
func countPrefetches(t *testing.T) *int {
	t.Helper()
	n := new(int)
	prefetchObserver = func() { *n++ }
	t.Cleanup(func() { prefetchObserver = nil })
	return n
}

func TestPrefetchDifferential(t *testing.T) {
	needTwoProcs(t)
	engaged := countPrefetches(t)
	lusearch := workload.LusearchSpec().Scale(0.03)
	cases := []struct {
		name string
		spec workload.Spec
		cfg  Config
	}{
		{"queue-phased", workload.XalanSpec().Scale(0.04), Config{}},
		{"capped-phased", workload.EclipseSpec().Scale(0.04), Config{}},
		{"zipf-phased", workload.H2Spec().Scale(0.05), Config{}},
		{"queue-phase-free", workload.ServerSpec().Scale(0.03), Config{}},
		{"iterations", lusearch, Config{Iterations: 3}},
	}
	for _, c := range cases {
		if c.spec.TotalUnits <= 4*64 {
			t.Fatalf("%s: %d units fit in one ring, which would never wrap", c.name, c.spec.TotalUnits)
		}
		for _, threads := range []int{1, 8, 48} {
			cfg := c.cfg
			cfg.Threads, cfg.Seed = threads, 7
			*engaged = 0
			pre, err := Run(c.spec, cfg)
			if err != nil {
				t.Fatalf("%s/%d prefetched: %v", c.name, threads, err)
			}
			if want := max(1, cfg.Iterations); *engaged != want {
				t.Errorf("%s/%d: prefetch engaged in %d iterations, want %d", c.name, threads, *engaged, want)
			}
			cfg.DisableSnapshot = true
			*engaged = 0
			inline, err := Run(c.spec, cfg)
			if err != nil {
				t.Fatalf("%s/%d inline: %v", c.name, threads, err)
			}
			if *engaged != 0 {
				t.Errorf("%s/%d: DisableSnapshot run still prefetched", c.name, threads)
			}
			diffResults(t, c.name, pre, inline)
		}
	}
}

// TestPrefetchSkips pins where prefetch does not engage: runs replaying a
// snapshot tape, open-system runs, whose unit count the arrival process
// decides, and runs started while simulations already fill every core.
func TestPrefetchSkips(t *testing.T) {
	needTwoProcs(t)
	engaged := countPrefetches(t)

	spec := workload.XalanSpec().Scale(0.04)
	cfg := Config{Threads: 8, Seed: 3, Iterations: 2}
	snap, err := NewSnapshot(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(ContextWithSnapshot(context.Background(), snap), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if *engaged != 0 {
		t.Errorf("tape-replayed run prefetched in %d iterations", *engaged)
	}

	open := Config{Threads: 8, Seed: 3, Traffic: traffic.Config{
		Process: traffic.ProcessPoisson, RatePerSec: 20000, Requests: 600,
	}}
	if _, err := Run(workload.ServerSpec(), open); err != nil {
		t.Fatal(err)
	}
	if *engaged != 0 {
		t.Errorf("open-system run prefetched")
	}

	busy := int32(runtime.GOMAXPROCS(0)) - 1 // this run fills the last core
	simulations.Add(busy)
	_, err = Run(spec, Config{Threads: 8, Seed: 3})
	simulations.Add(-busy)
	if err != nil {
		t.Fatal(err)
	}
	if *engaged != 0 {
		t.Errorf("run prefetched while simulations filled every core")
	}
}

// TestPrefetchStopsOnEveryExit runs prefetching runs that end early —
// canceled, failed with OutOfMemoryError, stopped by the virtual-time
// guard — and requires each to leave no producer goroutine behind.
func TestPrefetchStopsOnEveryExit(t *testing.T) {
	needTwoProcs(t)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Canceling ctx as each producer starts kills the canceled run
	// mid-stream; the other runs do not use ctx.
	engaged := 0
	prefetchObserver = func() { engaged++; cancel() }
	defer func() { prefetchObserver = nil }()

	oom := workload.XalanSpec().Scale(0.1)
	oom.FracIntraBurst, oom.FracCrossUnit, oom.FracLongLived = 0, 0, 0.5
	oom.MinHeapMB = 1
	exits := []struct {
		name    string
		ctx     context.Context
		spec    workload.Spec
		cfg     Config
		wantErr func(error) bool
	}{
		{"canceled", ctx, workload.XalanSpec().Scale(0.2), Config{Threads: 8, Seed: 1},
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"out-of-memory", context.Background(), oom, Config{Threads: 4, Seed: 1, HeapFactor: 1},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "OutOfMemoryError") }},
		{"virtual-time-guard", context.Background(), workload.XalanSpec().Scale(0.2),
			Config{Threads: 8, Seed: 1, MaxVirtualTime: sim.Millisecond},
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeded") }},
	}
	for _, e := range exits {
		engaged = 0
		_, err := RunContext(e.ctx, e.spec, e.cfg)
		if !e.wantErr(err) {
			t.Fatalf("%s: err = %v", e.name, err)
		}
		if engaged != 1 {
			t.Fatalf("%s: prefetch engaged %d times, want 1", e.name, engaged)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the run, %d before: producer leaked",
					e.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
