package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestOpSize pins the unit op record at 32 bytes: units, scratch
// buffers, prefetch blocks and sweep tapes are all slices of it.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 32 {
		t.Errorf("Op is %d bytes, want 32", got)
	}
}

// takeAll drains r round-robin over its threads like drainUnits, but
// copies each unit's ops, since a run recycling buffers overwrites them.
func takeAll(r *Run) [][]Op {
	var units [][]Op
	for done := 0; done < r.Threads(); {
		done = 0
		for tid := 0; tid < r.Threads(); tid++ {
			u, ok := r.Take(tid)
			if !ok {
				done++
				continue
			}
			units = append(units, slices.Clone(u.Ops))
		}
	}
	return units
}

// TestPrefetchMatchesInline pins prefetched generation at the workload
// layer: every unit equals the inline one, and once the producer has
// handed over the last unit the run generates live from exactly where
// inline generation stands.
func TestPrefetchMatchesInline(t *testing.T) {
	for _, spec := range []Spec{XalanSpec().Scale(0.05), H2Spec().Scale(0.05), EclipseSpec().Scale(0.05)} {
		const threads, seed = 4, 7
		inline, err := NewRun(spec, threads, seed)
		if err != nil {
			t.Fatal(err)
		}
		inline.ReuseUnitBuffers()
		pre, _ := NewRun(spec, threads, seed)
		if pre.Prefetch() {
			t.Fatalf("%s: Prefetch started without reusable unit buffers", spec.Name)
		}
		pre.ReuseUnitBuffers()
		if !pre.Prefetch() {
			t.Fatalf("%s: Prefetch did not start", spec.Name)
		}
		want, got := takeAll(inline), takeAll(pre)
		if len(got) != spec.TotalUnits || len(want) != len(got) {
			t.Fatalf("%s: prefetched %d units, inline %d, spec %d", spec.Name, len(got), len(want), spec.TotalUnits)
		}
		for i := range want {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("%s: unit %d differs under prefetch:\n  inline:     %+v\n  prefetched: %+v",
					spec.Name, i, want[i], got[i])
			}
		}
		if pre.pf != nil {
			t.Errorf("%s: ring still held after the last unit", spec.Name)
		}
		for i := 0; i < 5; i++ {
			if w, g := inline.TakeOpen(0), pre.TakeOpen(0); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: live unit %d after the ring differs:\n  inline:     %+v\n  prefetched: %+v",
					spec.Name, i, w, g)
			}
		}
	}
}

// TestPrefetchProducerPanic injects a panic into the producer goroutine
// and requires it to resurface on the taking goroutine, where a caller
// can recover it, rather than kill the process.
// The producer goroutine carries the javasim=prefetch pprof label, which
// a goroutine profile taken while it runs shows.
func TestPrefetchProducerLabel(t *testing.T) {
	inside, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	prefetchHook = func() {
		once.Do(func() {
			close(inside)
			<-release
		})
	}
	defer func() { prefetchHook = nil }()

	r, _ := NewRun(XalanSpec().Scale(0.05), 4, 1)
	r.ReuseUnitBuffers()
	if !r.Prefetch() {
		t.Fatal("Prefetch did not start")
	}
	<-inside
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(release)
	r.StopPrefetch()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"javasim":"prefetch"`) {
		t.Errorf("goroutine profile has no javasim=prefetch label:\n%s", buf.String())
	}
}

func TestPrefetchProducerPanic(t *testing.T) {
	const failAt = 100
	units := 0
	prefetchHook = func() {
		if units++; units == failAt {
			panic("injected producer fault")
		}
	}
	defer func() { prefetchHook = nil }()

	r, _ := NewRun(XalanSpec().Scale(0.05), 4, 1)
	r.ReuseUnitBuffers()
	if !r.Prefetch() {
		t.Fatal("Prefetch did not start")
	}
	taken, recovered := 0, any(nil)
	func() {
		defer func() { recovered = recover() }()
		for tid := 0; ; tid = (tid + 1) % 4 {
			if _, ok := r.Take(tid); !ok {
				return
			}
			taken++
		}
	}()
	r.StopPrefetch()
	if recovered == nil {
		t.Fatalf("took %d units without the injected panic surfacing", taken)
	}
	if msg := fmt.Sprint(recovered); !strings.Contains(msg, "injected producer fault") {
		t.Errorf("recovered %q, want the injected panic", msg)
	}
	if taken >= failAt {
		t.Errorf("took %d units, but unit %d was never generated", taken, failAt)
	}
}
