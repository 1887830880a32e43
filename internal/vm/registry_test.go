package vm

import (
	"fmt"
	"testing"

	"javasim/internal/objmodel"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// observeRegistry installs registryObserver for the rest of the test and
// returns a function that runs spec under cfg and hands back the result,
// the run's registry and its heap size.
func observeRegistry(t *testing.T) func(workload.Spec, Config) (*Result, *objmodel.Registry, int64) {
	var (
		reg       *objmodel.Registry
		heapBytes int64
	)
	registryObserver = func(r *objmodel.Registry, h int64) { reg, heapBytes = r, h }
	t.Cleanup(func() { registryObserver = nil })
	return func(spec workload.Spec, cfg Config) (*Result, *objmodel.Registry, int64) {
		t.Helper()
		reg = nil
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if reg == nil {
			t.Fatalf("%s: registry observer not called", spec.Name)
		}
		return res, reg, heapBytes
	}
}

// TestRegistryBoundedByHeap pins slot recycling: the registry holds a
// record only while the collector tracks the object, and every tracked
// object occupies at least 16 heap bytes, so the registry never needs more
// than heap/16 slots (rounded up to a chunk), however many objects the
// run allocates.
func TestRegistryBoundedByHeap(t *testing.T) {
	run := observeRegistry(t)
	check := func(name string, spec workload.Spec, cfg Config) {
		t.Helper()
		res, reg, heapBytes := run(spec, cfg)
		bound := (heapBytes/16 + objmodel.ChunkSize - 1) / objmodel.ChunkSize * objmodel.ChunkSize
		if res.ObjectsAllocated == 0 || int64(reg.Cap()) > bound {
			t.Errorf("%s: registry holds %d slots for %d objects, heap bound %d (%d heap bytes)",
				name, reg.Cap(), res.ObjectsAllocated, bound, heapBytes)
		}
	}

	for _, spec := range workload.PaperSet() {
		spec = spec.Scale(0.1)
		for _, threads := range []int{8, 48} {
			check(fmt.Sprintf("%s/%d", spec.Name, threads), spec, Config{Threads: threads, Seed: 11})
		}
	}
	xalan := workload.XalanSpec().Scale(0.05)
	check("xalan/iterations=3", xalan, Config{Threads: 8, Seed: 3, Iterations: 3})

	server := openServer()
	cfg := openCfg(traffic.ProcessPoisson, 150000)
	cfg.Traffic.Requests = server.TotalUnits / 2
	check("server/poisson", server, cfg)
}

// TestRegistryDoesNotGrowWithIterations: six iterations allocate six
// times the objects, but the collector tracks only what the heap holds, so
// the registry stays a small fraction of the allocation count.
func TestRegistryDoesNotGrowWithIterations(t *testing.T) {
	run := observeRegistry(t)
	res, reg, _ := run(workload.XalanSpec().Scale(0.05), Config{Threads: 8, Seed: 3, Iterations: 6})
	if int64(reg.Cap())*5 >= res.ObjectsAllocated {
		t.Errorf("registry holds %d slots for %d objects allocated, want under a fifth",
			reg.Cap(), res.ObjectsAllocated)
	}
}
