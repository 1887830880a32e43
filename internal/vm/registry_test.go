package vm

import (
	"fmt"
	"testing"

	"javasim/internal/objmodel"
	"javasim/internal/traffic"
	"javasim/internal/workload"
)

// TestRegistryNeverRegrows pins the object registry's pre-sizing: a run
// allocates at most registryCapacity objects, so the registry's backing
// array is allocated once at that capacity and never replaced (append
// only ever grows the capacity when it reallocates).
func TestRegistryNeverRegrows(t *testing.T) {
	var reg *objmodel.Registry
	registryObserver = func(r *objmodel.Registry) { reg = r }
	defer func() { registryObserver = nil }()

	check := func(name string, spec workload.Spec, cfg Config) {
		t.Helper()
		reg = nil
		res, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reg == nil {
			t.Fatalf("%s: registry observer not called", name)
		}
		bound := registryCapacity(spec, cfg.withDefaults(), cfg.Traffic.Open())
		if res.ObjectsAllocated == 0 || res.ObjectsAllocated > int64(bound) {
			t.Errorf("%s: %d objects allocated, pre-sized bound %d", name, res.ObjectsAllocated, bound)
		}
		if reg.Cap() != bound {
			t.Errorf("%s: registry capacity %d at run end, pre-sized %d — the backing array was replaced",
				name, reg.Cap(), bound)
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
