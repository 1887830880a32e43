package core

import (
	"bytes"
	"testing"

	"javasim/internal/fit"
	"javasim/internal/heap"
)

// FuzzLoadPlan throws arbitrary bytes at the plan loader. Whatever the
// input, LoadPlan must either return a plan its own Validate accepts or
// a clear error — never panic, and never let a degenerate usl sweep
// (fewer than fit.MinPoints thread counts, which the fitter would turn
// into a mid-plan failure) through validation. The seed corpus covers
// the usl report schema specifically: valid plans, short sweeps,
// unknown fields/kinds/metrics/outputs, and rate-sweep cross-references.
func FuzzLoadPlan(f *testing.F) {
	seeds := []string{
		``,
		`not json`,
		`{}`,
		`{"Scenarios":[]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		// A valid usl plan: report plus per-scenario output over a
		// 3-point sweep.
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan","Outputs":["usl"]}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		// Degenerate sweeps: a usl report or output over < 3 points must
		// be rejected at validation time with a clear error, not NaN.
		`{"ThreadCounts":[4,32],"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan","ThreadCounts":[8],"Outputs":["usl"]}]}`,
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan","ThreadCounts":[4,32]}],"Reports":[{"Name":"r","Kind":"usl","Scenarios":["a"]}]}`,
		// Unknown fields, kinds, metrics, outputs.
		`{"Scenarios":[{"Name":"a","Workload":"xalan","Sigma":1}]}`,
		`{"ThreadCounts":[2,4,8],"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"lsu"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"}],"Reports":[{"Name":"r","Kind":"series","Metric":"sigma"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan","Outputs":["lsu"]}]}`,
		// usl across a rate sweep: must be rejected (the fit reads the
		// thread axis).
		`{"Scenarios":[{"Name":"a","Workload":"server","Traffic":{"Process":"poisson","Rates":[100,200]}}],"Reports":[{"Name":"r","Kind":"usl"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"server","Traffic":{"Process":"poisson","Rates":[100,200]},"Outputs":["usl"]}]}`,
		// Structural traps around validation edges.
		`{"ThreadCounts":[8,4],"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		`{"Scale":7,"Scenarios":[{"Name":"a","Workload":"xalan"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"xalan"},{"Name":"a","Workload":"xalan"}]}`,
		`{"Scenarios":[{"Name":"a","Workload":"no-such-workload"}]}`,
		// A heap factor in (0, 1) cannot size a heap; it must fail at
		// load, not panic later on an engine goroutine.
		`{"Scenarios":[{"Name":"a","Workload":"xalan","Overrides":{"HeapFactor":0.5}}]}`,
		// A heap factor so large the heap overflows int64 bytes must fail
		// at load too, not wrap negative and fail mid-run.
		`{"Scale":0.02,"ThreadCounts":[2],"Scenarios":[{"Name":"a","Workload":"xalan","Overrides":{"HeapFactor":1e15}}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPlan(bytes.NewReader(data))
		if err != nil {
			if p != nil {
				t.Fatalf("LoadPlan returned a plan alongside error %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("LoadPlan accepted a plan its own Validate rejects: %v", err)
		}
		// Every admitted heap factor must be one the heap can be built
		// with for the scenario's workload at its scale.
		for i := range p.Scenarios {
			sc := &p.Scenarios[i]
			if o := sc.Overrides; o != nil && o.HeapFactor != 0 {
				spec, err := sc.Workload.Resolve()
				if err != nil {
					t.Fatal(err)
				}
				spec = spec.Scale(sc.scale(p))
				hcfg := heap.Config{MinHeap: spec.MinHeapBytes(), Factor: o.HeapFactor,
					NewRatio: o.NewRatio, SurvivorRatio: o.SurvivorRatio}
				if err := hcfg.WithDefaults().Validate(); err != nil {
					t.Fatalf("scenario %q passed validation with %v", sc.Name, err)
				}
			}
		}
		// The fitter's precondition must be enforced at the schema
		// level: anything declaring a usl artifact sweeps enough thread
		// counts to fit.
		for i := range p.Scenarios {
			sc := &p.Scenarios[i]
			for _, out := range sc.Outputs {
				if out == OutputUSL && sc.Traffic == nil && len(sc.threadCounts(p)) < fit.MinPoints {
					t.Fatalf("scenario %q passed validation with a %d-point usl sweep", sc.Name, len(sc.threadCounts(p)))
				}
			}
		}
		for i := range p.Reports {
			rs := &p.Reports[i]
			if rs.Kind != ReportUSL {
				continue
			}
			for _, name := range p.reportScenarios(rs) {
				for j := range p.Scenarios {
					sc := &p.Scenarios[j]
					if sc.Name == name && sc.Traffic == nil && len(sc.threadCounts(p)) < fit.MinPoints {
						t.Fatalf("report %q passed validation over scenario %q's %d-point sweep", rs.Name, name, len(sc.threadCounts(p)))
					}
				}
			}
		}
	})
}
