package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"javasim/internal/gc"
	"javasim/internal/machine"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// TestRegistryDefaultMatchesSeedConfig is the differential guard for the
// machine registry: selecting the default model by name, selecting
// nothing at all, and passing the same topology anonymously must all be
// the same simulation, bit for bit, across the whole paper set. Only
// the self-label differs (anonymous configs carry no model name).
func TestRegistryDefaultMatchesSeedConfig(t *testing.T) {
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.02)
		cfg := Config{Threads: 8, Seed: 42}

		implicit, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s implicit: %v", spec.Name, err)
		}
		named := cfg
		named.MachineName = machine.DefaultModel
		byName, err := Run(spec, named)
		if err != nil {
			t.Fatalf("%s by name: %v", spec.Name, err)
		}
		anon := cfg
		anon.Machine = machine.Opteron6168()
		anonymous, err := Run(spec, anon)
		if err != nil {
			t.Fatalf("%s anonymous: %v", spec.Name, err)
		}

		if implicit.Machine != machine.DefaultModel {
			t.Errorf("%s: implicit run labeled %q, want default model", spec.Name, implicit.Machine)
		}
		if anonymous.Machine != "" {
			t.Errorf("%s: anonymous run labeled %q, want empty", spec.Name, anonymous.Machine)
		}
		if !reflect.DeepEqual(implicit, byName) {
			t.Errorf("%s: naming the default model changed the result", spec.Name)
		}
		anonymous.Machine = implicit.Machine
		if !reflect.DeepEqual(implicit, anonymous) {
			t.Errorf("%s: anonymous Opteron config diverged from registry default", spec.Name)
		}
	}
}

func TestUnknownMachineRejectedAtRun(t *testing.T) {
	_, err := Run(smallSpec(), Config{Threads: 4, Seed: 1, MachineName: "pdp-11"})
	if err == nil {
		t.Fatal("unknown machine name accepted")
	}
	if !strings.Contains(err.Error(), "pdp-11") || !strings.Contains(err.Error(), machine.DefaultModel) {
		t.Errorf("error %q should name the bad model and list known ones", err)
	}
}

// TestCMTMachineDeterminism replays the pipeline-sharing model: the
// strand-penalty sampling must not depend on anything but the virtual
// schedule.
func TestCMTMachineDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(smallSpec(), Config{Threads: 48, Seed: 7, MachineName: machine.ModelSparcT3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("sparc-t3-4 runs diverged:\ntotal %v vs %v", a.TotalTime, b.TotalTime)
	}
}

// TestBandwidthMachineDeterminism replays the memory-channel queue: the
// per-socket billing clocks must be part of the deterministic state.
func TestBandwidthMachineDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(smallSpec(), Config{Threads: 16, Seed: 7, MachineName: machine.ModelOpteronBW})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("opteron-6168-bw runs diverged:\ntotal %v vs %v", a.TotalTime, b.TotalTime)
	}
}

func TestBandwidthCeilingStretchesRuntime(t *testing.T) {
	base, err := Run(smallSpec(), Config{Threads: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Run(smallSpec(), Config{Threads: 8, Seed: 42, MachineName: machine.ModelOpteronBW})
	if err != nil {
		t.Fatal(err)
	}
	if base.MemTraffic != 0 || base.MemBWStall != 0 {
		t.Errorf("unlimited machine billed traffic: %d bytes, %v stall", base.MemTraffic, base.MemBWStall)
	}
	if bw.MemTraffic == 0 {
		t.Error("bandwidth-limited machine billed no traffic")
	}
	if bw.MemBWStall == 0 {
		t.Error("bandwidth-limited machine never stalled — ceiling not binding on an allocation-heavy run")
	}
	if bw.TotalTime <= base.TotalTime {
		t.Errorf("bandwidth ceiling did not stretch runtime: %v <= %v", bw.TotalTime, base.TotalTime)
	}
}

// TestPipelineSharingSlowsOversubscribedCores isolates the CMT penalty:
// the same topology with an issue width wide enough for every strand
// must beat the 2-wide pipeline once cores carry three runnable strands.
func TestPipelineSharingSlowsOversubscribedCores(t *testing.T) {
	narrow := machine.SparcT3_4()
	wide := narrow
	wide.IssueWidth = narrow.ThreadsPerCore // every strand gets an issue slot

	shared, err := Run(smallSpec(), Config{Threads: 48, Seed: 42, Machine: narrow})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(smallSpec(), Config{Threads: 48, Seed: 42, Machine: wide})
	if err != nil {
		t.Fatal(err)
	}
	if shared.TotalTime <= free.TotalTime {
		t.Errorf("3 strands on a 2-wide pipeline should be slower: shared=%v wide=%v",
			shared.TotalTime, free.TotalTime)
	}
}

// TestGCPauseAccounting checks that the pause records carry all the
// stop-the-world time: on every machine model and GC policy, the pauses
// plus time-to-safepoint add up to GCTime, and the phase split, the
// collector's stats and the pause records agree. Bandwidth-limited
// models stretch pauses by the copy traffic's backlog; the stretch must
// land in the record, not only in GCTime.
func TestGCPauseAccounting(t *testing.T) {
	specs := []workload.Spec{smallSpec(), workload.H2Spec().Scale(0.05)}
	for _, mdl := range machine.ModelNames() {
		for _, policy := range gc.PolicyNames() {
			for _, spec := range specs {
				for _, threads := range []int{8, 48} {
					cfg := Config{Threads: threads, Seed: 3, HeapFactor: 1.6, MachineName: mdl, GCPolicy: policy}
					id := fmt.Sprintf("%s/%s/%s/%d", mdl, policy, spec.Name, threads)
					res, err := Run(spec, cfg)
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					var pauses sim.Time
					for _, p := range res.GCPauses {
						pauses += p.Duration
						if p.Phases.Total() != p.Duration {
							t.Errorf("%s: %v pause of %v has phases summing to %v", id, p.Kind, p.Duration, p.Phases.Total())
						}
					}
					if pauses+res.SafepointTime != res.GCTime {
						t.Errorf("%s: pauses %v + safepoint %v != GCTime %v", id, pauses, res.SafepointTime, res.GCTime)
					}
					if got := res.GCPhases.Total(); got != pauses {
						t.Errorf("%s: GCPhases total %v != pauses %v", id, got, pauses)
					}
					if got := res.GCStats.TotalTime(); got != pauses {
						t.Errorf("%s: GCStats time %v != pauses %v", id, got, pauses)
					}
				}
			}
		}
	}
}
