package workload

import "testing"

func TestServerSpecValid(t *testing.T) {
	s := ServerSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Phases != 0 {
		t.Error("server workload should be barrier-free (steady state)")
	}
	if s.Distribution != Queue {
		t.Error("server workload should draw from a shared request queue")
	}
}

func TestExtensionsNotInAll(t *testing.T) {
	// The paper's experiment set must stay exactly the six benchmarks:
	// every registered workload outside it is an extension.
	paper := map[string]bool{}
	for _, s := range PaperSet() {
		paper[s.Name] = true
	}
	extensions := 0
	for _, s := range Registered() {
		if paper[s.Name] != IsPaperBenchmark(s.Name) {
			t.Errorf("%s: in PaperSet %v, IsPaperBenchmark %v", s.Name, paper[s.Name], IsPaperBenchmark(s.Name))
		}
		if !paper[s.Name] {
			extensions++
		}
	}
	if len(paper) != 6 || extensions == 0 {
		t.Errorf("paper set %d, extensions %d", len(paper), extensions)
	}
}

func TestByNameFindsExtensions(t *testing.T) {
	s, ok := Lookup("server")
	if !ok || s.Name != "server" {
		t.Error("Lookup(server) failed")
	}
}

func TestServerDrainsAndDistributes(t *testing.T) {
	spec := ServerSpec().Scale(0.01)
	r, err := NewRun(spec, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		progress := false
		for tid := 0; tid < 8; tid++ {
			if _, ok := r.Take(tid); ok {
				total++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if total != spec.TotalUnits {
		t.Errorf("drained %d, want %d", total, spec.TotalUnits)
	}
}
