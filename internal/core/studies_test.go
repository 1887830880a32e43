package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"javasim/internal/machine"
	"javasim/internal/report"
)

func studiesConfig() ExperimentConfig {
	return ExperimentConfig{ThreadCounts: []int{2, 8}, Scale: 0.05, Seed: 17}
}

// studyEngine is shared by the study tests so the plan simulates once.
var studyEngine = NewEngine()

// studyReport runs the small studies plan and returns one of its reports.
func studyReport(t *testing.T, name string) *report.Table {
	t.Helper()
	p := StudiesPlan(studiesConfig())
	pr, err := studyEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return planReport(t, p, pr, name)
}

// studyRow returns the cells of a compare report's named metric row,
// one per column.
func studyRow(t *testing.T, tb *report.Table, metric string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		if row[0] == metric {
			return row[1:]
		}
	}
	t.Fatalf("%s has no %q row", tb.Title, metric)
	return nil
}

func TestStudyHeapFactor(t *testing.T) {
	tb := studyReport(t, "StudyHeapFactor")
	if len(tb.Headers) != 6 {
		t.Fatalf("columns = %d, want 5 heap factors", len(tb.Headers)-1)
	}
	if !strings.Contains(tb.Title, "heap factor") {
		t.Error("title wrong")
	}
}

func TestStudyGCWorkersMonotone(t *testing.T) {
	tb := studyReport(t, "StudyGCWorkers")
	if len(tb.Headers) != 7 {
		t.Fatalf("columns = %d, want 6 worker counts", len(tb.Headers)-1)
	}
	// The first and last columns bracket the sweep; GC time with 1
	// worker must differ from GC time with 33 (parallelism helps).
	gc := studyRow(t, tb, "gc time")
	if gc[0] == gc[len(gc)-1] {
		t.Error("worker count had no effect on GC time")
	}
}

func TestStudyTenuring(t *testing.T) {
	tb := studyReport(t, "StudyTenuring")
	if len(tb.Headers) != 5 {
		t.Fatalf("columns = %d, want 4 thresholds", len(tb.Headers)-1)
	}
	// Threshold 1 promotes everything that survives once: zero survivor
	// copying.
	if copied := studyRow(t, tb, "copied MB"); copied[0] != "0.00" {
		t.Errorf("threshold-1 copied %s MB, want 0.00 (immediate promotion)", copied[0])
	}
}

func TestStudyNUMA(t *testing.T) {
	tb := studyReport(t, "StudyNUMA")
	if len(tb.Headers) != 3 {
		t.Fatalf("columns = %d, want 2", len(tb.Headers)-1)
	}
	if !strings.Contains(tb.Headers[1], "numa") || !strings.Contains(tb.Headers[2], "flat") {
		t.Errorf("machine labels wrong: %v", tb.Headers)
	}
	// The registered flat model is exactly the testbed minus its NUMA
	// penalties.
	mdl, err := machine.LookupModel(machine.ModelOpteronFlat)
	if err != nil {
		t.Fatal(err)
	}
	want := machine.Opteron6168()
	want.RemoteAccessPerHop, want.MigrationCost = 0, 0
	if got := mdl.Config(); !reflect.DeepEqual(got, want) {
		t.Errorf("flat model = %+v, want %+v", got, want)
	}
}

func TestStudyCollector(t *testing.T) {
	tb := studyReport(t, "StudyCollector")
	if len(tb.Headers) != 3 {
		t.Fatalf("columns = %d, want 2", len(tb.Headers)-1)
	}
	if !strings.Contains(tb.Headers[2], "concurrent") {
		t.Errorf("second column %q, want concurrent mode", tb.Headers[2])
	}
}

func TestStudyPretenuring(t *testing.T) {
	tb := studyReport(t, "StudyPretenuring")
	if len(tb.Headers) != 3 {
		t.Fatalf("columns = %d, want 2", len(tb.Headers)-1)
	}
	pretenured := studyRow(t, tb, "pretenured")
	if pretenured[0] != "0" {
		t.Errorf("baseline diverted %s objects, want 0", pretenured[0])
	}
	if pretenured[1] == "0" {
		t.Error("pretenuring diverted no objects")
	}
}

func TestAllStudies(t *testing.T) {
	p := StudiesPlan(studiesConfig())
	pr, err := studyEngine.RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Six compare reports plus the replication scenario's output.
	if got := len(pr.Tables()); got != 7 {
		t.Errorf("studies = %d, want 7", got)
	}
	rep := pr.Scenario("replication")
	if len(rep.Sweeps) != 5 || len(rep.Tables) != 1 {
		t.Errorf("replication: %d repeats, %d tables; want 5 and 1", len(rep.Sweeps), len(rep.Tables))
	}
	// Every study runs at the top of the configured sweep.
	for _, sr := range pr.Scenarios {
		if th := sr.Sweep().Points[0].Threads; len(sr.Sweep().Points) != 1 || th != 8 {
			t.Errorf("scenario %s ran %d points at %d threads, want one at 8", sr.Name, len(sr.Sweep().Points), th)
		}
	}
}

// TestBuiltinPlansRoundTrip asserts both built-in plans survive
// WriteJSON → LoadPlan unchanged, so they can be saved as plan files and
// edited.
func TestBuiltinPlansRoundTrip(t *testing.T) {
	for _, p := range []*Plan{
		PaperPlan(ExperimentConfig{}),
		PaperPlan(ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02, Seed: 12345}),
		StudiesPlan(ExperimentConfig{}),
		StudiesPlan(studiesConfig()),
	} {
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadPlan(&buf)
		if err != nil {
			t.Fatalf("plan %q does not load back: %v", p.Name, err)
		}
		if !reflect.DeepEqual(loaded, p) {
			t.Errorf("plan %q changed in the JSON round trip", p.Name)
		}
	}
}
