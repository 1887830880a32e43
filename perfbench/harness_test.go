package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"javasim/internal/fit"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90, ok := tailQuantile(xs, 0.9)
	if !ok || math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v (reportable %v), want 90.1 reportable", p90, ok)
	}
	if _, ok := tailQuantile(xs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it but was reportable")
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 0}}
	// Covered: [10,40) once despite the overlap, [90,100) clipped.
	if got := selfTime(parent, children); got != 60 {
		t.Fatalf("selfTime = %v, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime with no children = %v, want 100", got)
	}
}

func TestPoolBusyAndTailIdle(t *testing.T) {
	w := interval{0, 100}
	runs := []interval{{0, 60}, {0, 100}, {60, 80}}
	if got := busyFrac(w, runs, 2); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("busyFrac = %v, want 0.9", got)
	}
	// Both slots busy on [0,80); one idles on [80,100).
	if got := tailIdle(w, runs, 2); got != 20 {
		t.Fatalf("tailIdle = %v, want 20", got)
	}
	// A straggler: one run holds the pool for its last 70 units.
	straggler := []interval{{0, 30}, {0, 100}}
	if got := tailIdle(w, straggler, 2); got != 70 {
		t.Fatalf("tailIdle with a straggler = %v, want 70", got)
	}
	// An empty window is idle throughout.
	if got := tailIdle(interval{0, 50}, nil, 2); got != 50 {
		t.Fatalf("tailIdle of an empty window = %v, want 50", got)
	}
}

func TestOpSeedIsAFixedCycle(t *testing.T) {
	seen := map[uint64]bool{}
	for j := 0; j < 28; j++ {
		s := opSeed(7, j)
		if s == 0 || s > 1<<40 || seen[s] {
			t.Fatalf("opSeed(7, %d) = %d: zero, too large or repeated", j, s)
		}
		if opSeed(7, j) != s {
			t.Fatal("opSeed is not deterministic")
		}
		seen[s] = true
	}
	if opSeed(7, 0) == opSeed(8, 0) {
		t.Fatal("different run seeds gave the same op seed")
	}
}

func TestDigestIsStable(t *testing.T) {
	spec, _ := workload.Lookup("xalan")
	spec = spec.Scale(0.02)
	cfg := vm.Config{Threads: 4, Seed: 11}
	run := func(cfg vm.Config) string {
		res, err := vm.RunContext(context.Background(), spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := digestResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := run(cfg)
	if got := run(cfg); got != want {
		t.Fatal("two runs of one config digest differently")
	}
	plain := cfg
	plain.DisableFusion, plain.DisableSnapshot = true, true
	if got := run(plain); got != want {
		t.Fatal("the reference path digests differently from the default path")
	}
	other := cfg
	other.Seed++
	if got := run(other); got == want {
		t.Fatal("different seeds digest the same")
	}

	// A result that went through the store's JSON encoding digests the same.
	res, _ := vm.RunContext(context.Background(), spec, cfg)
	b, _ := json.Marshal(res)
	var back vm.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got, _ := digestResult(&back); got != want {
		t.Fatal("JSON round trip changed the digest")
	}
}

func TestCPUSharesBucketByLayer(t *testing.T) {
	pts, err := fit.Series([]int{1, 2, 4, 8, 16}, []float64{10, 19, 34, 52, 61})
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		if _, err := fit.Both(pts); err != nil {
			t.Error(err)
			break
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	if len(shares) != len(layers)+2 {
		t.Fatalf("%d buckets, want %d: %v", len(shares), len(layers)+2, shares)
	}
	if shares["fit"] < 0.5 {
		t.Fatalf("fit share %v of a loop over fit.Both, want most of it: %v", shares["fit"], shares)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte{0x0a, 0xff}); err == nil {
		t.Fatal("truncated profile parsed")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the harness's metric lists and the
// benchmark declaration at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the harness %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// TestDaemonWorkloadsEndToEnd runs each daemon workload for a second,
// untraced and traced, from the repository root: long enough for the
// CPU profile of the fastest, daemon-hot, to hold samples.
func TestDaemonWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	t.Chdir("..")
	// The counter each kind's traced run must show.
	crossed := map[string][]string{
		"daemon-cold": {"core.simulations", "store.writes"},
		"daemon-hot":  {"core.memory_hits"},
		"daemon-disk": {"core.disk_hits", "store.hits"},
	}
	for _, name := range []string{"daemon-cold", "daemon-hot", "daemon-disk"} {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), io.Discard, name, 3, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v, %d of %d failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, d := range want {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%v: %s missing", name, traced, d.name)
				}
			}
			if !traced {
				continue
			}
			var sum float64
			for _, l := range append(layers, bucketRuntime, bucketOther) {
				sum += res.Metrics["cpu."+l].Value
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: cpu shares sum to %v", name, sum)
			}
			for _, m := range crossed[name] {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, m, res.Metrics[m].Value)
				}
			}
		}
	}
}
