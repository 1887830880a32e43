// Scalability study: the paper's core experiment end to end. Sweeps all
// six DaCapo models across thread counts with cores = threads, classifies
// each as scalable or non-scalable (§II-C), and prints the factor
// decomposition that explains *why* — sequential fraction, lock
// contention growth, GC share growth, lifespan shift, and work imbalance.
//
// The study is a declarative plan: one scenario per benchmark plus the
// classification and factor reports over all of them. Engine.RunPlan
// runs the sweeps on a bounded worker pool while an observer streams
// progress, and the drill-down reads the same scenario sweeps the
// reports were rendered from — the engine simulates each (workload,
// thread count) exactly once.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"javasim"
)

func main() {
	ctx := context.Background()
	eng := javasim.NewEngine(
		javasim.WithParallelism(4),
		javasim.WithObserver(javasim.ObserverFunc(func(ev javasim.Event) {
			if ev.Kind == javasim.SweepDone {
				fmt.Fprintf(os.Stderr, "sweep done: %s\n", ev.Workload)
			}
		})),
	)

	// Scale 0.5 halves each workload so the whole study runs in seconds;
	// set Scale to 1 for the full-size runs.
	plan := &javasim.Plan{
		Name:         "scalability-study",
		Seed:         42,
		Scale:        0.5,
		ThreadCounts: []int{4, 8, 16, 32, 48},
		Reports: []javasim.ReportSpec{
			{Name: "classification", Kind: javasim.ReportClassification},
			{Name: "factors", Kind: javasim.ReportFactors},
		},
	}
	for _, spec := range javasim.PaperBenchmarks() {
		plan.Scenarios = append(plan.Scenarios, javasim.Scenario{
			Name: spec.Name, Workload: javasim.NameWorkload(spec.Name),
		})
	}

	pr, err := eng.RunPlan(ctx, plan)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range pr.Reports {
		t.WriteASCII(os.Stdout)
		fmt.Println()
	}

	// Drill into one scalable workload: show the paper's headline series
	// from the scenario's sweep — no further simulation.
	sw := pr.Scenario("xalan").Sweep()
	fmt.Println("xalan detail (speedup | mutator | gc | contentions | objects dying <1KB):")
	speedups := sw.Curve().Speedups()
	cdf := sw.CDFBelow(1024)
	for i, p := range sw.Points {
		fmt.Printf("  t=%-3d %5.2fx  %10v  %10v  %8d  %5.1f%%\n",
			p.Threads, speedups[i],
			p.Result.MutatorTime, p.Result.GCTime,
			p.Result.LockContentions, 100*cdf[i])
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d simulations, %d cache hits\n", st.Simulations, st.CacheHits)
}
