// Benchmark harness: one end-to-end benchmark regenerating the paper's
// whole evaluation through the built-in PaperPlan, plus the VM and sweep
// benchmarks. BenchmarkPaperPlan reports each figure's headline statistic
// via b.ReportMetric, so `go test -bench=. -benchmem` doubles as a shape
// check (the E1-E7 criteria in docs/paper.md):
//
//	E1 Fig1a  xalan-acq-growth-x      lock acquisitions, last/first thread count
//	E2 Fig1b  xalan-cont-growth-x     lock contentions, last/first
//	E3 Fig1c  eclipse-cdf1k-shift-pt  eclipse CDF@1KB shift (flat expected)
//	E4 Fig1d  xalan-cdf1k-shift-pt    xalan CDF@1KB drop (large expected)
//	E5 Fig2   xalan-gc-growth-x       GC time growth for the scalable trio
//	E6 class  paper-match-frac        classification agreement with the paper
//	E7 dist   jython-top4-share       work concentration for non-scalable apps
package javasim_test

import (
	"context"
	"testing"

	"javasim"
	"javasim/internal/metrics"
)

var benchCtx = context.Background()

// BenchmarkPaperPlan regenerates every figure and table of the paper
// (PaperPlan at scale 0.15 over 4, 16 and 48 threads) on a fresh engine
// per iteration, so every iteration simulates from a cold cache rather
// than measuring cache lookups.
func BenchmarkPaperPlan(b *testing.B) {
	b.ReportAllocs()
	plan := javasim.PaperPlan(javasim.ExperimentConfig{
		ThreadCounts: []int{4, 16, 48},
		Scale:        0.15,
		Seed:         42,
	})
	var pr *javasim.PlanResult
	for i := 0; i < b.N; i++ {
		var err error
		if pr, err = javasim.NewEngine().RunPlan(benchCtx, plan); err != nil {
			b.Fatal(err)
		}
	}
	sweep := func(name string) *javasim.Sweep { return pr.Scenario(name).Sweep() }
	cdfShift := func(name string) float64 {
		cdf := sweep(name).CDFBelow(1024)
		return 100 * (cdf[0] - cdf[len(cdf)-1])
	}
	matches := 0.0
	for _, spec := range javasim.PaperBenchmarks() {
		if sweep(spec.Name).Classify(2.0).Matches() {
			matches++
		}
	}
	b.ReportMetric(metrics.GrowthFactor(sweep("xalan").Acquisitions()), "xalan-acq-growth-x")
	b.ReportMetric(metrics.GrowthFactor(sweep("xalan").Contentions()), "xalan-cont-growth-x")
	b.ReportMetric(cdfShift("eclipse"), "eclipse-cdf1k-shift-pt")
	b.ReportMetric(cdfShift("xalan"), "xalan-cdf1k-shift-pt")
	b.ReportMetric(metrics.GrowthFactor(sweep("xalan").GCSeconds()), "xalan-gc-growth-x")
	b.ReportMetric(matches/6, "paper-match-frac")
	b.ReportMetric(sweep("jython").ComputeFactors().Top4Share, "jython-top4-share")
}

// vmRunSeeds is the fixed seed set the VM benchmarks cycle through, so
// the workload mix a benchmark measures does not depend on b.N.
var vmRunSeeds = [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}

// BenchmarkVMRun measures raw simulator throughput: one xalan run per
// iteration at a fixed configuration, reporting simulated-vs-real speed.
// virtual-ns/run is the mean simulated time over the seeds run.
func BenchmarkVMRun(b *testing.B) {
	b.ReportAllocs()
	spec, _ := javasim.LookupWorkload("xalan")
	spec = spec.Scale(0.1)
	eng := javasim.NewEngine(javasim.WithCache(0)) // uncached: measure simulation, not lookups
	var virtualNS [len(vmRunSeeds)]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(vmRunSeeds)
		res, err := eng.Run(benchCtx, spec, javasim.Config{Threads: 8, Seed: vmRunSeeds[k]})
		if err != nil {
			b.Fatal(err)
		}
		virtualNS[k] = float64(res.TotalTime)
	}
	ran := min(b.N, len(vmRunSeeds))
	var sum float64
	for _, v := range virtualNS[:ran] {
		sum += v
	}
	b.ReportMetric(sum/float64(ran), "virtual-ns/run")
}

// BenchmarkSweepWarmStart measures what warm-start snapshots buy a
// sweep: the same three-point thread sweep cold (DisableSnapshot: every
// point regenerates its workload units from scratch) and warm (every
// point forks from one shared pre-generated tape). Engines are uncached
// so each iteration simulates every point; warm must beat cold.
func BenchmarkSweepWarmStart(b *testing.B) {
	spec, _ := javasim.LookupWorkload("xalan")
	spec = spec.Scale(0.1)
	sweep := func(disable bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := javasim.NewEngine(javasim.WithCache(0))
				_, err := eng.Sweep(benchCtx, spec, javasim.SweepConfig{
					ThreadCounts: []int{2, 8, 32},
					Base:         javasim.Config{Seed: 42, DisableSnapshot: disable},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("cold", sweep(true))
	b.Run("warm", sweep(false))
}

// BenchmarkVMRunManycore exercises the full 48-core configuration.
func BenchmarkVMRunManycore(b *testing.B) {
	b.ReportAllocs()
	spec, _ := javasim.LookupWorkload("sunflow")
	spec = spec.Scale(0.1)
	eng := javasim.NewEngine(javasim.WithCache(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(benchCtx, spec, javasim.Config{Threads: 48, Seed: vmRunSeeds[i%len(vmRunSeeds)]}); err != nil {
			b.Fatal(err)
		}
	}
}
