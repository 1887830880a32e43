package core

import (
	"fmt"

	"javasim/internal/fit"
	"javasim/internal/machine"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// ExperimentConfig sizes the built-in plans (PaperPlan, StudiesPlan).
// The zero value reproduces the paper's setup at full scale.
type ExperimentConfig struct {
	// ThreadCounts is the sweep; nil means the paper's {4,8,16,24,32,48}.
	ThreadCounts []int
	// Scale shrinks every workload (0 < Scale <= 1); 0 means full scale.
	// Benchmarks and CI use reduced scales.
	Scale float64
	// Seed drives all randomness; 0 means 42.
	Seed uint64
	// Workloads restricts the benchmark set; nil means all six.
	Workloads []workload.Spec
}

func (c ExperimentConfig) withDefaults() ExperimentConfig {
	if len(c.ThreadCounts) == 0 {
		c.ThreadCounts = DefaultThreadCounts
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.PaperSet()
	}
	return c
}

// PaperPlan expresses the paper's entire figure suite — Figures 1a-1d and
// 2, the classification, work-distribution, and factor tables, and the
// two §IV ablations — as one declarative Plan: six sweep scenarios (one
// per benchmark), three single-point ablation scenarios on xalan, and ten
// cross-scenario reports (plus the USL fit table when the sweep has at
// least fit.MinPoints thread counts). cmd/javasim -plan paper executes
// it. The zero ExperimentConfig reproduces the paper's full-scale setup.
func PaperPlan(cfg ExperimentConfig) *Plan {
	cfg = cfg.withDefaults()
	hi := cfg.ThreadCounts[len(cfg.ThreadCounts)-1]

	p := &Plan{
		Name:         "paper",
		Seed:         cfg.Seed,
		Scale:        cfg.Scale,
		ThreadCounts: cfg.ThreadCounts,
	}

	// One sweep scenario per workload, named after it. Workloads matching
	// their registry entry travel as name references; custom specs inline.
	var workloadNames []string
	for _, w := range cfg.Workloads {
		ref := workload.SpecRef(w)
		if reg, ok := workload.Lookup(w.Name); ok && reg == w {
			ref = workload.NameRef(w.Name)
		}
		p.Scenarios = append(p.Scenarios, Scenario{Name: w.Name, Workload: ref})
		workloadNames = append(workloadNames, w.Name)
	}

	// The §IV ablations: xalan at the top of the sweep, baseline against
	// each future-work proposal. The baseline point coincides with the
	// xalan sweep's last point, so the run cache serves it for free.
	p.Scenarios = append(p.Scenarios,
		Scenario{Name: "xalan-max", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi}},
		Scenario{Name: "xalan-biased", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi},
			Overrides: &ConfigOverrides{BiasGroups: 2, BiasPhase: 2 * sim.Millisecond}},
		Scenario{Name: "xalan-compartmented", Workload: workload.NameRef("xalan"), ThreadCounts: []int{hi},
			Overrides: &ConfigOverrides{Compartments: 4}},
	)

	// Figure 2 covers the scalable trio; it silently narrows to whichever
	// of the three the config kept.
	var trio []string
	for _, name := range []string{"sunflow", "lusearch", "xalan"} {
		for _, w := range workloadNames {
			if w == name {
				trio = append(trio, name)
			}
		}
	}

	p.Reports = []ReportSpec{
		{Name: "Fig1a", Kind: ReportSeries, Metric: MetricAcquisitions, Key: "workload",
			Scenarios: workloadNames,
			Title:     "Figure 1a — lock acquisitions vs threads",
			Note:      "paper: acquisitions grow with threads for scalable apps, flat for non-scalable"},
		{Name: "Fig1b", Kind: ReportSeries, Metric: MetricContentions, Key: "workload",
			Scenarios: workloadNames,
			Title:     "Figure 1b — lock contentions vs threads",
			Note:      "paper: contentions grow with threads for scalable apps, flat for non-scalable"},
		{Name: "Fig1c", Kind: ReportLifespanCDF, Scenarios: []string{"eclipse"},
			Title: "Figure 1c",
			Note:  "paper: eclipse's distribution shows almost no change with thread count"},
		{Name: "Fig1d", Kind: ReportLifespanCDF, Scenarios: []string{"xalan"},
			Title: "Figure 1d",
			Note:  "paper: xalan drops from >80% of objects <1KB at 4 threads to ~50% at 48"},
		{Name: "Fig2", Kind: ReportMutatorGC, Scenarios: trio,
			Title: "Figure 2 — distribution of mutator and GC times (scalable applications)",
			Note:  "paper: mutator time keeps falling through 48 threads while GC time grows"},
		{Name: "ClassificationTable", Kind: ReportClassification, Scenarios: workloadNames},
		{Name: "WorkDistributionTable", Kind: ReportWorkDistribution, Scenarios: workloadNames},
		{Name: "FactorsTable", Kind: ReportFactors, Scenarios: workloadNames},
		{Name: "AblationBias", Kind: ReportCompare, Baseline: "xalan-max", Modified: "xalan-biased",
			Title: fmt.Sprintf("Ablation — phase-biased scheduling (paper §IV, suggestion 1) — xalan @ %d threads", hi),
			Note:  "paper hypothesis: staggering threads shortens lifespans and cuts contention at some throughput cost"},
		{Name: "AblationCompartments", Kind: ReportCompare, Baseline: "xalan-max", Modified: "xalan-compartmented",
			Title: fmt.Sprintf("Ablation — compartmentalized heap (paper §IV, suggestion 2) — xalan @ %d threads", hi),
			Note:  "paper hypothesis: per-group heap compartments shorten GC pause times"},
	}
	// The analytic cross-validation of the factor table (ROADMAP item 1):
	// fit the USL to every workload sweep and report sigma/kappa next to
	// the ablation-derived factors. A fit needs at least fit.MinPoints
	// sweep points, so shortened test configs (the 2-point golden setup)
	// keep their historical artifact set byte-identical.
	if len(cfg.ThreadCounts) >= fit.MinPoints {
		p.Reports = append(p.Reports, ReportSpec{
			Name: "USLFitTable", Kind: ReportUSL, Scenarios: workloadNames,
		})
	}
	return p
}

// StudiesPlan expresses the design-choice studies as one declarative
// Plan. They are not paper artifacts: they sweep the simulator's own
// knobs to check that each cost model responds the way the real
// mechanism does. Every study runs at the top of cfg's thread sweep,
// where the GC effects are strongest. Six studies are multi-column
// compare reports over single-point scenarios: heap factor, GC workers,
// tenuring threshold, NUMA vs a flat machine, throughput vs concurrent
// collector (on the server workload, the class the paper's §IV says
// suffers most from pauses), and allocation-site pretenuring. The
// seventh, seed replication, is a five-repeat scenario rendering the
// replication output. The zero ExperimentConfig runs at full scale;
// cfg.Workloads is ignored.
func StudiesPlan(cfg ExperimentConfig) *Plan {
	cfg = cfg.withDefaults()
	hi := cfg.ThreadCounts[len(cfg.ThreadCounts)-1]
	p := &Plan{Name: "studies", Seed: cfg.Seed, Scale: cfg.Scale, ThreadCounts: []int{hi}}

	// study adds one scenario per column and a compare report over them,
	// in order; the first column is the report's baseline.
	type column struct {
		name      string
		overrides *ConfigOverrides
	}
	study := func(report, title, wl, note string, cols []column) {
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.name
			p.Scenarios = append(p.Scenarios, Scenario{Name: c.name, Workload: workload.NameRef(wl), Overrides: c.overrides})
		}
		p.Reports = append(p.Reports, ReportSpec{Name: report, Kind: ReportCompare, Scenarios: names,
			Title: fmt.Sprintf("Study — %s (%s @ %d threads)", title, wl, hi), Note: note})
	}

	var heap, workers, tenuring []column
	for _, f := range []float64{1.5, 2, 3, 4, 6} {
		heap = append(heap, column{fmt.Sprintf("heap-%gx", f), &ConfigOverrides{HeapFactor: f}})
	}
	for _, w := range []int{1, 2, 4, 8, 16, 33} {
		workers = append(workers, column{fmt.Sprintf("gc-workers-%d", w), &ConfigOverrides{GCWorkers: w}})
	}
	for _, th := range []int{1, 2, 4, 8} {
		tenuring = append(tenuring, column{fmt.Sprintf("tenuring-%d", th), &ConfigOverrides{TenuringThreshold: th}})
	}
	study("StudyHeapFactor", "heap factor sweep", "xalan",
		"the paper runs everything at 3x the minimum heap; the GC time/space trade-off validates the heap model", heap)
	study("StudyGCWorkers", "GC worker sweep", "xalan",
		"pause time divides across workers with contention-limited efficiency, never linearly", workers)
	study("StudyTenuring", "tenuring threshold sweep", "xalan",
		"promote-early floods the old generation, promote-late recopies survivors: the paper's survivor-copying dial (§III-B)", tenuring)
	study("StudyNUMA", "NUMA vs flat memory", "xalan",
		"the paper's testbed pays cross-socket latency above 12 threads; a flat machine is the counterfactual",
		[]column{{"numa", nil}, {"flat", &ConfigOverrides{Machine: machine.ModelOpteronFlat}}})
	study("StudyCollector", "throughput vs concurrent collector, 1.6x heap", "server",
		"the concurrent collector trades stop-the-world time for background GC CPU and fragmentation",
		[]column{
			{"throughput-gc", &ConfigOverrides{HeapFactor: 1.6}},
			{"concurrent-gc", &ConfigOverrides{HeapFactor: 1.6, ConcurrentGC: true, GCTriggerRatio: 0.5}},
		})
	study("StudyPretenuring", "allocation-site pretenuring", "xalan",
		"long-lived sites allocate straight to the old generation, skipping the survivor copying the paper blames",
		[]column{{"no-pretenuring", nil}, {"pretenuring", &ConfigOverrides{Pretenuring: true}}})

	// Seed replication: the headline point under five derived seeds.
	p.Scenarios = append(p.Scenarios, Scenario{Name: "replication", Workload: workload.NameRef("xalan"),
		Repeats: 5, Outputs: []Output{OutputReplication}})
	return p
}
