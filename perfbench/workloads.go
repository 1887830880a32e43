package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"javasim/internal/core"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// nproc is the engine parallelism of the plan and daemon workloads: one
// simulation per CPU the process may use.
func nproc() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// newBench sets up the named workload for a seed. scratch is a directory
// the workload may write below.
func newBench(name string, seed uint64, scratch string) (bench, error) {
	switch name {
	case "cold-runs":
		return newColdRuns(seed)
	case "paper-plan":
		return newPaperPlan(seed)
	case "daemon-cold":
		return newDaemonBench(jobCold, seed, scratch)
	case "daemon-hot":
		return newDaemonBench(jobHot, seed, scratch)
	case "daemon-disk":
		return newDaemonBench(jobDisk, seed, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-runs, paper-plan, daemon-cold, daemon-hot or daemon-disk)", name)
}

// cold-runs: one uncached Engine.Run per op, what a `javasim -workload`
// user waits on. The cycle is every spec at every thread count, thread
// count outermost, so a partly finished cycle is still balanced across
// specs. Every entry has a seed of its own, so a run averages over many
// generated workloads rather than one per spec.
var (
	coldSpecs   = []string{"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython", "server-contended"}
	coldThreads = []int{8, 16, 32, 48}
)

type coldRuns struct {
	specs []workload.Spec
	seed  uint64
}

func newColdRuns(seed uint64) (*coldRuns, error) {
	b := &coldRuns{seed: seed}
	for _, name := range coldSpecs {
		spec, ok := workload.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("workload %q is not registered", name)
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		b.specs = append(b.specs, spec)
	}
	return b, nil
}

func (b *coldRuns) workers() int { return 1 }

// entry returns cycle entry j's spec and config.
func (b *coldRuns) entry(j int) (workload.Spec, vm.Config) {
	return b.specs[j%len(b.specs)], vm.Config{Threads: coldThreads[j/len(b.specs)], Seed: opSeed(b.seed, j)}
}

func (b *coldRuns) cycle() int { return len(b.specs) * len(coldThreads) }

func (b *coldRuns) round(ctx context.Context, k int, t *tracer) ([]sample, error) {
	j := k % b.cycle()
	spec, cfg := b.entry(j)
	s := sample{entry: j, op: t.newOp()}
	eng := core.NewEngine(append(t.engineOptions(), core.WithParallelism(1), core.WithCache(0))...)
	start := clock()
	res, err := eng.Run(ctx, spec, cfg)
	s.iv = interval{start, clock()}
	t.addCache(core.CacheStats{}, eng.CacheStats())
	if err == nil {
		s.output, err = digestResult(res)
	}
	s.err = err
	return []sample{s}, nil
}

// reference reruns every entry with op fusion and warm-start snapshots
// off: the interpreter's plainest path, which must give the same result.
func (b *coldRuns) reference(ctx context.Context) (*reference, error) {
	rec := newRecorder()
	ref := &reference{want: make([]string, b.cycle())}
	errs := make([]error, b.cycle())
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec, cfg := b.entry(j)
				plain := cfg
				plain.DisableFusion, plain.DisableSnapshot = true, true
				res, err := vm.RunContext(ctx, spec, plain)
				if err == nil {
					rec.put(spec, cfg, res)
					ref.want[j], err = digestResult(res)
				}
				errs[j] = err
			}
		}()
	}
	for j := 0; j < b.cycle(); j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cold-runs reference: %w", err)
		}
	}
	ref.results = rec.results
	return ref, nil
}

// paper-plan: the paper's whole figure suite through RunPlan on a fresh
// engine, what a `figures` user waits on.
type paperPlan struct {
	plans []*core.Plan // one per cycle entry
}

// paperPlanCycle is the number of seeds the paper-plan ops cycle over.
const paperPlanCycle = 2

func newPaperPlan(seed uint64) (*paperPlan, error) {
	b := &paperPlan{}
	for j := 0; j < paperPlanCycle; j++ {
		p := core.PaperPlan(core.ExperimentConfig{Seed: opSeed(seed, j)})
		if err := p.Validate(); err != nil {
			return nil, err
		}
		b.plans = append(b.plans, p)
	}
	return b, nil
}

func (b *paperPlan) workers() int { return nproc() }

func (b *paperPlan) cycle() int { return len(b.plans) }

func (b *paperPlan) round(ctx context.Context, k int, t *tracer) ([]sample, error) {
	j := k % len(b.plans)
	s := sample{entry: j, op: t.newOp()}
	eng := core.NewEngine(append(t.engineOptions(), core.WithParallelism(b.workers()))...)
	start := clock()
	pr, err := eng.RunPlan(ctx, b.plans[j])
	var text string
	if err == nil {
		text = planText(pr)
	}
	s.iv = interval{start, clock()}
	t.addCache(core.CacheStats{}, eng.CacheStats())
	s.output, s.err = digestText(text), err
	return []sample{s}, nil
}

// reference renders each plan at parallelism 1.
func (b *paperPlan) reference(ctx context.Context) (*reference, error) {
	rec := newRecorder()
	ref := &reference{}
	for _, p := range b.plans {
		pr, text, err := renderPlan(ctx, p, 1, rec.run)
		if err != nil {
			return nil, fmt.Errorf("paper-plan reference: %w", err)
		}
		ref.want = append(ref.want, digestText(text))
		ref.plans = append(ref.plans, pr)
	}
	ref.results = rec.results
	return ref, nil
}

// daemon-cold, daemon-hot, daemon-disk: plans POSTed to an in-process
// javasimd. The cycle is the repository's example plans, daemonSeeds
// times over, each entry with a seed of its own. Each workload times one kind of job, so the simulate
// and Put path, the memory-cache path and the disk Get path each have
// end-to-end figures of their own.
var daemonPlans = []string{"gc_policies", "machines", "open_system", "plan", "policies"}

// daemonSeeds is the number of seeds each daemon plan runs under per cycle.
const daemonSeeds = 2

type daemonBench struct {
	kind    string // jobCold, jobHot or jobDisk
	plans   [][]byte
	parsed  []*core.Plan
	scratch string
	hot     map[*tracer]*daemon // daemon-hot: per tracer, a daemon that has run every plan once
	stored  bool                // daemon-disk: diskDir(j) holds plan j's results
}

func newDaemonBench(kind string, seed uint64, scratch string) (*daemonBench, error) {
	b := &daemonBench{kind: kind, scratch: scratch, hot: map[*tracer]*daemon{}}
	for j := 0; j < daemonSeeds*len(daemonPlans); j++ {
		name := daemonPlans[j%len(daemonPlans)]
		raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
		if err != nil {
			return nil, err
		}
		p, err := core.LoadPlan(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p.Seed = opSeed(seed, j)
		body, err := planJSON(p)
		if err != nil {
			return nil, err
		}
		b.plans, b.parsed = append(b.plans, body), append(b.parsed, p)
	}
	// A daemon's own start-up: open the store, build engine and server,
	// answer a health check.
	d, err := startDaemon(filepath.Join(scratch, "setup"), b.workers(), nil)
	if err != nil {
		return nil, err
	}
	_, err = get(context.Background(), d.client, d.url+"/v1/healthz")
	return b, errors.Join(err, d.stop(), os.RemoveAll(filepath.Join(scratch, "setup")))
}

func (b *daemonBench) workers() int { return nproc() }

func (b *daemonBench) cycle() int { return len(b.plans) }

// round runs one job of the workload's kind on plan k mod the cycle. Only
// the job is timed: starting a cold or disk job's daemon and draining it
// afterwards are not.
func (b *daemonBench) round(ctx context.Context, k int, t *tracer) ([]sample, error) {
	j := k % len(b.plans)
	var d *daemon
	var err error
	switch b.kind {
	case jobCold:
		dir := filepath.Join(b.scratch, fmt.Sprintf("cold-%d", k))
		defer os.RemoveAll(dir)
		d, err = startDaemon(dir, b.workers(), t)
	case jobHot:
		d, err = b.hotDaemon(ctx, t)
	case jobDisk:
		if err = b.fillStores(ctx); err == nil {
			d, err = startDaemon(b.diskDir(j), b.workers(), t)
		}
	}
	if err != nil {
		return nil, err
	}
	s := d.job(ctx, b.kind, b.plans[j], j, t)
	if b.kind == jobHot {
		return []sample{s}, nil
	}
	return []sample{s}, d.stop()
}

// hotDaemon returns t's daemon-hot daemon. The first call starts it and
// runs every plan on it once, untimed.
func (b *daemonBench) hotDaemon(ctx context.Context, t *tracer) (*daemon, error) {
	if d := b.hot[t]; d != nil {
		return d, nil
	}
	d, err := startDaemon(filepath.Join(b.scratch, fmt.Sprintf("hot-%d", len(b.hot))), b.workers(), t)
	if err != nil {
		return nil, err
	}
	b.hot[t] = d
	for _, plan := range b.plans {
		if _, _, err := d.submit(ctx, plan); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (b *daemonBench) diskDir(j int) string {
	return filepath.Join(b.scratch, fmt.Sprintf("disk-%d", j))
}

// fillStores runs every plan once, untimed, on a daemon over the plan's
// own store directory and drains it, so daemon-disk jobs find every
// result on disk.
func (b *daemonBench) fillStores(ctx context.Context) error {
	if b.stored {
		return nil
	}
	for j, plan := range b.plans {
		d, err := startDaemon(b.diskDir(j), b.workers(), nil)
		if err != nil {
			return err
		}
		_, _, err = d.submit(ctx, plan)
		if err = errors.Join(err, d.stop()); err != nil {
			return err
		}
	}
	b.stored = true
	return nil
}

// Close stops the daemon-hot daemons.
func (b *daemonBench) Close() error {
	var errs []error
	for _, d := range b.hot {
		errs = append(errs, d.stop())
	}
	return errors.Join(errs...)
}

// reference renders each plan in-process on a fresh engine.
func (b *daemonBench) reference(ctx context.Context) (*reference, error) {
	rec := newRecorder()
	ref := &reference{}
	for i, p := range b.parsed {
		pr, text, err := renderPlan(ctx, p, b.workers(), rec.run)
		if err != nil {
			return nil, fmt.Errorf("daemon reference %s: %w", daemonPlans[i%len(daemonPlans)], err)
		}
		ref.want = append(ref.want, digestText(text))
		ref.plans = append(ref.plans, pr)
	}
	ref.results = rec.results
	return ref, nil
}

func planJSON(p *core.Plan) ([]byte, error) {
	var buf bytes.Buffer
	err := p.WriteJSON(&buf)
	return buf.Bytes(), err
}
