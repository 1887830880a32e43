// Command perfbench is the javasim benchmark: five closed-loop workloads
// (cold-runs, paper-plan, daemon-cold, daemon-hot, daemon-disk), each run for a fixed time by a single
// client, with outputs checked against a reference path. Run it through
// run.sh from the repository root; see README.md for the workloads, the
// metrics and what each layer's figures should move.
//
//	perfbench --workload cold-runs --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics
// of a traced run, and the lines before it print them as a table.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"
)

// A run times its set-up in batches: one before the loop, then one
// between rounds whenever setupEvery has passed, so the batches sample
// the host at the same moments as the ops. Each batch repeats the set-up
// until setupBatchMin has passed, so a set-up of microseconds is timed as
// precisely as one of milliseconds. setup_s is the median over the
// batches of the time per set-up.
const (
	setupEvery    = time.Second
	setupBatchMin = 20 * time.Millisecond
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "cold-runs, paper-plan, daemon-cold, daemon-hot or daemon-disk")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	flag.Parse()

	scratch := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	res, err := run(context.Background(), os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, scratch)
	if rmErr := os.RemoveAll(scratch); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it and checks its outputs. Progress
// and tables go to w.
func run(ctx context.Context, w io.Writer, name string, seed uint64, d time.Duration, traced bool, scratch string) (_ *result, err error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	setup := &setupTimer{name: name, seed: seed, scratch: scratch}
	b, err := setup.batch()
	if err != nil {
		return nil, err
	}
	if c, ok := b.(io.Closer); ok {
		defer func() { err = errors.Join(err, c.Close()) }()
	}
	// One untimed round first: lazy runtime set-up and heap growth.
	if _, err := b.round(ctx, 0, nil); err != nil {
		return nil, err
	}
	if !traced {
		p, err := measure(ctx, b, d, setup, nil)
		if err != nil {
			return nil, err
		}
		res, _, err := check(ctx, b, p.samples)
		if err != nil {
			return nil, err
		}
		n := float64(len(p.samples))
		res.Metrics = map[string]metric{
			"setup_s":         {median(setup.per), "s"},
			"ops_per_s":       {n / p.opTime.Seconds(), "1/s"},
			"op_ms.p50":       {median(allLatencies(p.samples)), "ms"},
			"alloc_mb_per_op": {float64(p.alloc) / 1e6 / n, "MB"},
			"peak_rss_mb":     {p.peakRSS / 1e6, "MB"},
		}
		printMetrics(w, name, res, endToEnd)
		return res, nil
	}

	// Traced: half the time under the CPU profiler alone, so the profile
	// describes the untraced code path; half with every round run twice,
	// untraced and with spans, so the span overhead is measured on pairs
	// of identical ops run back to back.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profiled, err := measure(ctx, b, d/2, nil, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	t := &tracer{}
	paired, err := measure(ctx, b, d/2, nil, nil, t)
	if err != nil {
		return nil, err
	}
	plainOps, tracedOps := split(paired.samples)
	all := append(append([]sample(nil), profiled.samples...), paired.samples...)
	res, ref, err := check(ctx, b, all)
	if err != nil {
		return nil, err
	}
	m := layerMetrics(t, tracedOps, b.workers())
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for mod, share := range shares {
		m["cpu."+mod] = share
	}
	modelMetrics(ref, m)
	fitReportMetrics(ref.plans, m)
	overheadMetrics(plainOps, tracedOps, t, b.workers(), m)

	res.Metrics = map[string]metric{}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s not measured on %s; reporting 0\n", l.name, name)
			v = 0
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	printMetrics(w, name, res, perLayer)
	return res, nil
}

// setupTimer sets a workload up in timed batches.
type setupTimer struct {
	name    string
	seed    uint64
	scratch string
	per     []float64     // seconds per set-up, one per batch
	last    time.Duration // when the last batch started
	alloc   uint64        // bytes the batches allocated
}

// batch sets the workload up until setupBatchMin has passed and returns
// the last bench it made.
func (s *setupTimer) batch() (bench, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var b bench
	start, n := clock(), 0
	for n == 0 || clock()-start < setupBatchMin {
		var err error
		if b, err = newBench(s.name, s.seed, s.scratch); err != nil {
			return nil, err
		}
		n++
	}
	s.last = start
	s.per = append(s.per, (clock()-start).Seconds()/float64(n))
	runtime.ReadMemStats(&after)
	s.alloc += after.TotalAlloc - before.TotalAlloc
	return b, nil
}

// due runs a batch, discarding its bench, if setupEvery has passed since
// the last one. A nil timer does nothing.
func (s *setupTimer) due() error {
	if s == nil || clock()-s.last < setupEvery {
		return nil
	}
	_, err := s.batch()
	return err
}

// allocated is the bytes the batches have allocated so far.
func (s *setupTimer) allocated() uint64 {
	if s == nil {
		return 0
	}
	return s.alloc
}

// check verifies every sample against the workload's reference outputs.
func check(ctx context.Context, b bench, samples []sample) (*result, *reference, error) {
	ref, err := b.reference(ctx)
	if err != nil {
		return nil, nil, err
	}
	failed, first := verify(samples, ref.want)
	if first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed; first: %v\n", failed, len(samples), first)
	}
	return &result{Correct: failed == 0, Attempted: len(samples), Failed: failed}, ref, nil
}

// allLatencies is every sample's latency in ms, whatever its kind.
func allLatencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.iv.dur())
	}
	return out
}

// metricDef names a metric and its unit, in the order tables print them.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics; BENCHMARK.json declares the same.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// printMetrics writes the metrics as an aligned table.
func printMetrics(w io.Writer, name string, res *result, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d ops, %d failed, correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	tw.Flush()
}
