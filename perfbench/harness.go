package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"javasim/internal/core"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// sample is one measured op: an Engine.Run, a plan pass, or a daemon job.
type sample struct {
	kind   string   // daemon job kind; empty for the other workloads
	entry  int      // cycle entry the op ran
	op     int      // tracer op id (traced runs)
	iv     interval // host time of the op
	output string   // digest of the op's output, checked after the loop
	err    error
	job    *job // client-side timings of a daemon job
	traced bool // ran with spans recorded
}

// bench is one workload: a fixed cycle of ops derived from the seed.
type bench interface {
	// round runs cycle entry k mod the cycle length: one op.
	round(ctx context.Context, k int, t *tracer) ([]sample, error)
	// reference computes, untimed, the expected output of every cycle
	// entry on a reference path.
	reference(ctx context.Context) (*reference, error)
	// workers is the engine parallelism the ops run at.
	workers() int
	// cycle is the number of rounds after which the op sequence repeats.
	cycle() int
}

// reference is the untimed expected output of a workload's cycle.
type reference struct {
	want    []string              // output digest per cycle entry
	results map[string]*vm.Result // every distinct run, by core.Fingerprint
	plans   []*core.PlanResult    // rendered plans, for the fit, report and accuracy figures
}

// recorder is a core.Runner that simulates and keeps every result by
// fingerprint.
type recorder struct {
	mu      sync.Mutex
	results map[string]*vm.Result
}

func newRecorder() *recorder { return &recorder{results: map[string]*vm.Result{}} }

func (r *recorder) run(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	res, err := vm.RunContext(ctx, spec, cfg)
	if err == nil {
		r.put(spec, cfg, res)
	}
	return res, err
}

func (r *recorder) put(spec workload.Spec, cfg vm.Config, res *vm.Result) {
	fp, _ := core.Fingerprint(spec, cfg)
	r.mu.Lock()
	r.results[fp] = res
	r.mu.Unlock()
}

// renderPlan runs a plan on a fresh engine and returns the result and its
// text artifacts, formatted exactly as the daemon's ?format=text.
func renderPlan(ctx context.Context, p *core.Plan, workers int, runner core.Runner) (*core.PlanResult, string, error) {
	pr, err := core.NewEngine(core.WithParallelism(workers), core.WithRunner(runner)).RunPlan(ctx, p)
	if err != nil {
		return nil, "", err
	}
	return pr, planText(pr), nil
}

// planText joins a plan's tables with one blank line, as javasim -plan
// prints them and the daemon serves them.
func planText(pr *core.PlanResult) string {
	var b strings.Builder
	for i, t := range pr.Tables() {
		if i > 0 {
			b.WriteByte('\n')
		}
		t.WriteASCII(&b)
	}
	return b.String()
}

// digestText hashes an op's text output.
func digestText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// digestResult hashes a run's full measurement record, so two runs agree
// only if every field does.
func digestResult(res *vm.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digestText(string(b)), nil
}

// opSeed derives cycle entry j's seed from the run's seed (a SplitMix64
// step), so the op mix depends only on the seed, never on how many ops a
// run completes. Seeds stay below 2^40 and are never zero.
func opSeed(seed uint64, j int) uint64 {
	z := seed + uint64(j+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	return z%(1<<40) + 1
}

// phase is one measured closed loop.
type phase struct {
	samples []sample
	opTime  time.Duration // summed duration of the ops
	alloc   uint64        // bytes allocated by the process during the loop, set-up batches excepted
	peakRSS float64       // median over the loop's rounds of each round's peak resident set, bytes
}

// measure runs rounds k = 0, 1, ... until d has elapsed, then on to the
// end of the current cycle, so every run measures the same mix of ops.
// Each round runs once per tracer; a nil tracer runs it untraced. Odd
// rounds take the tracers in reverse, so neither side of a pair always
// runs second. A non-nil setup times a set-up batch between rounds
// whenever one is due.
func measure(ctx context.Context, b bench, d time.Duration, setup *setupTimer, tracers ...*tracer) (*phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	setupAlloc := setup.allocated()
	p := &phase{}
	var peaks []float64
	start := clock()
	for k := 0; k%b.cycle() != 0 || k == 0 || clock()-start < d; k++ {
		if err := setup.due(); err != nil {
			return nil, err
		}
		for i := range tracers {
			t := tracers[i]
			if k%2 == 1 {
				t = tracers[len(tracers)-1-i]
			}
			resetPeakRSS()
			s, err := b.round(ctx, k, t)
			peaks = append(peaks, float64(peakRSS()))
			for i := range s {
				s[i].traced = t != nil
			}
			p.samples = append(p.samples, s...)
			if err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc - (setup.allocated() - setupAlloc)
	p.peakRSS = median(peaks)
	for _, s := range p.samples {
		p.opTime += s.iv.dur()
	}
	return p, nil
}

// verify counts the samples that failed or whose output differs from the
// reference output of their cycle entry, and reports the first failure.
func verify(samples []sample, want []string) (failed int, first error) {
	for i := range samples {
		s := &samples[i]
		if s.err == nil && s.output != want[s.entry] {
			s.err = fmt.Errorf("cycle entry %d: output differs from the reference", s.entry)
		}
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	return failed, first
}

// split separates untraced from traced samples, each in run order.
func split(samples []sample) (plain, traced []sample) {
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	return plain, traced
}

// resetPeakRSS restarts the kernel's peak-RSS counter, so peakRSS covers
// only what follows; measure takes one peak per round, so a single late
// collection moves the median little. Where the reset is not permitted
// the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSS reads VmHWM from /proc/self/status, in bytes; 0 if unavailable.
func peakRSS() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}
