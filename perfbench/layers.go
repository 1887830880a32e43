package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"javasim/internal/core"
	"javasim/internal/fit"
	"javasim/internal/sim"
	"javasim/internal/workload"
)

// perLayer lists the traced run's metrics; BENCHMARK.json declares the
// same. Host times are per op unless named otherwise; virtual_ms figures
// are simulated time, deterministic for a seed.
var perLayer = []metricDef{
	{"workload.tape_ms", "ms"},
	{"vm.replay_ms", "ms"},
	{"vm.host_ns_per_object", "ns"},
	{"core.engine_overhead_ms", "ms"},
	{"core.pool_busy_frac", "fraction"},
	{"core.tail_idle_ms", "ms"},
	{"core.render_ms", "ms"},
	{"core.simulations", "count/op"},
	{"core.memory_hits", "count/op"},
	{"core.disk_hits", "count/op"},
	{"fit.both_us", "us"},
	{"report.ascii_ms", "ms"},
	{"store.get_us.p50", "us"},
	{"store.put_us.p50", "us"},
	{"store.flush_ms", "ms"},
	{"store.hits", "count/op"},
	{"store.misses", "count/op"},
	{"store.writes", "count/op"},
	{"store.corrupt", "count/op"},
	{"serve.accept_ms", "ms"},
	{"serve.done_to_frame_ms", "ms"},
	{"serve.artifacts_ms", "ms"},
	{"serve.job_hot_ms.p90", "ms"},
	{"cpu.sim", "fraction"},
	{"cpu.sched", "fraction"},
	{"cpu.vm", "fraction"},
	{"cpu.workload", "fraction"},
	{"cpu.objmodel", "fraction"},
	{"cpu.heap", "fraction"},
	{"cpu.gc", "fraction"},
	{"cpu.locks", "fraction"},
	{"cpu.machine", "fraction"},
	{"cpu.traffic", "fraction"},
	{"cpu.fit", "fraction"},
	{"cpu.report", "fraction"},
	{"cpu.core", "fraction"},
	{"cpu.store", "fraction"},
	{"cpu.serve", "fraction"},
	{"cpu.runtime", "fraction"},
	{"cpu.other", "fraction"},
	{"sim.virtual_ms", "virtual_ms"},
	{"objmodel.objects", "count"},
	{"locks.acquisitions", "count"},
	{"locks.contentions", "count"},
	{"gc.pauses", "count"},
	{"gc.pause_ms", "virtual_ms"},
	{"sched.ready_wait_ms", "virtual_ms"},
	{"heap.tlab_refills", "count"},
	{"machine.membw_stall_ms", "virtual_ms"},
	{"traffic.p99_ms", "virtual_ms"},
	{"accuracy.paper_match_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"trace.span_sum_ratio", "ratio"},
}

// opSpans is what the trace holds for one simulating op.
type opSpans struct {
	tape, replay, overhead, idle time.Duration
	busy                         float64
}

// layerMetrics derives the span-based per-layer figures of a traced loop
// from the spans of its measured ops. Figures with no spans behind them
// (a layer the loop never crossed) are left out of m.
func layerMetrics(t *tracer, samples []sample, workers int) map[string]float64 {
	m := map[string]float64{}
	byOp := map[int][]span{}
	for _, sp := range t.spans {
		byOp[sp.op] = append(byOp[sp.op], sp)
	}
	var tape, replay, overhead, idle, busy, render []float64
	var gets, puts, flushes, accept, toFrame, artifacts, hot []float64
	var replayNs, objects float64
	for _, s := range samples {
		spans := byOp[s.op]
		for _, sp := range spans {
			switch sp.name {
			case spanStoreGet:
				gets = append(gets, float64(sp.iv.dur())/1e3)
			case spanStorePut:
				puts = append(puts, float64(sp.iv.dur())/1e3)
			case spanStoreFlush:
				flushes = append(flushes, ms(sp.iv.dur()))
			case spanReplay:
				replayNs += float64(sp.iv.dur())
				objects += float64(sp.n)
			}
		}
		if o, ok := simulatingOp(s, spans, workers); ok {
			tape = append(tape, ms(o.tape))
			replay = append(replay, ms(o.replay))
			overhead = append(overhead, ms(o.overhead))
			idle = append(idle, ms(o.idle))
			busy = append(busy, o.busy)
		}
		if r, ok := renderTime(spans); ok {
			render = append(render, ms(r))
		}
		if j := s.job; j != nil && s.err == nil {
			accept = append(accept, ms(j.accept))
			toFrame = append(toFrame, ms(j.doneToFrame))
			artifacts = append(artifacts, ms(j.end-j.frame))
			if s.kind == jobHot {
				hot = append(hot, ms(s.iv.dur()))
			}
		}
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			m[name] = median(xs)
		}
	}
	set("workload.tape_ms", tape)
	set("vm.replay_ms", replay)
	set("core.engine_overhead_ms", overhead)
	set("core.tail_idle_ms", idle)
	set("core.pool_busy_frac", busy)
	set("core.render_ms", render)
	set("store.get_us.p50", gets)
	set("store.put_us.p50", puts)
	set("store.flush_ms", flushes)
	set("serve.accept_ms", accept)
	set("serve.done_to_frame_ms", toFrame)
	set("serve.artifacts_ms", artifacts)
	if len(hot) > 0 {
		p90, ok := tailQuantile(hot, 0.9)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: serve.job_hot_ms.p90 from %d samples, fewer than the %d it needs\n", len(hot), 10*minTail)
		}
		m["serve.job_hot_ms.p90"] = p90
	}
	if objects > 0 {
		m["vm.host_ns_per_object"] = replayNs / objects
	}
	if n := float64(len(samples)); t.engines > 0 && n > 0 {
		m["core.simulations"] = float64(t.cache.Misses) / n
		m["core.memory_hits"] = float64(t.cache.MemoryHits) / n
		m["core.disk_hits"] = float64(t.cache.DiskHits) / n
	}
	if n := float64(len(samples)); t.stores > 0 && n > 0 {
		m["store.hits"] = float64(t.store.Hits) / n
		m["store.misses"] = float64(t.store.Misses) / n
		m["store.writes"] = float64(t.store.Writes) / n
		m["store.corrupt"] = float64(t.store.Corrupt) / n
	}
	return m
}

// simulatingOp splits an op that ran simulations into its spans: tape and
// replay summed over its runs; engine overhead, the op's self time (no run
// in flight); tail idle, time with a pool slot free; and pool busy, run
// time over slot capacity.
func simulatingOp(s sample, spans []span, workers int) (opSpans, bool) {
	var o opSpans
	var runs []interval
	for _, sp := range spans {
		switch sp.name {
		case spanRunner:
			runs = append(runs, sp.iv)
		case spanTape:
			o.tape += sp.iv.dur()
		case spanReplay:
			o.replay += sp.iv.dur()
		}
	}
	if len(runs) == 0 {
		return o, false
	}
	o.overhead = selfTime(s.iv, runs)
	o.idle = tailIdle(s.iv, runs, workers)
	o.busy = busyFrac(s.iv, runs, workers)
	return o, true
}

// renderTime is the last scenario-done to plan-done gap of an op: the
// engine rendering the plan's cross-scenario reports.
func renderTime(spans []span) (time.Duration, bool) {
	var lastScenario, done time.Duration
	var sawDone bool
	for _, sp := range spans {
		switch sp.name {
		case markScenarioDone:
			lastScenario = max(lastScenario, sp.iv.end)
		case markPlanDone:
			done, sawDone = sp.iv.end, true
		}
	}
	return done - lastScenario, sawDone && lastScenario > 0
}

// modelMetrics sums the modelled-design counters over every distinct run
// of the workload's cycle. They depend only on the seed: a change that
// only makes the simulator faster must leave them identical.
func modelMetrics(ref *reference, m map[string]float64) {
	var virtual, pause, ready, stall sim.Time
	var objects, acq, cont, pauses, tlab, p99 int64
	for _, r := range ref.results {
		virtual += r.TotalTime
		pause += r.GCTime
		stall += r.MemBWStall
		for _, w := range r.PerThreadReadyWait {
			ready += w
		}
		objects += r.ObjectsAllocated
		acq += r.LockAcquisitions
		cont += r.LockContentions
		pauses += int64(len(r.GCPauses))
		tlab += r.HeapStats.TLABRefills
		if r.Traffic != nil && r.Traffic.Latency != nil {
			p99 = max(p99, r.Traffic.Latency.Percentile(99))
		}
	}
	vms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
	m["sim.virtual_ms"] = vms(virtual)
	m["gc.pause_ms"] = vms(pause)
	m["sched.ready_wait_ms"] = vms(ready)
	m["machine.membw_stall_ms"] = vms(stall)
	m["traffic.p99_ms"] = vms(sim.Time(p99))
	m["objmodel.objects"] = float64(objects)
	m["locks.acquisitions"] = float64(acq)
	m["locks.contentions"] = float64(cont)
	m["gc.pauses"] = float64(pauses)
	m["heap.tlab_refills"] = float64(tlab)

	paper := map[string]bool{}
	for _, s := range workload.PaperSet() {
		paper[s.Name] = true
	}
	var sweeps, match int
	for _, pr := range ref.plans {
		for _, sr := range pr.Scenarios {
			sw := sr.Sweep()
			if !paper[sw.Spec.Name] || sw.Open() || len(sw.Points) < 2 {
				continue
			}
			sweeps++
			if sw.Classify(core.DefaultEfficiencyFloor).Matches() {
				match++
			}
		}
	}
	if sweeps > 0 {
		m["accuracy.paper_match_frac"] = float64(match) / float64(sweeps)
	}
}

// fitReps is how many times each standalone fit and render is timed.
const fitReps = 25

// fitReportMetrics times fit.Both over every closed-loop sweep of the
// workload's rendered plans, and report's ASCII rendering of their tables,
// standalone: median per call.
func fitReportMetrics(plans []*core.PlanResult, m map[string]float64) {
	var fits, renders []float64
	for _, pr := range plans {
		for _, sr := range pr.Scenarios {
			sw := sr.Sweep()
			if sw.Open() || len(sw.Points) < fit.MinPoints {
				continue
			}
			threads := make([]int, len(sw.Points))
			for i, p := range sw.Points {
				threads[i] = p.Threads
			}
			pts, err := fit.Series(threads, sw.Throughputs())
			if err != nil {
				continue
			}
			for i := 0; i < fitReps; i++ {
				start := clock()
				_, err := fit.Both(pts)
				if err != nil {
					break
				}
				fits = append(fits, float64(clock()-start)/1e3)
			}
		}
		tables := pr.Tables()
		for i := 0; i < fitReps; i++ {
			var b strings.Builder
			start := clock()
			for _, t := range tables {
				t.WriteASCII(&b)
			}
			renders = append(renders, ms(clock()-start))
		}
	}
	if len(fits) > 0 {
		m["fit.both_us"] = median(fits)
	}
	if len(renders) > 0 {
		m["report.ascii_ms"] = median(renders)
	}
}

// overheadMetrics compares each traced op with the untraced run of the
// same op just before it: the tracing overhead, and how much of the
// untraced op the spans account for — (tape + replay) per worker plus
// engine overhead, which should be close to 1. Both are medians over the
// pairs.
func overheadMetrics(plain, traced []sample, t *tracer, workers int, m map[string]float64) {
	byOp := map[int][]span{}
	for _, sp := range t.spans {
		byOp[sp.op] = append(byOp[sp.op], sp)
	}
	var slow, sums []float64
	for i := range min(len(plain), len(traced)) {
		p, s := plain[i], traced[i]
		base := ms(p.iv.dur())
		if p.entry != s.entry || p.kind != s.kind || base <= 0 {
			continue
		}
		slow = append(slow, ms(s.iv.dur())/base-1)
		if o, ok := simulatingOp(s, byOp[s.op], workers); ok {
			sums = append(sums, ms((o.tape+o.replay)/time.Duration(workers)+o.overhead)/base)
		}
	}
	if len(slow) > 0 {
		m["trace.overhead_frac"] = median(slow)
	}
	if len(sums) > 0 {
		m["trace.span_sum_ratio"] = median(sums)
	}
}
