package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a tail percentile needs beyond it
// before it is reported: a p90 needs at least 100 samples.
const minTail = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile returns the q-quantile of xs and whether it may be
// reported: only when at least minTail samples lie beyond it.
func tailQuantile(xs []float64, q float64) (float64, bool) {
	beyond := len(xs) - int(math.Ceil(q*float64(len(xs))))
	return quantile(xs, q), beyond >= minTail
}

// interval is a half-open span of host time, offsets from a common epoch.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

// clip restricts iv to within; the result may be empty (end <= start).
func (iv interval) clip(within interval) interval {
	return interval{max(iv.start, within.start), min(iv.end, within.end)}
}

// coverage returns, for each concurrency level k in [0, levels), how much
// of the window w had exactly k of the given intervals in flight; the last
// level collects k >= levels-1. Intervals are clipped to w.
func coverage(w interval, ivs []interval, levels int) []time.Duration {
	type edge struct {
		at    time.Duration
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		c := iv.clip(w)
		if c.end > c.start {
			edges = append(edges, edge{c.start, +1}, edge{c.end, -1})
		}
	}
	// Ends sort before starts at the same instant, so touching intervals
	// never count as overlapping.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	out := make([]time.Duration, levels)
	at, k := w.start, 0
	for _, e := range edges {
		out[min(k, levels-1)] += e.at - at
		at, k = e.at, k+e.delta
	}
	out[min(k, levels-1)] += w.end - at
	return out
}

// selfTime is a parent span's duration minus the part of it its children
// cover (overlapping children count once).
func selfTime(parent interval, children []interval) time.Duration {
	return coverage(parent, children, 2)[0]
}

// busyFrac is the summed duration of the worker spans over the capacity
// of `workers` slots across the window.
func busyFrac(w interval, runs []interval, workers int) float64 {
	var busy time.Duration
	for _, iv := range runs {
		if c := iv.clip(w); c.end > c.start {
			busy += c.dur()
		}
	}
	return float64(busy) / (float64(workers) * float64(w.dur()))
}

// tailIdle is the time within w during which fewer than `workers` runs
// were in flight — pool slots left idle, typically while a sweep's last,
// longest points straggle or while reports render.
func tailIdle(w interval, runs []interval, workers int) time.Duration {
	cov := coverage(w, runs, workers+1)
	var idle time.Duration
	for _, d := range cov[:workers] {
		idle += d
	}
	return idle
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
