package sim

import "testing"

// BenchmarkEventThroughput measures raw kernel speed: schedule + fire one
// event per iteration through a warm heap of pending events.
func BenchmarkEventThroughput(b *testing.B) {
	s := New()
	// Keep a standing population of events so the heap has realistic depth.
	var tick func()
	fired := 0
	tick = func() {
		fired++
		s.Schedule(100, tick)
	}
	for i := 0; i < 64; i++ {
		s.Schedule(Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

type benchCallback struct {
	s     *Simulator
	fired int
}

func (c *benchCallback) OnEvent() {
	c.fired++
	c.s.ScheduleCall(100, c)
}

// BenchmarkSimSchedule measures the allocation-free hot path: a pooled
// event record carrying a pre-bound Callback, scheduled and fired through
// a warm heap. Steady state must report zero allocs/op.
func BenchmarkSimSchedule(b *testing.B) {
	s := New()
	cb := &benchCallback{s: s}
	for i := 0; i < 64; i++ {
		s.ScheduleCall(Time(i), cb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkScheduleCancel measures the add/remove path used by quantum
// slicing.
func BenchmarkScheduleCancel(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.Schedule(Time(i+1), fn)
		s.Cancel(ev)
	}
}

// BenchmarkRandUint64 measures the base generator.
func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

// BenchmarkRandLogNormal measures the workload generator's hottest
// distribution.
func BenchmarkRandLogNormal(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.LogNormal(4.5, 0.7)
	}
	_ = sink
}

// BenchmarkRandNormFloat64 measures the normal draw under LogNormal.
func BenchmarkRandNormFloat64(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.NormFloat64()
	}
	_ = sink
}

// BenchmarkRandGeometric measures a death-distance draw at the paper
// workloads' commonest p.
func BenchmarkRandGeometric(b *testing.B) {
	r := NewRand(1)
	g := NewGeometric(1.0 / 3)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(g)
	}
	_ = sink
}
