package gc

import (
	"testing"

	"javasim/internal/heap"
	"javasim/internal/objmodel"
)

// BenchmarkCollectMinor measures a minor collection over a mixed
// live/dead young population of 10k objects.
func BenchmarkCollectMinor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := mustNew(nil, Config{Workers: 8}, h, reg)
		for j := 0; j < 10000; j++ {
			id := reg.Alloc(128, 0)
			c.OnAlloc(id, 0)
			if j%3 != 0 {
				reg.Kill(id)
			}
		}
		b.StartTimer()
		if _, err := c.CollectMinor(0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCPolicy measures the minor-collection hot path under every
// registered GC policy, so policy-dispatch overhead regressions are
// visible in the bench smoke.
func BenchmarkGCPolicy(b *testing.B) {
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
				reg := objmodel.NewRegistry()
				c := mustNew(p, Config{Workers: 8}, h, reg)
				for j := 0; j < 10000; j++ {
					id := reg.Alloc(128, 0)
					c.OnAlloc(id, 0)
					if j%3 != 0 {
						reg.Kill(id)
					}
				}
				b.StartTimer()
				if _, err := c.CollectMinor(0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectFull measures a full collection over a populated old
// generation.
func BenchmarkCollectFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := heap.New(heap.Config{MinHeap: 64 << 20, Factor: 3})
		reg := objmodel.NewRegistry()
		c := mustNew(nil, Config{Workers: 8}, h, reg)
		for j := 0; j < 10000; j++ {
			id := reg.Alloc(256, 0)
			c.OnAlloc(id, 0)
		}
		// Promote everything, then kill half.
		for k := 0; k < 3; k++ {
			if _, err := c.CollectMinor(0, 0); err != nil {
				b.Fatal(err)
			}
		}
		reg.ForEach(func(id objmodel.ID, o *objmodel.Object) {
			if id%2 == 0 && o.Live() {
				reg.Kill(id)
			}
		})
		b.StartTimer()
		if _, err := c.CollectFull(0); err != nil {
			b.Fatal(err)
		}
	}
}
