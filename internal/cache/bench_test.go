package cache_test

import (
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// benchGeoms are the frame sizes the layer benchmarks run at: the
// Fin1-at-scale-0.03 cache of the fin1-evict workload (2816 slots in
// 11 sets of 256 ways) and a 256k-slot cache (1024 sets of 256 ways).
var benchGeoms = []struct {
	name  string
	pages int64
}{
	{"fin1", 2816},
	{"256k", 256 << 10},
}

// fullFrame returns a frame with every slot holding a Clean page, in
// random recency order, with oldFrac of them then turned Old (write hits
// awaiting the cleaner). It also returns the data slots in random order.
func fullFrame(b *testing.B, pages int64, oldFrac float64) (*cache.Frame, []int32) {
	b.Helper()
	const stripe = 32
	f := cache.NewFrame(pages, 256, stripe)
	rng := sim.NewRNG(1)
	for lba := int64(0); f.Count(cache.Free) > 0; lba += stripe {
		if s := f.AllocFree(f.SetOf(lba)); s != cache.NoSlot {
			f.Insert(lba, s, cache.Clean)
		}
	}
	order := make([]int32, f.Pages())
	for i := range order {
		order[i] = int32(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, s := range order {
		f.Touch(s)
	}
	for _, s := range order[:int(oldFrac*float64(len(order)))] {
		f.Transition(s, cache.Old)
	}
	return f, order
}

// BenchmarkFrameOldestSlots measures the cleaner's victim scan: the 128
// least recently used Old slots across the whole cache.
func BenchmarkFrameOldestSlots(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			f, _ := fullFrame(b, g.pages, 0.25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := f.OldestSlots(cache.Old, 128); len(v) != 128 {
					b.Fatalf("got %d victims", len(v))
				}
			}
		})
	}
}

// BenchmarkFrameEvictLRU measures one eviction as the policies run it on
// a full set: pick the set's LRU Clean slot, release it and insert the
// incoming page into it.
func BenchmarkFrameEvictLRU(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			f, _ := fullFrame(b, g.pages, 0.25)
			sets := f.Sets()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := f.EvictLRU(i % sets)
				lba := f.Slot(s).RaidLBA
				f.Release(s, true)
				f.Insert(lba, s, cache.Clean)
			}
		})
	}
}

// BenchmarkFrameTouch measures a cache hit's recency refresh over data
// slots in random order.
func BenchmarkFrameTouch(b *testing.B) {
	for _, g := range benchGeoms {
		b.Run(g.name, func(b *testing.B) {
			f, order := fullFrame(b, g.pages, 0.25)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Touch(order[i%len(order)])
			}
		})
	}
}
