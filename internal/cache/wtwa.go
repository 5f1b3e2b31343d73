package cache

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// base carries the shared plumbing of the SSD-backed policies: the frame,
// the cache device, the backend, and the data-partition offset (cache
// page i lives at SSD LBA dataStart+i).
type base struct {
	frame     *Frame
	ssd       blockdev.Device
	backend   Backend
	dataStart int64
	st        stats.CacheStats
}

func newBase(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) base {
	return base{
		frame:     NewFrame(cachePages, ways, backend.StripePages()),
		ssd:       ssd,
		backend:   backend,
		dataStart: dataStart,
	}
}

// cacheLBA maps a slot to its SSD page address.
func (b *base) cacheLBA(slot int32) int64 { return b.dataStart + int64(slot) }

// readSlot reads a cached page from the SSD.
func (b *base) readSlot(t sim.Time, slot int32, buf []byte) (sim.Time, error) {
	return b.ssd.ReadPages(t, b.cacheLBA(slot), 1, buf)
}

// writeSlot writes a cached page to the SSD.
func (b *base) writeSlot(t sim.Time, slot int32, buf []byte) (sim.Time, error) {
	return b.ssd.WritePages(t, b.cacheLBA(slot), 1, buf)
}

// trimSlot discards the SSD page backing a released slot so the FTL can
// reclaim it without relocation.
func (b *base) trimSlot(t sim.Time, slot int32) {
	if tr, ok := b.ssd.(blockdev.Trimmer); ok {
		tr.TrimPages(t, b.cacheLBA(slot), 1) //nolint:errcheck // advisory
	}
}

// allocOrEvict finds a slot in lba's set: a free one, else the evicted
// LRU Clean slot. Returns NoSlot if nothing can be evicted.
func (b *base) allocOrEvict(t sim.Time, lba int64) int32 {
	set := b.frame.SetOf(lba)
	if s := b.frame.AllocFree(set); s != NoSlot {
		return s
	}
	s := b.frame.EvictLRU(set)
	if s == NoSlot {
		return NoSlot
	}
	b.st.Evictions++
	b.frame.Release(s, true)
	b.trimSlot(t, s)
	return s
}

// Stats implements Policy.
func (b *base) Stats() *stats.CacheStats { return &b.st }

// Frame exposes the slot frame (tests and the harness inspect it).
func (b *base) Frame() *Frame { return b.frame }

// fillOnMiss allocates and fills a cache slot after a backend read miss.
// The SSD program is issued at `done` (data already in hand) and does not
// extend request latency.
func (b *base) fillOnMiss(done sim.Time, lba int64, buf []byte) {
	slot := b.allocOrEvict(done, lba)
	if slot == NoSlot {
		return // set pinned solid; serve uncached
	}
	b.frame.Insert(lba, slot, Clean)
	b.st.ReadFills++
	b.writeSlot(done, slot, buf) //nolint:errcheck // background fill
}

// ---------------------------------------------------------------------------
// WT: write-through.

// WT is the write-through baseline: every write goes to both the cache
// and the RAID (with parity update) before completing; reads fill on miss.
type WT struct{ base }

// NewWT builds a write-through cache of cachePages pages whose data
// partition starts at dataStart on the SSD.
func NewWT(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WT {
	return &WT{newBase(ssd, backend, cachePages, dataStart, ways)}
}

// Name implements Policy.
func (w *WT) Name() string { return "WT" }

// Read implements Policy.
func (w *WT) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Reads++
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.st.ReadHits++
		w.frame.Touch(slot)
		return w.readSlot(t, slot, buf)
	}
	w.st.ReadMisses++
	w.st.RAIDReads++
	done, err := w.backend.ReadPages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	w.fillOnMiss(done, lba, buf)
	return done, nil
}

// Write implements Policy. The write is acknowledged only after both the
// RAID (including parity) and the SSD copy are durable.
func (w *WT) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Writes++
	w.st.RAIDWrites++
	raidDone, err := w.backend.WritePages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	var ssdDone sim.Time
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.st.WriteHits++
		w.frame.Touch(slot)
		w.st.WriteAllocs++
		ssdDone, err = w.writeSlot(t, slot, buf)
	} else {
		w.st.WriteMiss++
		slot = w.allocOrEvict(t, lba)
		if slot != NoSlot {
			w.frame.Insert(lba, slot, Clean)
			w.st.WriteAllocs++
			ssdDone, err = w.writeSlot(t, slot, buf)
		}
	}
	if err != nil {
		return t, err
	}
	return sim.MaxTime(raidDone, ssdDone), nil
}

// Clean implements Policy (nothing deferred).
func (w *WT) Clean(t sim.Time, force bool) (sim.Time, error) { return t, nil }

// Flush implements Policy (nothing deferred).
func (w *WT) Flush(t sim.Time) (sim.Time, error) { return t, nil }

// ---------------------------------------------------------------------------
// WA: write-around.

// WA is the write-around baseline: writes bypass the cache entirely
// (invalidating any cached copy) and allocate only on read misses.
type WA struct{ base }

// NewWA builds a write-around cache.
func NewWA(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WA {
	return &WA{newBase(ssd, backend, cachePages, dataStart, ways)}
}

// Name implements Policy.
func (w *WA) Name() string { return "WA" }

// Read implements Policy.
func (w *WA) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Reads++
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.st.ReadHits++
		w.frame.Touch(slot)
		return w.readSlot(t, slot, buf)
	}
	w.st.ReadMisses++
	w.st.RAIDReads++
	done, err := w.backend.ReadPages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	w.fillOnMiss(done, lba, buf)
	return done, nil
}

// Write implements Policy: straight to RAID; stale cached copies are
// invalidated so later reads refill.
func (w *WA) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Writes++
	w.st.WriteMiss++ // writes never hit a write-around cache
	if slot := w.frame.Lookup(lba); slot != NoSlot {
		w.frame.Release(slot, true)
		w.trimSlot(t, slot)
	}
	w.st.RAIDWrites++
	return w.backend.WritePages(t, lba, 1, buf)
}

// Clean implements Policy (nothing deferred).
func (w *WA) Clean(t sim.Time, force bool) (sim.Time, error) { return t, nil }

// Flush implements Policy (nothing deferred).
func (w *WA) Flush(t sim.Time) (sim.Time, error) { return t, nil }

var (
	_ Policy = (*WT)(nil)
	_ Policy = (*WA)(nil)
)
