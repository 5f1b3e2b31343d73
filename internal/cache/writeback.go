package cache

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// WB is a write-back cache: writes are acknowledged once they land in the
// SSD; dirty pages reach the RAID only on eviction or flush.
//
// The paper deliberately excludes write-back from its evaluation
// "because it cannot prevent data loss under SSD failures" (§IV-A1).
// It is implemented here so that exclusion is demonstrable rather than
// asserted: TestWriteBackLosesDataOnSSDFailure shows the RPO violation,
// and the policy gives a useful lower bound on write latency.
type WB struct {
	base
	// HighWater/LowWater bound the dirty-page population like KDD's
	// cleaner thresholds.
	HighWater float64
	LowWater  float64
	batch     int
}

// NewWB builds a write-back cache.
func NewWB(ssd blockdev.Device, backend Backend, cachePages, dataStart int64, ways int) *WB {
	// Destaging is paced: each trigger reclaims only a thin band below
	// the high-water mark, so background write-back does not dump
	// thousands of RMWs onto the disks at one instant and starve reads.
	return &WB{
		base:      newBase(ssd, backend, cachePages, dataStart, ways),
		HighWater: 0.4,
		LowWater:  0.37,
		batch:     16,
	}
}

// Name implements Policy.
func (w *WB) Name() string { return "WB" }

// Read implements Policy.
func (w *WB) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
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

// Write implements Policy: SSD-speed acknowledgement; the page is marked
// dirty (reusing the Old state) and written back later.
func (w *WB) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	w.st.Writes++
	slot := w.frame.Lookup(lba)
	if slot != NoSlot {
		w.st.WriteHits++
		w.frame.Touch(slot)
	} else {
		w.st.WriteMiss++
		slot = w.allocOrEvict(t, lba)
		if slot == NoSlot {
			// No cacheable slot: degrade to a direct RAID write.
			w.st.RAIDWrites++
			return w.backend.WritePages(t, lba, 1, buf)
		}
		w.frame.Insert(lba, slot, Clean)
	}
	w.st.WriteAllocs++
	done, err := w.writeSlot(t, slot, buf)
	if err != nil {
		return t, err
	}
	w.frame.Transition(slot, Old) // dirty
	if float64(w.frame.Count(Old)) > w.HighWater*float64(w.frame.Pages()) {
		if _, err := w.Clean(done, false); err != nil {
			return t, err
		}
	}
	return done, nil
}

// Clean implements Policy: write dirty pages back to RAID (with parity)
// in LRU order.
func (w *WB) Clean(t sim.Time, force bool) (sim.Time, error) {
	low := int64(w.LowWater * float64(w.frame.Pages()))
	if force {
		low = 0
	}
	done := t
	for w.frame.Count(Old) > 0 && (force || w.frame.Count(Old) > low) {
		victims := w.frame.OldestSlots(Old, w.batch)
		if len(victims) == 0 {
			break
		}
		w.st.CleanerRuns++
		for _, slot := range victims {
			if w.frame.Slot(slot).State != Old {
				continue
			}
			c, err := w.writeBack(t, slot)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
			if !force && w.frame.Count(Old) <= low {
				break
			}
		}
	}
	return done, nil
}

// writeBack flushes one dirty page to the RAID.
func (w *WB) writeBack(t sim.Time, slot int32) (sim.Time, error) {
	lba := w.frame.Slot(slot).RaidLBA
	var buf []byte
	if w.dataModeWB() {
		buf = make([]byte, blockdev.PageSize)
	}
	c, err := w.readSlot(t, slot, buf)
	if err != nil {
		return t, err
	}
	w.st.RAIDWrites++
	c, err = w.backend.WritePages(c, lba, 1, buf)
	if err != nil {
		return t, fmt.Errorf("cache: write-back of lba %d: %w", lba, err)
	}
	w.frame.Transition(slot, Clean)
	w.st.Reclaims++
	return c, nil
}

func (w *WB) dataModeWB() bool {
	if s, ok := w.ssd.(blockdev.Storer); ok {
		return s.Store() != nil
	}
	return false
}

// Flush implements Policy.
func (w *WB) Flush(t sim.Time) (sim.Time, error) { return w.Clean(t, true) }

// DirtyPages returns the count of pages not yet written back: data that
// exists ONLY in the SSD and dies with it.
func (w *WB) DirtyPages() int64 { return w.frame.Count(Old) }

var _ Policy = (*WB)(nil)
