package cache

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/metalog"
	"kddcache/internal/sim"
)

// LeavO reproduces Lee et al.'s scheme (SAC'15, [10] in the paper): on a
// write hit it keeps BOTH the old and the new version of the page in the
// SSD and writes the data to RAID without a parity update; stale parities
// are repaired in the background from old⊕new. Compared to KDD it (a)
// spends a whole cache page per update instead of a packed delta, and
// (b) persists every mapping change to flash without the circular log's
// coalescing — the two costs §II-B calls out.
type LeavO struct {
	base
	oldOf map[int64]int32 // storage LBA -> slot holding the old version

	metaStart   int64 // metadata region [metaStart, metaStart+metaPages)
	metaPages   int64
	metaCursor  int64
	metaPending int // mapping updates not yet persisted

	// Cleaning thresholds as fractions of capacity.
	HighWater float64 // start cleaning above this fraction of Old pages
	LowWater  float64 // stop cleaning below this
	batch     int
}

// NewLeavO builds a LeavO cache. The metadata region [metaStart,
// metaStart+metaPages) on the SSD absorbs the per-update metadata writes;
// cache data pages start at dataStart.
func NewLeavO(ssd blockdev.Device, backend Backend, cachePages, dataStart int64,
	ways int, metaStart, metaPages int64) *LeavO {
	if metaPages < 1 {
		panic("cache: LeavO needs a metadata region")
	}
	return &LeavO{
		base:      newBase(ssd, backend, cachePages, dataStart, ways),
		oldOf:     make(map[int64]int32),
		metaStart: metaStart,
		metaPages: metaPages,
		HighWater: 0.2,
		LowWater:  0.1,
		batch:     64,
	}
}

// Name implements Policy.
func (l *LeavO) Name() string { return "LeavO" }

// metaUpdate records n mapping changes; every EntriesPerPage of them
// costs one metadata page program (no coalescing — LeavO has no NVRAM
// log, its map must be durable before the data write is acknowledged).
func (l *LeavO) metaUpdate(t sim.Time, n int) sim.Time {
	l.metaPending += n
	done := t
	for l.metaPending >= metalog.EntriesPerPage {
		l.metaPending -= metalog.EntriesPerPage
		lba := l.metaStart + l.metaCursor%l.metaPages
		l.metaCursor++
		var buf []byte
		if l.dataModeSSD() {
			buf = make([]byte, blockdev.PageSize)
		}
		c, err := l.ssd.WritePages(t, lba, 1, buf)
		if err == nil && c > done {
			done = c
		}
		l.st.MetaWrites++
	}
	return done
}

func (l *LeavO) dataModeSSD() bool {
	if s, ok := l.ssd.(blockdev.Storer); ok {
		return s.Store() != nil
	}
	return false
}

// Read implements Policy.
func (l *LeavO) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l.st.Reads++
	if slot := l.frame.Lookup(lba); slot != NoSlot {
		l.st.ReadHits++
		l.frame.Touch(slot)
		return l.readSlot(t, slot, buf)
	}
	l.st.ReadMisses++
	l.st.RAIDReads++
	done, err := l.backend.ReadPages(t, lba, 1, buf)
	if err != nil {
		return t, err
	}
	l.fillLeavO(done, lba, buf)
	return done, nil
}

func (l *LeavO) fillLeavO(done sim.Time, lba int64, buf []byte) {
	slot := l.allocOrEvict(done, lba)
	if slot == NoSlot {
		return
	}
	l.frame.Insert(lba, slot, Clean)
	l.st.ReadFills++
	l.writeSlot(done, slot, buf) //nolint:errcheck // background fill
	l.metaUpdate(done, 1)
}

// Write implements Policy.
func (l *LeavO) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l.st.Writes++
	slot := l.frame.Lookup(lba)
	switch {
	case slot != NoSlot && l.frame.Slot(slot).State == New:
		// Second update: overwrite the new version in place; parity still
		// corresponds to the old version, so no extra bookkeeping.
		l.st.WriteHits++
		l.frame.Touch(slot)
		l.st.VersionWrite++
		ssdDone, err := l.writeSlot(t, slot, buf)
		if err != nil {
			return t, err
		}
		l.st.RAIDWrites++
		raidDone, err := l.backend.WriteNoParity(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		l.st.SmallWritesSaved++
		done := sim.MaxTime(l.metaUpdate(t, 1), sim.MaxTime(ssdDone, raidDone))
		return done, l.maybeClean(done)

	case slot != NoSlot: // Clean hit: keep old, add new version
		l.st.WriteHits++
		if !l.backend.Healthy() {
			// Degraded: do not grow the stale-parity set (same rationale
			// as KDD); write through in place.
			l.st.WriteAllocs++
			ssdDone, err := l.writeSlot(t, slot, buf)
			if err != nil {
				return t, err
			}
			l.frame.Touch(slot)
			l.st.RAIDWrites++
			raidDone, err := l.backend.WritePages(t, lba, 1, buf)
			if err != nil {
				return t, err
			}
			return sim.MaxTime(ssdDone, raidDone), nil
		}
		// Pin the current copy as Old first so the eviction scan for the
		// new version's slot can never pick it.
		l.frame.Transition(slot, Old)
		newSlot := l.allocOrEvict(t, lba)
		if newSlot == NoSlot {
			// No room for a second version: revert and degrade to
			// write-through for this request.
			l.frame.Transition(slot, Clean)
			l.st.WriteAllocs++
			ssdDone, err := l.writeSlot(t, slot, buf)
			if err != nil {
				return t, err
			}
			l.frame.Touch(slot)
			l.st.RAIDWrites++
			raidDone, err := l.backend.WritePages(t, lba, 1, buf)
			if err != nil {
				return t, err
			}
			return sim.MaxTime(ssdDone, raidDone), nil
		}
		l.oldOf[lba] = slot
		l.frame.Insert(lba, newSlot, New) // rebinds lookup to the new slot
		l.st.VersionWrite++
		ssdDone, err := l.writeSlot(t, newSlot, buf)
		if err != nil {
			return t, err
		}
		l.st.RAIDWrites++
		raidDone, err := l.backend.WriteNoParity(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		l.st.SmallWritesSaved++
		done := sim.MaxTime(l.metaUpdate(t, 2), sim.MaxTime(ssdDone, raidDone))
		return done, l.maybeClean(done)

	default: // miss
		l.st.WriteMiss++
		l.st.RAIDWrites++
		raidDone, err := l.backend.WritePages(t, lba, 1, buf)
		if err != nil {
			return t, err
		}
		var ssdDone sim.Time
		if s := l.allocOrEvict(t, lba); s != NoSlot {
			l.frame.Insert(lba, s, Clean)
			l.st.WriteAllocs++
			ssdDone, err = l.writeSlot(t, s, buf)
			if err != nil {
				return t, err
			}
			l.metaUpdate(t, 1)
		}
		return sim.MaxTime(raidDone, ssdDone), nil
	}
}

// maybeClean triggers background cleaning past the high-water mark.
func (l *LeavO) maybeClean(t sim.Time) error {
	if float64(l.frame.Count(Old)) > l.HighWater*float64(l.frame.Pages()) {
		_, err := l.Clean(t, false)
		return err
	}
	return nil
}

// Clean implements Policy: repair parity for the oldest Old pages, then
// drop the old version and demote the new version to Clean.
func (l *LeavO) Clean(t sim.Time, force bool) (sim.Time, error) {
	low := int64(l.LowWater * float64(l.frame.Pages()))
	done := t
	for l.frame.Count(Old) > 0 && (force || l.frame.Count(Old) > low) {
		victims := l.frame.OldestSlots(Old, l.batch)
		if len(victims) == 0 {
			break
		}
		l.st.CleanerRuns++
		for _, oldSlot := range victims {
			if l.frame.Slot(oldSlot).State != Old {
				continue
			}
			c, err := l.cleanOne(t, oldSlot)
			if err != nil {
				return t, err
			}
			done = sim.MaxTime(done, c)
			if !force && l.frame.Count(Old) <= low {
				break
			}
		}
	}
	return done, nil
}

// cleanOne repairs one page's parity from its old and new versions.
func (l *LeavO) cleanOne(t sim.Time, oldSlot int32) (sim.Time, error) {
	lba := l.frame.Slot(oldSlot).RaidLBA
	newSlot := l.frame.Lookup(lba)
	if newSlot == NoSlot {
		return t, fmt.Errorf("cache: LeavO old page %d has no new version", lba)
	}
	data := l.dataModeSSD()
	var oldBuf, newBuf []byte
	if data {
		oldBuf = make([]byte, blockdev.PageSize)
		newBuf = make([]byte, blockdev.PageSize)
	}
	// Read both versions from the SSD (concurrent thanks to channels).
	phase1 := t
	c, err := l.readSlot(t, oldSlot, oldBuf)
	if err != nil {
		return t, err
	}
	phase1 = sim.MaxTime(phase1, c)
	c, err = l.readSlot(t, newSlot, newBuf)
	if err != nil {
		return t, err
	}
	phase1 = sim.MaxTime(phase1, c)

	var diff []byte
	if data {
		diff = oldBuf
		for i := range diff {
			diff[i] ^= newBuf[i]
		}
	}
	l.st.ParityUpdates++
	done, err := l.backend.ParityUpdateDelta(phase1, []int64{lba}, [][]byte{diff})
	if err != nil {
		return t, err
	}
	// Old version freed, new version becomes the clean current copy.
	l.frame.Release(oldSlot, false)
	l.trimSlot(done, oldSlot)
	delete(l.oldOf, lba)
	l.frame.Transition(newSlot, Clean)
	l.st.Reclaims++
	l.metaUpdate(done, 2)
	return done, nil
}

// Flush implements Policy: repair every stale parity.
func (l *LeavO) Flush(t sim.Time) (sim.Time, error) { return l.Clean(t, true) }

var _ Policy = (*LeavO)(nil)
