package raid

import (
	"fmt"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements the online, resumable member rebuild (§III-E: "if
// a HDD fails, KDD first updates all parity blocks using the parity_update
// interface and then triggers the rebuilding process").
//
// The rebuild is a per-array state machine with a row watermark:
//
//	(degraded) ──StartRebuild──▶ rebuilding(next=0)
//	rebuilding ──RebuildStep───▶ rebuilding(next+=rows)
//	rebuilding ──next==rows────▶ (healthy)
//	rebuilding ──target fails──▶ (degraded, rebuild abandoned)
//
// Rows below the watermark are fully reconstructed onto the replacement
// device: foreground reads hit it directly and writes maintain its parity
// like any healthy member. Rows at or above the watermark are treated as
// missing — reads reconstruct from the survivors and writes fold into the
// surviving redundancy — even though the replacement device is physically
// readable (it holds unwritten zeros there). The watermark is the single
// source of truth for that routing; see Array.missing.
//
// The watermark is volatile software state: a power failure forgets it
// (CrashRebuildState) and recovery must resume from the checkpoint the
// cache engine persists in NVRAM (core.Restore → ResumeRebuild). Resuming
// at an older watermark is always safe — re-rebuilding a row writes the
// same bytes.

// rebuildState tracks one in-progress member rebuild.
type rebuildState struct {
	disk int   // member being rebuilt
	next int64 // watermark: rows [0, next) are reconstructed
}

// ResyncError reports that a rebuild could not start because stale parity
// rows could not all be resynchronised first (§III-E ordering). It wraps
// ErrNeedResync so existing errors.Is checks keep working, and carries the
// stale-row count the caller would otherwise have to re-derive.
type ResyncError struct {
	StaleRows int   // rows still stale when the resync gave up
	Err       error // first row-level failure
}

func (e *ResyncError) Error() string {
	return fmt.Sprintf("raid: %d stale parity rows could not be resynced before rebuild: %v", e.StaleRows, e.Err)
}

// Unwrap makes errors.Is(err, ErrNeedResync) hold.
func (e *ResyncError) Unwrap() error { return ErrNeedResync }

// missing reports whether member disk's page at row must be treated as
// absent: the device is failed outright, or it is the target of an active
// rebuild and the row is still above the watermark (physically readable,
// but holding unwritten zeros, not data).
func (a *Array) missing(disk int, row int64) bool {
	if a.disks[disk].Failed() {
		return true
	}
	return a.rebuild != nil && disk == a.rebuild.disk && row >= a.rebuild.next
}

// rowErasures counts the missing pages of one row (data + parity).
func (a *Array) rowErasures(rl rowLoc) int {
	er := 0
	for _, disk := range rl.dataDisks {
		if a.missing(disk, rl.row) {
			er++
		}
	}
	if rl.pDisk >= 0 && a.missing(rl.pDisk, rl.row) {
		er++
	}
	if rl.qDisk >= 0 && a.missing(rl.qDisk, rl.row) {
		er++
	}
	return er
}

// pageLost reports whether the logical content of disk's page at row has
// been lost (redundancy exhausted during a rebuild window). Lost pages are
// served loudly as ErrUnrecoverable until something overwrites them.
func (a *Array) pageLost(disk int, row int64) bool {
	return a.lost[row]&(1<<uint(disk)) != 0
}

// clearLost drops the lost mark for one page (it was just overwritten).
func (a *Array) clearLost(disk int, row int64) {
	if m, ok := a.lost[row]; ok {
		m &^= 1 << uint(disk)
		if m == 0 {
			delete(a.lost, row)
		} else {
			a.lost[row] = m
		}
	}
}

// markLost records that disk's page at row is unrecoverable.
func (a *Array) markLost(disk int, row int64) {
	if !a.pageLost(disk, row) {
		a.lost[row] |= 1 << uint(disk)
		a.stats.LostPages++
	}
}

// LostRows returns the rows holding at least one unrecoverable page, in
// ascending order.
func (a *Array) LostRows() []int64 {
	rows := make([]int64, 0, len(a.lost))
	for r := range a.lost {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

// AddSpare parks a hot-spare device for automatic attachment when a
// member fails. The spare must match the member geometry.
func (a *Array) AddSpare(dev blockdev.Device) error {
	if dev.Pages() != a.geo.diskPages {
		return fmt.Errorf("%w: spare size mismatch", ErrBadGeometry)
	}
	a.spares = append(a.spares, dev)
	return nil
}

// SpareCount returns the number of parked hot spares.
func (a *Array) SpareCount() int { return len(a.spares) }

// RebuildActive reports whether a member rebuild is in progress.
func (a *Array) RebuildActive() bool { return a.rebuild != nil }

// RebuildTarget returns the member being rebuilt and its row watermark.
// active is false when no rebuild is running.
func (a *Array) RebuildTarget() (disk int, watermark int64, active bool) {
	if a.rebuild == nil {
		return 0, 0, false
	}
	return a.rebuild.disk, a.rebuild.next, true
}

// StartRebuild swaps failed member i for a fresh device and opens the
// rebuild window at row 0. Stale parity rows are resynchronised first
// (§III-E: parity_update precedes rebuild) — automatically, so callers
// need not know the ordering. Rows whose staleness cannot be repaired
// (the failed member holds their data, so reconstruct-write is impossible)
// have that page marked lost and are healed to a defined state when the
// watermark passes them.
func (a *Array) StartRebuild(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	if !a.disks[i].Failed() {
		return t, ErrNotDegraded
	}
	if a.rebuild != nil {
		return t, fmt.Errorf("raid: rebuild of disk %d already in progress", a.rebuild.disk)
	}
	if fresh.Pages() != a.geo.diskPages {
		return t, fmt.Errorf("%w: replacement size mismatch", ErrBadGeometry)
	}
	done, err := a.resyncForRebuild(t, i)
	if err != nil {
		return t, err
	}
	a.disks[i].Repair(fresh)
	a.failed--
	a.rebuild = &rebuildState{disk: i, next: 0}
	a.stats.RebuildsStarted++
	return done, nil
}

// StartSpareRebuild attaches a parked hot spare to the lowest-numbered
// failed member and opens its rebuild window. started is false when there
// is nothing to do (no failure, no spare, or a rebuild already running).
func (a *Array) StartSpareRebuild(t sim.Time) (done sim.Time, started bool, err error) {
	if a.rebuild != nil || a.failed == 0 || len(a.spares) == 0 {
		return t, false, nil
	}
	target := -1
	for i, d := range a.disks {
		if d.Failed() {
			target = i
			break
		}
	}
	if target < 0 {
		return t, false, nil
	}
	spare := a.spares[0]
	a.spares = a.spares[1:]
	done, err = a.StartRebuild(t, target, spare)
	if err != nil {
		a.spares = append([]blockdev.Device{spare}, a.spares...)
		return t, false, err
	}
	a.stats.SpareAttaches++
	return done, true, nil
}

// resyncForRebuild repairs every stale parity row before the rebuild of
// disk i opens. Rows that cannot be resynced because disk i holds their
// data (stale parity + missing data = no reconstruction) get that page
// marked lost; any other failure aborts with a typed ResyncError carrying
// the remaining stale-row count.
func (a *Array) resyncForRebuild(t sim.Time, i int) (sim.Time, error) {
	if len(a.stale) == 0 {
		return t, nil
	}
	rows := make([]int64, 0, len(a.stale))
	for r := range a.stale {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(x, y int) bool { return rows[x] < rows[y] })
	done := t
	for _, row := range rows {
		c, err := a.resyncRow(t, row)
		if err == nil {
			done = sim.MaxTime(done, c)
			t = c
			continue
		}
		if err == ErrTooManyFailures || a.rowHasData(i, row) {
			// The failed member holds data of this stale row: its content
			// is gone (the data-loss window §III-E closes by folding
			// parity BEFORE rebuild). Account for it loudly and let the
			// rebuild heal the row to a defined (zero-filled) state.
			a.markLost(i, row)
			delete(a.stale, row)
			continue
		}
		return t, &ResyncError{StaleRows: len(a.stale), Err: err}
	}
	return done, nil
}

// rowHasData reports whether disk i holds a data page (not parity) in row.
func (a *Array) rowHasData(i int, row int64) bool {
	rl := a.geo.locateRow(row / a.geo.chunkPages)
	for _, disk := range rl.dataDisks {
		if disk == i {
			return true
		}
	}
	return false
}

// ResumeRebuild re-opens a rebuild window after a crash, from the
// checkpoint recovery read out of NVRAM. The checkpoint is written after
// every step, so watermark never exceeds the rows actually reconstructed;
// resuming at an older watermark merely re-rebuilds rows, which is
// idempotent. Resuming onto a member that has since failed (the target
// died before the crash and the checkpoint never caught up) is a no-op:
// the rebuild is dead and a spare attach must start a fresh one.
func (a *Array) ResumeRebuild(disk int, watermark int64) error {
	if disk < 0 || disk >= len(a.disks) {
		return fmt.Errorf("%w: rebuild checkpoint names disk %d of %d", ErrBadGeometry, disk, len(a.disks))
	}
	if watermark < 0 || watermark > a.geo.diskPages {
		return fmt.Errorf("%w: rebuild checkpoint watermark %d outside [0,%d]", ErrBadGeometry, watermark, a.geo.diskPages)
	}
	if a.disks[disk].Failed() {
		return nil
	}
	if watermark >= a.geo.diskPages {
		a.rebuild = nil
		return nil
	}
	a.rebuild = &rebuildState{disk: disk, next: watermark}
	return nil
}

// CrashRebuildState models the power-failure loss of the volatile rebuild
// tracker: the watermark lives in array software state, not on any
// device, so a crash forgets it. Rigs call this when simulating a crash;
// recovery must then ResumeRebuild from the NVRAM checkpoint or the
// un-rebuilt region would silently be served as valid zeros.
func (a *Array) CrashRebuildState() { a.rebuild = nil }

// RebuildStep reconstructs up to maxRows rows of the active rebuild and
// advances the watermark. It returns the rows actually reconstructed and
// whether the rebuild completed (also true when none is active). The
// caller paces these steps against foreground traffic (the KDD engine's
// token bucket, or a driver loop).
func (a *Array) RebuildStep(t sim.Time, maxRows int) (done sim.Time, rowsDone int, complete bool, err error) {
	if a.rebuild == nil {
		return t, 0, true, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseRebuild, a.Name(), a.rebuild.next, maxRows)
		defer func() { sp.End(done) }()
	}
	done = t
	target := a.rebuild.disk
	for rowsDone < maxRows && a.rebuild != nil && a.rebuild.next < a.geo.diskPages {
		row := a.rebuild.next
		c, err := a.rebuildRow(t, target, row)
		if err != nil {
			return done, rowsDone, false, err
		}
		done = sim.MaxTime(done, c)
		t = c // rebuild rows are serialized background work
		a.rebuild.next = row + 1
		rowsDone++
		a.stats.RebuildRows++
		a.stats.RebuildBytes += blockdev.PageSize
	}
	if a.rebuild != nil && a.rebuild.next >= a.geo.diskPages {
		a.rebuild = nil
		a.stats.RebuildsCompleted++
	}
	return done, rowsDone, a.rebuild == nil, nil
}

// rebuildRow reconstructs the target member's page at row and writes it.
func (a *Array) rebuildRow(t sim.Time, target int, row int64) (done sim.Time, err error) {
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseRebuildRow, a.Name(), row, 1)
		defer func() { sp.End(done) }()
	}
	dataMode := a.dataMode()
	var page []byte

	switch a.cfg.Level {
	case Level1:
		src := -1
		for j := range a.disks {
			if j != target && !a.missing(j, row) {
				src = j
				break
			}
		}
		if src == -1 {
			return t, ErrTooManyFailures
		}
		page = pageScratch(dataMode)
		c, err := a.readMember(t, src, row, page)
		if err != nil {
			return t, err
		}
		t = c
	case Level5, Level6:
		usable := a.geo.diskPages - a.geo.diskPages%a.geo.chunkPages
		if row >= usable {
			// Tail rows beyond the last whole chunk carry no logical data;
			// a fresh device already holds zeros there.
			page = pageScratch(dataMode)
			break
		}
		rl := a.geo.locateRow(row / a.geo.chunkPages)
		rl.row = row
		if a.stale[row] || a.pageLost(target, row) {
			// Stale parity or an already-lost target page: heal to a
			// defined state instead of reconstructing. Rows with lost
			// pages on OTHER members only are physically consistent (the
			// loss was healed when their own rebuild passed them) and take
			// the normal path below.
			return a.rebuildDamagedRow(t, target, rl)
		}
		st, c, err := a.readRow(t, rl, nil)
		if err != nil {
			return t, err
		}
		defer st.release()
		t = c
		if !a.recoverable(st) {
			// A second member failed inside the rebuild window and this
			// row's erasures exceed the level's tolerance (RAID-5 with a
			// concurrent failure). Account for every missing page loudly
			// and move on — the surviving members still serve their own
			// pages directly.
			for _, idx := range st.missingD {
				a.markLost(rl.dataDisks[idx], row)
			}
			if st.missingP {
				a.markLost(rl.pDisk, row)
			}
			if st.missingQ {
				a.markLost(rl.qDisk, row)
			}
			return t, nil
		}
		if dataMode {
			if err := a.solveRow(st); err != nil {
				return t, err
			}
			switch {
			case rl.pDisk == target:
				page = st.p
			case rl.qDisk == target:
				page = st.q
			default:
				for i, disk := range rl.dataDisks {
					if disk == target {
						page = st.data[i]
						break
					}
				}
			}
		}
		if page == nil {
			page = pageScratch(dataMode)
			defer putScratch(page) // distinct from st's pages: no double-put
		}
	default:
		return t, ErrTooManyFailures
	}

	a.stats.RebuildWrite++
	c, err := a.disks[target].WritePages(t, row, 1, page)
	if err != nil {
		return t, err
	}
	return c, nil
}

// rebuildDamagedRow heals a stale or partially-lost row to a defined
// state: lost data pages are zero-filled, and parity is recomputed from
// the surviving data plus those zeros, so the row becomes internally
// consistent while reads of the lost pages keep failing loudly until
// something overwrites them. A stale row whose target holds parity is the
// benign case — parity is simply recomputed from the (all readable) data.
// Rows damaged beyond the target (a second member also lost pages) are
// left alone — writing anything there would destroy evidence.
func (a *Array) rebuildDamagedRow(t sim.Time, target int, rl rowLoc) (sim.Time, error) {
	targetIsData := target != rl.pDisk && target != rl.qDisk
	if a.stale[rl.row] && targetIsData {
		// Stale parity cannot reconstruct the target's data: the page is
		// gone (normally already accounted by StartRebuild's resync).
		a.markLost(target, rl.row)
	}
	if a.lost[rl.row]&^(1<<uint(target)) != 0 {
		return t, nil
	}
	dataMode := a.dataMode()
	var p, q []byte
	if dataMode {
		p = blockdev.GetZeroPage()
		defer blockdev.PutPage(p)
		if rl.qDisk >= 0 {
			q = blockdev.GetZeroPage()
			defer blockdev.PutPage(q)
		}
	}
	tmp := pageScratch(dataMode)
	defer putScratch(tmp)
	done := t
	for i, disk := range rl.dataDisks {
		if disk == target {
			continue // lost page: defined as zeros, contributes nothing
		}
		if a.missing(disk, rl.row) {
			return t, nil // second failure on a damaged row: leave it
		}
		c, err := a.readMember(t, disk, rl.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if dataMode {
			XorInto(p, tmp)
			if q != nil {
				gfMulInto(q, tmp, gfPow(i))
			}
		}
	}
	// Write the target's page: recomputed parity when it holds P/Q, a
	// defined zero page when its data is lost (a fresh device holds zeros
	// already, but a resumed rebuild may be re-walking the row).
	page := pageScratch(dataMode)
	switch target {
	case rl.pDisk:
		page = p
	case rl.qDisk:
		page = q
	}
	a.stats.RebuildWrite++
	c, err := a.disks[target].WritePages(done, rl.row, 1, page)
	if err != nil {
		return t, err
	}
	done = sim.MaxTime(done, c)
	if rl.pDisk >= 0 && rl.pDisk != target && !a.missing(rl.pDisk, rl.row) {
		a.stats.ParityWrites++
		if c, err = a.disks[rl.pDisk].WritePages(done, rl.row, 1, p); err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if rl.qDisk >= 0 && rl.qDisk != target && !a.missing(rl.qDisk, rl.row) {
		a.stats.ParityWrites++
		if c, err = a.disks[rl.qDisk].WritePages(done, rl.row, 1, q); err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	delete(a.stale, rl.row)
	return done, nil
}
