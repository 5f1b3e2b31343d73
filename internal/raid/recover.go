package raid

import (
	"errors"
	"fmt"
	"sort"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// This file implements degraded operation, resynchronisation of stale
// parity, disk replacement and rebuild — the failure-handling behaviours
// of §III-E: "on an SSD failure, RAID storage can be re-synchronized
// through reconstruct-write", and "if a HDD fails, KDD first updates all
// parity blocks ... then triggers the rebuilding process".

// FailDisk marks member disk i as failed. Failing the target of an
// active rebuild abandons the rebuild: there is nothing left to resume
// onto, and a later spare attach must start over from row 0.
func (a *Array) FailDisk(i int) {
	if !a.disks[i].Failed() {
		a.disks[i].Fail()
		a.failed++
		if a.rebuild != nil && a.rebuild.disk == i {
			a.rebuild = nil
			a.stats.RebuildsAborted++
		}
	}
}

// FailedDisks returns the indices of failed members.
func (a *Array) FailedDisks() []int {
	var out []int
	for i, d := range a.disks {
		if d.Failed() {
			out = append(out, i)
		}
	}
	return out
}

// Healthy reports whether no member disk is failed and no rebuild is in
// progress: inside the rebuild window the array still has rows with
// reduced redundancy, so callers (the KDD engine) must stay conservative.
func (a *Array) Healthy() bool { return a.failed == 0 && a.rebuild == nil }

// Survivable reports whether current failures are within the level's
// tolerance.
func (a *Array) Survivable() bool {
	return a.failed <= a.cfg.Level.faultTolerance(len(a.disks))
}

// degradedRead reconstructs the data page at l from surviving members.
// "Missing" is per-row: a rebuild target above the watermark is treated
// exactly like a failed disk for its un-rebuilt rows.
func (a *Array) degradedRead(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	if a.lost[l.row] != 0 {
		// Redundancy of this row was exhausted during a rebuild window and
		// some of its pages were declared lost; reconstruction would serve
		// fabricated bytes.
		return t, fmt.Errorf("%w: row %d holds pages lost in a rebuild window", ErrUnrecoverable, l.row)
	}
	rl := a.geo.locateRow(l.stripe)
	rl.row = l.row
	if a.rowErasures(rl) > a.cfg.Level.faultTolerance(len(a.disks)) {
		return t, ErrTooManyFailures
	}
	if a.rowStale(l) {
		// Stale parity cannot reconstruct current data: this is the data
		// loss window the paper closes by resynchronising before use.
		return t, ErrStaleParity
	}
	a.stats.DegradedRead++

	var done sim.Time
	var err error
	switch a.cfg.Level {
	case Level5:
		done, err = a.reconstructXOR(t, l, rl, buf)
	case Level6:
		done, err = a.reconstructRS(t, l, rl, buf)
	default:
		return t, ErrTooManyFailures
	}
	if err != nil && errors.Is(err, blockdev.ErrMedia) {
		// A survivor page is unreadable on top of the missing member. The
		// streaming reconstruction cannot route around it, but the general
		// row decode can treat it as one more erasure — within RAID-6
		// tolerance even inside a rebuild window.
		a.stats.MediaErrors++
		return a.reconstructViaRow(t, l, rl, buf)
	}
	return done, err
}

// reconstructViaRow is degradedRead's fallback when a survivor read hits
// a persistent media error: decode the whole row with the bad page as an
// additional erasure, serve the target page, and write the decoded
// content back onto the media-bad data pages (best effort) so the latent
// error heals in place.
func (a *Array) reconstructViaRow(t sim.Time, l loc, rl rowLoc, buf []byte) (sim.Time, error) {
	st, done, err := a.readRow(t, rl, nil)
	if err != nil {
		return t, err
	}
	defer st.release()
	if !a.recoverable(st) {
		return t, fmt.Errorf("%w: row %d has more erasures than the level tolerates", ErrUnrecoverable, l.row)
	}
	if buf != nil {
		if err := a.solveRow(st); err != nil {
			return t, fmt.Errorf("%w: row %d", err, l.row)
		}
		copy(buf, st.data[l.dataIdx])
		for i, disk := range rl.dataDisks {
			if st.media[disk] {
				a.stats.ReadRepairs++
				if c, werr := a.disks[disk].WritePages(done, rl.row, 1, st.data[i]); werr == nil {
					done = sim.MaxTime(done, c)
				}
			}
		}
	}
	return done, nil
}

// reconstructXOR rebuilds one data page as the XOR of the surviving data
// pages and P.
func (a *Array) reconstructXOR(t sim.Time, l loc, rl rowLoc, buf []byte) (sim.Time, error) {
	done := t
	if buf != nil {
		for i := range buf[:blockdev.PageSize] {
			buf[i] = 0
		}
	}
	tmp := pageScratch(buf != nil)
	defer putScratch(tmp)
	for _, disk := range rl.dataDisks {
		if disk == l.disk {
			continue
		}
		if a.missing(disk, l.row) {
			// A source is itself missing. Never read it: a rebuild target
			// above the watermark answers with unwritten zeros, not data.
			return t, ErrTooManyFailures
		}
		c, err := a.readMember(t, disk, l.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if buf != nil {
			XorInto(buf, tmp)
		}
	}
	if a.missing(rl.pDisk, l.row) {
		return t, ErrTooManyFailures
	}
	c, err := a.readMember(t, rl.pDisk, l.row, tmp)
	if err != nil {
		return t, err
	}
	done = sim.MaxTime(done, c)
	if buf != nil {
		XorInto(buf, tmp)
	}
	return done, nil
}

// reconstructRS rebuilds one data page on a RAID-6 row with up to two
// erasures, using P and/or Q as needed.
func (a *Array) reconstructRS(t sim.Time, l loc, rl rowLoc, buf []byte) (sim.Time, error) {
	// Identify erasures relevant to this row (failed disks plus the
	// un-rebuilt region of an active rebuild target).
	var failedData []int // data indices
	for i, disk := range rl.dataDisks {
		if a.missing(disk, l.row) {
			failedData = append(failedData, i)
		}
	}
	pOK := !a.missing(rl.pDisk, l.row)
	qOK := !a.missing(rl.qDisk, l.row)

	// Accumulators (nil in timing mode).
	data := buf != nil
	var pAcc, qAcc []byte
	if data {
		pAcc = blockdev.GetZeroPage() // P ⊕ Σ surviving D_i
		qAcc = blockdev.GetZeroPage() // Q ⊕ Σ g^i·surviving D_i
		defer blockdev.PutPage(pAcc)
		defer blockdev.PutPage(qAcc)
	}
	tmp := pageScratch(data)
	defer putScratch(tmp)
	done := t

	// Read surviving data pages.
	for i, disk := range rl.dataDisks {
		if a.missing(disk, l.row) {
			continue
		}
		c, err := a.readMember(t, disk, l.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if data {
			XorInto(pAcc, tmp)
			gfMulInto(qAcc, tmp, gfPow(i))
		}
	}
	if pOK {
		c, err := a.readMember(t, rl.pDisk, l.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if data {
			XorInto(pAcc, tmp)
		}
	}
	if qOK {
		c, err := a.readMember(t, rl.qDisk, l.row, tmp)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if data {
			XorInto(qAcc, tmp)
		}
	}

	if !data {
		return done, nil
	}

	// Solve for the target page (data index l.dataIdx).
	switch {
	case len(failedData) == 1 && pOK:
		// pAcc already equals the missing page.
		copy(buf, pAcc)
	case len(failedData) == 1 && !pOK && qOK:
		// qAcc = g^x · D_x.
		gfScale(buf, qAcc, gfInv(gfPow(l.dataIdx)))
	case len(failedData) == 2 && pOK && qOK:
		x, y := failedData[0], failedData[1]
		// pAcc = D_x ⊕ D_y ; qAcc = g^x·D_x ⊕ g^y·D_y.
		gx, gy := gfPow(x), gfPow(y)
		denom := gx ^ gy
		dx := blockdev.GetPage() // fully assigned by gfScale
		defer blockdev.PutPage(dx)
		// D_x = (qAcc ⊕ g^y·pAcc) / (g^x ⊕ g^y)
		gfMulInto(qAcc, pAcc, gy)
		gfScale(dx, qAcc, gfInv(denom))
		if l.dataIdx == x {
			copy(buf, dx)
		} else {
			XorInto(pAcc, dx) // D_y = pAcc ⊕ D_x
			copy(buf, pAcc)
		}
	default:
		return t, ErrTooManyFailures
	}
	return done, nil
}

// degradedWrite services a write when the data page or a parity page of
// the target row is missing (failed disk, or the un-rebuilt region of a
// rebuild target), folding the new data into the surviving redundancy.
func (a *Array) degradedWrite(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	rl := a.geo.locateRow(l.stripe)
	rl.row = l.row
	if a.lost[l.row]&^(1<<uint(l.disk)) != 0 {
		// Pages other than the target are lost: the row's parity no longer
		// describes its data, and anything short of a full-row rewrite
		// would launder the loss into plausible-looking bytes.
		return t, fmt.Errorf("%w: row %d holds pages lost in a rebuild window", ErrUnrecoverable, l.row)
	}
	if a.rowErasures(rl) > a.cfg.Level.faultTolerance(len(a.disks)) {
		return t, ErrTooManyFailures
	}
	data := buf != nil

	dataMissing := a.missing(l.disk, l.row)
	pOK := rl.pDisk >= 0 && !a.missing(rl.pDisk, l.row)
	qOK := rl.qDisk >= 0 && !a.missing(rl.qDisk, l.row)

	if !dataMissing {
		// Only parity lost: write the data; surviving parity (if any) is
		// updated via RMW against that disk alone.
		done := t
		var old []byte
		if data && (pOK || qOK) {
			old = blockdev.GetPage() // fully overwritten by the member read
			defer blockdev.PutPage(old)
			c, err := a.readMember(t, l.disk, l.row, old)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The old copy is unreadable, so the parity diff cannot
					// be formed: place the write via a full-row decode, which
					// absorbs the bad page as one more erasure.
					a.stats.MediaErrors++
					return a.degradedWriteTwoMissing(t, l, rl, buf)
				}
				return t, err
			}
			t = sim.MaxTime(t, c)
		}
		a.stats.DataWrites++
		c, err := a.disks[l.disk].WritePages(t, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		if pOK || qOK {
			var diff []byte
			if data {
				diff = old
				XorInto(diff, buf)
			}
			c, err := a.applyParityDiff(t, l, rl, diff, pOK, qOK)
			if err != nil {
				if errors.Is(err, blockdev.ErrMedia) {
					// The surviving parity copy is unreadable: the data write
					// already landed, so a full-row decode recomputes that
					// copy from the current bytes (the diff becomes moot).
					a.stats.MediaErrors++
					return a.degradedWriteTwoMissing(t, l, rl, buf)
				}
				return t, err
			}
			done = sim.MaxTime(done, c)
		}
		a.clearLost(l.disk, l.row)
		return done, nil
	}

	// Data page missing: fold the new value into parity via reconstruction
	// from the surviving data pages (reconstruct-write).
	done := t
	var p, q []byte
	if data {
		p = blockdev.GetPage() // fully assigned by the copy below
		defer blockdev.PutPage(p)
		copy(p, buf)
		if qOK {
			q = blockdev.GetZeroPage() // gfMulInto folds into zero
			defer blockdev.PutPage(q)
			gfMulInto(q, buf, gfPow(l.dataIdx))
		}
	}
	tmp := pageScratch(data)
	defer putScratch(tmp)
	for i, disk := range rl.dataDisks {
		if disk == l.disk {
			continue
		}
		if a.missing(disk, l.row) {
			// A second data page of the row is missing: only a RAID-6
			// full-row decode can still place this write.
			return a.degradedWriteTwoMissing(t, l, rl, buf)
		}
		c, err := a.readMember(t, disk, l.row, tmp)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				// A survivor page is unreadable on top of the missing
				// target: the full-row decode treats it as a second erasure.
				a.stats.MediaErrors++
				return a.degradedWriteTwoMissing(t, l, rl, buf)
			}
			return t, err
		}
		done = sim.MaxTime(done, c)
		if data {
			XorInto(p, tmp)
			if q != nil {
				gfMulInto(q, tmp, gfPow(i))
			}
		}
	}
	phase2 := done
	if pOK {
		a.stats.ParityWrites++
		c, err := a.disks[rl.pDisk].WritePages(phase2, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if qOK {
		a.stats.ParityWrites++
		c, err := a.disks[rl.qDisk].WritePages(phase2, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if !pOK && !qOK {
		return t, ErrTooManyFailures
	}
	delete(a.stale, l.row)
	a.clearLost(l.disk, l.row) // parity now encodes the page's new bytes
	return done, nil
}

// degradedWriteTwoMissing places a write on a row with two effective
// erasures — the target's data page plus a second missing page, or a
// missing page plus a media-unreadable one: a full-row decode recovers
// every old page from the surviving redundancy, the new data is
// substituted, and both parities are recomputed and rewritten (plus the
// data page itself when its device is physically writable). A missing
// page keeps its old (decoded) value in the new parity, so it remains
// exactly as reconstructible as before the write.
func (a *Array) degradedWriteTwoMissing(t sim.Time, l loc, rl rowLoc, buf []byte) (sim.Time, error) {
	if a.rowStale(l) {
		// Stale parity cannot decode the missing pages.
		return t, ErrStaleParity
	}
	st, done, err := a.readRow(t, rl, nil)
	if err != nil {
		return t, err
	}
	defer st.release()
	if !a.recoverable(st) {
		return t, ErrTooManyFailures
	}
	dataMode := a.dataMode()
	var p, q []byte
	if dataMode {
		if err := a.solveRow(st); err != nil {
			return t, err
		}
		if buf != nil {
			copy(st.data[l.dataIdx], buf)
		}
		p = blockdev.GetZeroPage()
		defer blockdev.PutPage(p)
		if rl.qDisk >= 0 {
			q = blockdev.GetZeroPage()
			defer blockdev.PutPage(q)
		}
		for i := range st.data {
			XorInto(p, st.data[i])
			if q != nil {
				gfMulInto(q, st.data[i], gfPow(i))
			}
		}
	}
	if !a.missing(l.disk, l.row) {
		// The target device is alive (the decode path was taken for a media
		// error elsewhere in the row): land the data bytes too, or a healed
		// transient page could later resurface its old content against the
		// new parity.
		a.stats.DataWrites++
		c, err := a.disks[l.disk].WritePages(done, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	wrote := false
	if rl.pDisk >= 0 && !a.missing(rl.pDisk, l.row) {
		a.stats.ParityWrites++
		c, err := a.disks[rl.pDisk].WritePages(done, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		wrote = true
	}
	if rl.qDisk >= 0 && !a.missing(rl.qDisk, l.row) {
		a.stats.ParityWrites++
		c, err := a.disks[rl.qDisk].WritePages(done, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		wrote = true
	}
	if !wrote {
		return t, ErrTooManyFailures
	}
	a.clearLost(l.disk, l.row)
	return done, nil
}

// applyParityDiff RMWs diff (old⊕new of one data page) into surviving
// parity devices.
func (a *Array) applyParityDiff(t sim.Time, l loc, rl rowLoc, diff []byte, pOK, qOK bool) (sim.Time, error) {
	done := t
	data := diff != nil
	if pOK {
		var p []byte
		if data {
			p = blockdev.GetPage() // fully overwritten by the parity read
			defer blockdev.PutPage(p)
		}
		a.stats.ParityReads++
		c, err := a.memberRead(t, rl.pDisk, l.row, p)
		if err != nil {
			return t, err
		}
		if data {
			XorInto(p, diff)
		}
		a.stats.ParityWrites++
		c, err = a.disks[rl.pDisk].WritePages(c, l.row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if qOK {
		var q []byte
		if data {
			q = blockdev.GetPage() // fully overwritten by the parity read
			defer blockdev.PutPage(q)
		}
		a.stats.ParityReads++
		c, err := a.memberRead(t, rl.qDisk, l.row, q)
		if err != nil {
			return t, err
		}
		if data {
			gfMulInto(q, diff, gfPow(l.dataIdx))
		}
		a.stats.ParityWrites++
		c, err = a.disks[rl.qDisk].WritePages(c, l.row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	return done, nil
}

// readMember reads one page from a member disk, counting it as a rebuild/
// reconstruction read.
func (a *Array) readMember(t sim.Time, disk int, row int64, buf []byte) (sim.Time, error) {
	a.stats.RebuildReads++
	return a.memberRead(t, disk, row, buf)
}

// Resync recomputes parity for every stale row by reading all data pages
// and rewriting P (and Q): the reconstruct-write resynchronisation run
// after an SSD cache failure. It returns the completion time of the last
// row.
func (a *Array) Resync(t sim.Time) (sim.Time, error) {
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		a.stale = make(map[int64]bool)
		return t, nil
	}
	rows := make([]int64, 0, len(a.stale))
	for r := range a.stale {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	done := t
	for _, row := range rows {
		c, err := a.resyncRow(t, row)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c // serialize row resyncs; background work, not latency critical
	}
	return done, nil
}

func (a *Array) resyncRow(t sim.Time, row int64) (sim.Time, error) {
	stripe := row / a.geo.chunkPages
	rl := a.geo.locateRow(stripe)
	rl.row = row
	pOK := !a.missing(rl.pDisk, row)
	qOK := rl.qDisk >= 0 && !a.missing(rl.qDisk, row)
	if !pOK && (rl.qDisk < 0 || !qOK) {
		// Every parity member of this row is lost; the rebuild recomputes
		// it from the (current) data, so the row is no longer stale.
		delete(a.stale, row)
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
	phase1 := t
	for i, disk := range rl.dataDisks {
		if a.missing(disk, row) {
			// A data member is gone AND parity is stale: that page's current
			// content is beyond every redundancy (stale parity cannot decode
			// it). Account the loss loudly and resynchronise over the
			// survivors — the lost page is defined as zeros, matching the
			// zero-fill the rebuild writes when its watermark passes the row.
			a.markLost(disk, row)
			continue
		}
		c, err := a.readMember(t, disk, row, tmp)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				// Same loss through a different hole: the page is unreadable
				// and the stale parity cannot reconstruct it. Zero-fill the
				// physical page so a remap or a cleared transient can never
				// resurface its old bytes against the fresh parity.
				a.stats.MediaErrors++
				a.markLost(disk, row)
				zp := pageScratch(dataMode)
				if c, werr := a.disks[disk].WritePages(t, row, 1, zp); werr == nil {
					phase1 = sim.MaxTime(phase1, c)
				}
				putScratch(zp)
				continue
			}
			return t, err
		}
		phase1 = sim.MaxTime(phase1, c)
		if dataMode {
			XorInto(p, tmp)
			if q != nil {
				gfMulInto(q, tmp, gfPow(i))
			}
		}
	}
	done := phase1
	if pOK {
		a.stats.ParityWrites++
		c, err := a.disks[rl.pDisk].WritePages(phase1, row, 1, p)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	if qOK {
		a.stats.ParityWrites++
		c, err := a.disks[rl.qDisk].WritePages(phase1, row, 1, q)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	delete(a.stale, row)
	return done, nil
}

// ReplaceDisk swaps member i for a fresh device and rebuilds its contents
// from the survivors, blocking until the rebuild completes. Stale parity
// rows are resynchronised automatically first (§III-E: parity_update
// precedes rebuild), so callers need not know the ordering; rows that
// cannot be resynced surface as lost pages, not as an error. Online
// callers drive StartRebuild/RebuildStep themselves instead.
func (a *Array) ReplaceDisk(t sim.Time, i int, fresh blockdev.Device) (sim.Time, error) {
	done, err := a.StartRebuild(t, i, fresh)
	if err != nil {
		return t, err
	}
	t = done
	for a.rebuild != nil {
		c, _, _, err := a.RebuildStep(t, 1024)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
		t = c
	}
	return done, nil
}

// dataMode sniffs whether members carry real bytes by probing for a
// MemStore-backed device; arrays are homogeneous in practice.
func (a *Array) dataMode() bool {
	if s, ok := a.disks[0].Inner().(blockdev.Storer); ok {
		return s.Store() != nil
	}
	return false
}

// pageScratch returns a zeroed page buffer in data mode or nil in timing
// mode. The buffer comes from the shared page pool; callers hand it back
// via putScratch when it dies (putScratch tolerates nil).
func pageScratch(data bool) []byte {
	if !data {
		return nil
	}
	return blockdev.GetZeroPage()
}

// putScratch returns a pageScratch buffer to the pool.
func putScratch(b []byte) { blockdev.PutPage(b) }

var _ blockdev.Device = (*Array)(nil)
