package raid

import (
	"bytes"
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// This file implements partial-fault handling: read-repair of single
// unreadable pages and the background patrol scrub. Whole-device loss is
// handled in recover.go; here the device is healthy but individual pages
// are not — latent sector errors, bit-rot, torn writes — the fault regime
// parity RAID must survive between full rebuilds.

// ScrubReport summarises one patrol pass over the array.
type ScrubReport struct {
	RowsScanned   int64   // parity rows examined
	RowsSkipped   int64   // stale-parity rows left for the cleaner
	MediaRepaired int64   // unreadable pages reconstructed and rewritten
	ParityFixed   int64   // parity/mirror pages recomputed after a mismatch
	Unrecoverable []int64 // disk rows whose redundancy was exhausted
}

// rowState holds one parity row's pages as read from the members, plus
// which of them could not be read.
type rowState struct {
	rl       rowLoc
	data     [][]byte // per data index; nil when missing or timing mode
	p, q     []byte
	missingD []int // data indices that could not be read
	missingP bool
	missingQ bool
	media    map[int]bool // member disks whose page failed with ErrMedia
}

// release returns every page the row state owns to the pool. Callers of
// readRow defer it; the pages never escape (consumers copy out of them).
func (st *rowState) release() {
	for _, b := range st.data {
		blockdev.PutPage(b)
	}
	blockdev.PutPage(st.p)
	blockdev.PutPage(st.q)
}

// readRow reads every member page of row rl. Failed disks and disks in
// knownBad are treated as missing without issuing I/O; per-page media
// errors mark the page missing and the disk media-bad. Any other error
// aborts.
func (a *Array) readRow(t sim.Time, rl rowLoc, knownBad map[int]bool) (*rowState, sim.Time, error) {
	dataMode := a.dataMode()
	st := &rowState{
		rl:    rl,
		data:  make([][]byte, len(rl.dataDisks)),
		media: make(map[int]bool),
	}
	done := t
	read := func(disk int) ([]byte, bool, error) {
		if knownBad[disk] {
			st.media[disk] = true
			return nil, false, nil
		}
		if a.missing(disk, rl.row) {
			// Failed outright, or the un-rebuilt region of a rebuild
			// target: physically readable there, but holding unwritten
			// zeros — never valid as a reconstruction source.
			return nil, false, nil
		}
		buf := pageScratch(dataMode)
		c, err := a.memberRead(t, disk, rl.row, buf)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				a.stats.MediaErrors++
				st.media[disk] = true
				return nil, false, nil
			}
			return nil, false, err
		}
		done = sim.MaxTime(done, c)
		return buf, true, nil
	}
	for i, disk := range rl.dataDisks {
		buf, ok, err := read(disk)
		if err != nil {
			st.release()
			return nil, t, err
		}
		if !ok {
			st.missingD = append(st.missingD, i)
			continue
		}
		st.data[i] = buf
	}
	if rl.pDisk >= 0 {
		buf, ok, err := read(rl.pDisk)
		if err != nil {
			st.release()
			return nil, t, err
		}
		st.missingP = !ok
		st.p = buf
	}
	if rl.qDisk >= 0 {
		buf, ok, err := read(rl.qDisk)
		if err != nil {
			st.release()
			return nil, t, err
		}
		st.missingQ = !ok
		st.q = buf
	}
	return st, done, nil
}

// recoverable reports whether the row's erasures fit within the level's
// tolerance.
func (a *Array) recoverable(st *rowState) bool {
	er := len(st.missingD)
	if st.rl.pDisk >= 0 && st.missingP {
		er++
	}
	if st.rl.qDisk >= 0 && st.missingQ {
		er++
	}
	switch a.cfg.Level {
	case Level5:
		return er <= 1
	case Level6:
		return er <= 2
	default:
		return er == 0
	}
}

// solveRow reconstructs every missing page of the row in place (data mode
// only). The caller has already checked recoverable().
func (a *Array) solveRow(st *rowState) error {
	dc := len(st.rl.dataDisks)
	switch len(st.missingD) {
	case 0:
		// All data present; missing parity is recomputed below.
	case 1:
		x := st.missingD[0]
		dx := blockdev.GetPage() // fully assigned by either branch below
		switch {
		case st.rl.pDisk >= 0 && !st.missingP:
			// D_x = P ⊕ Σ_{i≠x} D_i.
			copy(dx, st.p)
			for i := 0; i < dc; i++ {
				if i != x {
					XorInto(dx, st.data[i])
				}
			}
		case st.rl.qDisk >= 0 && !st.missingQ:
			// D_x = (Q ⊕ Σ_{i≠x} g^i·D_i) / g^x.
			acc := blockdev.GetPage() // fully assigned by the copy below
			copy(acc, st.q)
			for i := 0; i < dc; i++ {
				if i != x {
					gfMulInto(acc, st.data[i], gfPow(i))
				}
			}
			gfScale(dx, acc, gfInv(gfPow(x)))
			blockdev.PutPage(acc)
		default:
			blockdev.PutPage(dx)
			return ErrUnrecoverable
		}
		st.data[x] = dx
	case 2:
		// Two data erasures need both P and Q (RAID-6 decode).
		if st.rl.qDisk < 0 || st.missingP || st.missingQ {
			return ErrUnrecoverable
		}
		x, y := st.missingD[0], st.missingD[1]
		pAcc := blockdev.GetPage() // fully assigned by the copies below
		qAcc := blockdev.GetPage()
		copy(pAcc, st.p)
		copy(qAcc, st.q)
		for i := 0; i < dc; i++ {
			if i != x && i != y {
				XorInto(pAcc, st.data[i])
				gfMulInto(qAcc, st.data[i], gfPow(i))
			}
		}
		// pAcc = D_x ⊕ D_y ; qAcc = g^x·D_x ⊕ g^y·D_y.
		gx, gy := gfPow(x), gfPow(y)
		gfMulInto(qAcc, pAcc, gy) // qAcc = (g^x ⊕ g^y)·D_x
		dx := blockdev.GetPage()  // fully assigned by gfScale
		gfScale(dx, qAcc, gfInv(gx^gy))
		dy := blockdev.GetPage() // fully assigned by the copy
		copy(dy, pAcc)
		XorInto(dy, dx)
		st.data[x], st.data[y] = dx, dy
		blockdev.PutPage(pAcc)
		blockdev.PutPage(qAcc)
	default:
		return ErrUnrecoverable
	}
	if st.rl.pDisk >= 0 && st.missingP {
		st.p = blockdev.GetZeroPage()
		for i := 0; i < dc; i++ {
			XorInto(st.p, st.data[i])
		}
	}
	if st.rl.qDisk >= 0 && st.missingQ {
		st.q = blockdev.GetZeroPage()
		for i := 0; i < dc; i++ {
			gfMulInto(st.q, st.data[i], gfPow(i))
		}
	}
	return nil
}

// readRepair reconstructs the single unreadable data page at l from the
// surviving members of its row and writes it back in place, so one latent
// sector error is healed without declaring the member disk failed.
func (a *Array) readRepair(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return t, fmt.Errorf("%w: logical page %d (level %s has no parity)",
			ErrUnrecoverable, a.geo.logicalLBA(l.stripe, l.dataIdx, l.row%a.geo.chunkPages), a.cfg.Level)
	}
	if a.rowStale(l) {
		// Parity of this row is stale (WriteNoParity window): it cannot
		// reconstruct the lost page. This is the unrecoverable corner the
		// paper's delayed-parity scheme accepts between write and cleaning.
		return t, fmt.Errorf("%w: media error on row %d while its parity is stale", ErrStaleParity, l.row)
	}
	rl := a.geo.locateRow(l.stripe)
	rl.row = l.row
	st, done, err := a.readRow(t, rl, map[int]bool{l.disk: true})
	if err != nil {
		return t, err
	}
	defer st.release()
	if !a.recoverable(st) {
		return t, fmt.Errorf("%w: row %d has more erasures than the level tolerates", ErrUnrecoverable, l.row)
	}
	var page []byte
	if a.dataMode() {
		if err := a.solveRow(st); err != nil {
			return t, fmt.Errorf("%w: row %d", err, l.row)
		}
		page = st.data[l.dataIdx]
		if buf != nil {
			copy(buf, page)
		}
	}
	a.stats.ReadRepairs++
	c, err := a.disks[l.disk].WritePages(done, l.row, 1, page)
	if err != nil {
		// The data is reconstructed and served even if the write-back
		// fails; the page stays bad and the next scrub retries.
		return done, nil //nolint:nilerr // serving reconstructed data is the point
	}
	return sim.MaxTime(done, c), nil
}

// repairParityRow recomputes an unreadable parity copy of one row in
// place. The row is decoded with the named copy treated as an erasure (a
// stale row additionally distrusts every parity copy, so the decode
// degenerates into a resync from the full data); every distrusted copy
// whose device is physically present is rewritten — remap-on-write heals
// the latent page — and the stale mark is cleared. buf, when non-nil,
// receives the recomputed page of disk.
func (a *Array) repairParityRow(t sim.Time, row int64, disk int, buf []byte) (sim.Time, error) {
	rl := a.geo.locateRow(row / a.geo.chunkPages)
	rl.row = row
	knownBad := map[int]bool{disk: true}
	if a.stale[row] {
		if rl.pDisk >= 0 {
			knownBad[rl.pDisk] = true
		}
		if rl.qDisk >= 0 {
			knownBad[rl.qDisk] = true
		}
	}
	st, done, err := a.readRow(t, rl, knownBad)
	if err != nil {
		return t, err
	}
	defer st.release()
	if !a.recoverable(st) {
		return t, fmt.Errorf("%w: row %d has more erasures than the level tolerates", ErrUnrecoverable, row)
	}
	if a.dataMode() {
		if err := a.solveRow(st); err != nil {
			return t, fmt.Errorf("%w: row %d", err, row)
		}
	}
	write := func(d int, page []byte) error {
		if !knownBad[d] || a.missing(d, row) {
			return nil
		}
		a.stats.ParityWrites++
		c, werr := a.disks[d].WritePages(done, row, 1, page)
		if werr != nil {
			return werr
		}
		done = sim.MaxTime(done, c)
		return nil
	}
	if rl.pDisk >= 0 {
		if err := write(rl.pDisk, st.p); err != nil {
			return t, err
		}
		if buf != nil && disk == rl.pDisk {
			copy(buf, st.p)
		}
	}
	if rl.qDisk >= 0 {
		if err := write(rl.qDisk, st.q); err != nil {
			return t, err
		}
		if buf != nil && disk == rl.qDisk {
			copy(buf, st.q)
		}
	}
	delete(a.stale, row)
	a.stats.ParityFixes++
	return done, nil
}

// Scrub walks every parity row of the array under virtual time, verifying
// that each member page is readable and (in data mode) that parity
// matches the data. Unreadable pages are reconstructed from redundancy
// and rewritten; mismatched parity is recomputed from the data pages
// (data is trusted — it is what the host wrote and re-reads). Rows whose
// parity is deliberately stale are skipped: the cleaner owns them and
// will fold the staged deltas in later. Rows with more erasures than the
// level tolerates are reported in the ScrubReport, never silently
// patched.
func (a *Array) Scrub(t sim.Time) (done sim.Time, rep ScrubReport, err error) {
	usable := a.geo.diskPages - a.geo.diskPages%a.geo.chunkPages
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseScrub, a.Name(), 0, int(usable))
		defer func() { sp.End(done) }()
	}
	a.scrubTotal = usable
	a.scrubRow = 0
	done = t
	for row := int64(0); row < usable; row++ {
		a.scrubRow = row + 1
		if a.stale[row] {
			rep.RowsSkipped++
			continue
		}
		if a.lost[row] != 0 {
			// Pages of this row were declared lost in a rebuild window;
			// nothing the scrub writes could bring them back. Report, never
			// patch.
			rep.Unrecoverable = append(rep.Unrecoverable, row)
			continue
		}
		rep.RowsScanned++
		stripe := row / a.geo.chunkPages
		rl := a.geo.locateRow(stripe)
		rl.row = row
		var c sim.Time
		var err error
		if a.cfg.Level == Level1 {
			c, err = a.scrubMirrorRow(t, rl, &rep)
		} else {
			c, err = a.scrubParityRow(t, rl, &rep)
		}
		if err != nil {
			return t, rep, err
		}
		done = sim.MaxTime(done, c)
		t = c // patrol runs serialized in the background
	}
	return done, rep, nil
}

// scrubParityRow verifies and repairs one RAID-0/5/6 row.
func (a *Array) scrubParityRow(t sim.Time, rl rowLoc, rep *ScrubReport) (sim.Time, error) {
	st, done, err := a.readRow(t, rl, nil)
	if err != nil {
		return t, err
	}
	defer st.release()
	anyMissing := len(st.missingD) > 0 || (rl.pDisk >= 0 && st.missingP) || (rl.qDisk >= 0 && st.missingQ)
	if anyMissing {
		if !a.recoverable(st) {
			rep.Unrecoverable = append(rep.Unrecoverable, rl.row)
			return done, nil
		}
		if a.dataMode() {
			if err := a.solveRow(st); err != nil {
				rep.Unrecoverable = append(rep.Unrecoverable, rl.row)
				return done, nil
			}
		}
		// Write reconstructed pages back, but only onto media-bad disks:
		// pages missing because the whole member failed are the rebuild's
		// job, not the scrub's.
		for i, disk := range rl.dataDisks {
			if st.media[disk] {
				if c, werr := a.disks[disk].WritePages(done, rl.row, 1, st.data[i]); werr == nil {
					done = sim.MaxTime(done, c)
					rep.MediaRepaired++
				}
			}
		}
		if rl.pDisk >= 0 && st.media[rl.pDisk] {
			if c, werr := a.disks[rl.pDisk].WritePages(done, rl.row, 1, st.p); werr == nil {
				done = sim.MaxTime(done, c)
				rep.MediaRepaired++
			}
		}
		if rl.qDisk >= 0 && st.media[rl.qDisk] {
			if c, werr := a.disks[rl.qDisk].WritePages(done, rl.row, 1, st.q); werr == nil {
				done = sim.MaxTime(done, c)
				rep.MediaRepaired++
			}
		}
		return done, nil
	}
	// All pages readable: cross-check parity against data (data mode only
	// — timing mode has no bytes to compare).
	if !a.dataMode() || rl.pDisk < 0 {
		return done, nil
	}
	expP := blockdev.GetZeroPage()
	defer blockdev.PutPage(expP)
	var expQ []byte
	if rl.qDisk >= 0 {
		expQ = blockdev.GetZeroPage()
		defer blockdev.PutPage(expQ)
	}
	for i := range st.data {
		XorInto(expP, st.data[i])
		if expQ != nil {
			gfMulInto(expQ, st.data[i], gfPow(i))
		}
	}
	if !bytes.Equal(expP, st.p) {
		if c, werr := a.disks[rl.pDisk].WritePages(done, rl.row, 1, expP); werr == nil {
			done = sim.MaxTime(done, c)
		}
		rep.ParityFixed++
	}
	if expQ != nil && !bytes.Equal(expQ, st.q) {
		if c, werr := a.disks[rl.qDisk].WritePages(done, rl.row, 1, expQ); werr == nil {
			done = sim.MaxTime(done, c)
		}
		rep.ParityFixed++
	}
	return done, nil
}

// scrubMirrorRow verifies one RAID-1 row: every healthy mirror must hold
// a readable, identical copy. Unreadable copies are re-silvered from the
// first mirror that answers; divergent copies are overwritten by it (the
// first readable mirror is the tie-break authority — with two-way
// mirrors there is no majority to consult).
func (a *Array) scrubMirrorRow(t sim.Time, rl rowLoc, rep *ScrubReport) (sim.Time, error) {
	dataMode := a.dataMode()
	done := t
	var good []byte
	goodAt := -1
	type copyInfo struct {
		disk int
		buf  []byte
	}
	var bad []int       // mirrors with media errors
	var rest []copyInfo // readable mirrors after the first
	anyHealthy := false
	for i, d := range a.disks {
		if d.Failed() {
			continue
		}
		anyHealthy = true
		buf := pageScratch(dataMode)
		c, err := a.memberRead(t, i, rl.row, buf)
		if err != nil {
			if errors.Is(err, blockdev.ErrMedia) {
				a.stats.MediaErrors++
				bad = append(bad, i)
				continue
			}
			return t, err
		}
		done = sim.MaxTime(done, c)
		if goodAt == -1 {
			good, goodAt = buf, i
		} else {
			rest = append(rest, copyInfo{disk: i, buf: buf})
		}
	}
	if goodAt == -1 {
		if anyHealthy {
			rep.Unrecoverable = append(rep.Unrecoverable, rl.row)
		}
		return done, nil
	}
	for _, i := range bad {
		if c, werr := a.disks[i].WritePages(done, rl.row, 1, good); werr == nil {
			done = sim.MaxTime(done, c)
			rep.MediaRepaired++
		}
	}
	if dataMode {
		for _, ci := range rest {
			if !bytes.Equal(ci.buf, good) {
				if c, werr := a.disks[ci.disk].WritePages(done, rl.row, 1, good); werr == nil {
					done = sim.MaxTime(done, c)
				}
				rep.ParityFixed++
			}
		}
	}
	return done, nil
}

// ResyncRow recomputes the parity of lba's row from the current data
// members (reconstruct-write), clearing any stale mark. The KDD core
// falls back to it when a staged delta can no longer be applied — e.g.
// the old page the delta XORs against was lost to a media error. The
// data members always hold the current data (KDD dispatches every write
// to RAID), so recomputing from them is always safe, just costlier than
// the delta RMW.
func (a *Array) ResyncRow(t sim.Time, lba int64) (done sim.Time, err error) {
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return t, nil
	}
	if a.tr != nil {
		sp := a.tr.BeginDev(t, obs.PhaseResync, a.Name(), lba, 1)
		defer func() { sp.End(done) }()
	}
	l := a.geo.locate(lba)
	return a.resyncRow(t, l.row)
}
