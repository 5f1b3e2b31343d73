package lsraid

import (
	"errors"

	"kddcache/internal/blockdev"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// Scrub walks every committed physical row, repairs single unreadable
// pages from parity (rewriting them in place), and — in data mode —
// verifies the row XORs to zero, recomputing parity when it does not
// (the single-parity attribution rule: data wins, parity is rewritten).
// Rows with a missing member are skipped; the rebuild will heal them.
func (a *Array) Scrub(t sim.Time) (done sim.Time, rep raid.ScrubReport, err error) {
	done = t
	n := len(a.disks)
	var pages [][]byte
	if a.dataMode {
		pages = make([][]byte, n)
		for i := range pages {
			pages[i] = blockdev.GetPage()
			defer blockdev.PutPage(pages[i])
		}
	}
	for seg := int64(0); seg < a.numSegs; seg++ {
		m := &a.segs[seg]
		if m.Seq == 0 {
			continue
		}
		for r := int64(0); r < m.Rows; r++ {
			row := seg*a.cfg.SegRows + r
			c, scanned, serr := a.scrubRow(t, row, pages, &rep)
			if serr != nil {
				return done, rep, serr
			}
			if scanned {
				rep.RowsScanned++
			} else {
				rep.RowsSkipped++
			}
			done = sim.MaxTime(done, c)
			t = c
		}
	}
	return done, rep, nil
}

// scrubRow checks one committed physical row. scanned is false when the
// row was skipped (missing member).
func (a *Array) scrubRow(t sim.Time, row int64, pages [][]byte, rep *raid.ScrubReport) (done sim.Time, scanned bool, err error) {
	n := len(a.disks)
	for d := 0; d < n; d++ {
		if a.missing(d, row) {
			return t, false, nil
		}
	}
	done = t
	bad := -1
	for d := 0; d < n; d++ {
		var buf []byte
		if pages != nil {
			buf = pages[d]
		}
		c, rerr := a.memberRead(t, d, row, buf)
		if rerr != nil {
			if errors.Is(rerr, blockdev.ErrCrashed) {
				return done, true, rerr
			}
			if errors.Is(rerr, blockdev.ErrFailed) {
				a.noteFailed(d)
				return done, false, nil
			}
			a.stats.MediaErrors++
			if bad >= 0 {
				// Two unreadable pages under single parity: loud loss.
				a.scrubLoss(row, rep)
				return done, true, nil
			}
			bad = d
			continue
		}
		done = sim.MaxTime(done, c)
	}
	if bad >= 0 {
		// Reconstruct the single bad page from the others and rewrite it.
		var acc []byte
		if pages != nil {
			acc = blockdev.GetZeroPage()
			defer blockdev.PutPage(acc)
			for d := 0; d < n; d++ {
				if d != bad {
					raid.XorInto(acc, pages[d])
				}
			}
			copy(pages[bad], acc)
		}
		c, werr := a.disks[bad].WritePages(done, row, 1, acc)
		if werr != nil {
			if errors.Is(werr, blockdev.ErrCrashed) {
				return done, true, werr
			}
			a.scrubLoss(row, rep)
			return done, true, nil
		}
		done = c
		rep.MediaRepaired++
	}
	if pages != nil {
		x := blockdev.GetZeroPage()
		defer blockdev.PutPage(x)
		for d := 0; d < n; d++ {
			raid.XorInto(x, pages[d])
		}
		if !allZero(x) {
			pd := a.parityDisk(row)
			p := blockdev.GetZeroPage()
			defer blockdev.PutPage(p)
			for d := 0; d < n; d++ {
				if d != pd {
					raid.XorInto(p, pages[d])
				}
			}
			c, werr := a.disks[pd].WritePages(done, row, 1, p)
			if werr != nil {
				if errors.Is(werr, blockdev.ErrCrashed) {
					return done, true, werr
				}
				a.scrubLoss(row, rep)
				return done, true, nil
			}
			done = c
			rep.ParityFixed++
		}
	}
	return done, true, nil
}

// scrubLoss records the row as unrecoverable and marks its live logical
// pages lost.
func (a *Array) scrubLoss(row int64, rep *raid.ScrubReport) {
	rep.Unrecoverable = append(rep.Unrecoverable, row)
	seg := row / a.cfg.SegRows
	base := (row % a.cfg.SegRows) * int64(a.dc())
	m := &a.segs[seg]
	for k := 0; k < a.dc(); k++ {
		idx := base + int64(k)
		if idx >= int64(len(m.LBAs)) {
			break
		}
		lba := m.LBAs[idx]
		if cur, ok := a.l2p[lba]; ok && cur.seg == int32(seg) && int64(cur.idx) == idx && !a.lost[lba] {
			if _, pend := a.pendingIdx[lba]; pend {
				continue
			}
			a.lost[lba] = true
			a.stats.LostPages++
		}
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
