package raid

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Errors returned by the array.
var (
	ErrTooManyFailures = errors.New("raid: too many failed disks")
	ErrStaleParity     = errors.New("raid: degraded read hit a row with stale parity (data loss window)")
	ErrNeedResync      = errors.New("raid: stale parity rows present; resync before rebuild")
	ErrNotDegraded     = errors.New("raid: no failed disk to rebuild")
	ErrBadGeometry     = errors.New("raid: invalid geometry")
	// ErrUnrecoverable marks a page whose media error cannot be repaired:
	// the row's redundancy is exhausted (or the level has none). It is
	// reported loudly — never served as zeros.
	ErrUnrecoverable = errors.New("raid: page unrecoverable (redundancy exhausted)")
)

// Config describes an array.
type Config struct {
	Level      Level
	ChunkPages int64 // pages per chunk (paper default: 64KB/4KB = 16)
}

// Stats counts member-disk operations by cause.
type Stats struct {
	DataReads    int64 // data-page reads for user requests
	DataWrites   int64 // data-page writes for user requests
	ParityReads  int64 // parity reads (RMW)
	ParityWrites int64 // parity writes
	RebuildReads int64
	RebuildWrite int64
	DegradedRead int64 // reconstruct-on-read operations
	NoParityWr   int64 // writes issued through WriteNoParity
	ParityFixes  int64 // deferred parity updates applied
	MediaErrors  int64 // member reads that returned blockdev.ErrMedia
	ReadRepairs  int64 // single pages reconstructed and rewritten in place

	// Online rebuild and hot spares.
	RebuildRows       int64 // member rows reconstructed by RebuildStep
	RebuildBytes      int64 // bytes written onto rebuild targets
	RebuildsStarted   int64
	RebuildsCompleted int64
	RebuildsAborted   int64 // rebuilds abandoned because the target died
	SpareAttaches     int64 // hot spares auto-attached to failed members
	LostPages         int64 // member pages whose content was declared lost

	// Log-structured backend (internal/lsraid) accounting. The seam
	// shares one Stats struct so experiments and dashboards compare
	// engines field-for-field; the parity engine leaves these zero.
	GCCopies   int64 // live pages copied forward by segment GC
	GCSegments int64 // segments reclaimed by GC
}

// Array is a parity-protected disk array over member block devices.
//
// All member devices must have equal capacity. The array runs in data mode
// when the members carry real bytes (buffers non-nil), or in timing mode
// (nil buffers); parity is byte-accurate in data mode.
type Array struct {
	cfg    Config
	name   string // cached cfg.Level.String(); Name() is on traced hot paths
	geo    layout
	disks  []*blockdev.FaultDevice
	stale  map[int64]bool // rows whose parity is stale (delayed updates)
	failed int            // count of currently failed disks
	stats  Stats
	tr     *obs.Tracer

	// Online rebuild state (rebuild.go). lost maps a member row to the
	// bitmask of disks whose page content there is unrecoverable; such
	// pages read back as ErrUnrecoverable until overwritten.
	rebuild *rebuildState
	spares  []blockdev.Device
	lost    map[int64]uint32

	// Patrol-scrub progress (rows scanned of total, last/current pass).
	scrubRow   int64
	scrubTotal int64
}

// SetTracer installs a span tracer (nil disables tracing). Array entry
// points appear as raid_* spans nested inside the calling operation.
func (a *Array) SetTracer(tr *obs.Tracer) { a.tr = tr }

// New builds an array over the given member devices, wrapping each in a
// FaultDevice for failure injection.
func New(cfg Config, members []blockdev.Device) (*Array, error) {
	n := len(members)
	if n == 0 {
		return nil, fmt.Errorf("%w: no disks", ErrBadGeometry)
	}
	switch cfg.Level {
	case Level0:
		if n < 2 {
			return nil, fmt.Errorf("%w: RAID-0 needs >=2 disks", ErrBadGeometry)
		}
	case Level1:
		if n < 2 {
			return nil, fmt.Errorf("%w: RAID-1 needs >=2 disks", ErrBadGeometry)
		}
	case Level5:
		if n < 3 {
			return nil, fmt.Errorf("%w: RAID-5 needs >=3 disks", ErrBadGeometry)
		}
	case Level6:
		if n < 4 {
			return nil, fmt.Errorf("%w: RAID-6 needs >=4 disks", ErrBadGeometry)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported level %d", ErrBadGeometry, cfg.Level)
	}
	if cfg.ChunkPages <= 0 {
		return nil, fmt.Errorf("%w: chunk must be positive", ErrBadGeometry)
	}
	pages := members[0].Pages()
	for _, m := range members[1:] {
		if m.Pages() != pages {
			return nil, fmt.Errorf("%w: member sizes differ", ErrBadGeometry)
		}
	}
	a := &Array{
		cfg:  cfg,
		name: cfg.Level.String(),
		geo: layout{
			level:      cfg.Level,
			disks:      n,
			chunkPages: cfg.ChunkPages,
			diskPages:  pages,
		},
		stale: make(map[int64]bool),
		lost:  make(map[int64]uint32),
	}
	for _, m := range members {
		a.disks = append(a.disks, blockdev.NewFaultDevice(m))
	}
	return a, nil
}

// Name implements blockdev.Device.
func (a *Array) Name() string { return a.name }

// Pages implements blockdev.Device (logical capacity).
func (a *Array) Pages() int64 { return a.geo.dataPages() }

// Disks returns the number of member disks.
func (a *Array) Disks() int { return len(a.disks) }

// Member returns the inner device of member disk i (for inspection by
// tests and tooling; do not issue I/O through it).
func (a *Array) Member(i int) blockdev.Device { return a.disks[i].Inner() }

// Injector returns the fault injector wrapping member disk i, so tests
// and the chaos harness can arm per-page faults, crash points, and
// probabilistic profiles on individual members.
func (a *Array) Injector(i int) *blockdev.FaultInjector { return a.disks[i] }

// Stats returns a snapshot of operation counters.
func (a *Array) Stats() Stats { return a.stats }

// PublishMetrics writes the array's member-I/O accounting into reg.
func (a *Array) PublishMetrics(reg *obs.Registry) {
	s := a.stats
	reg.SetCounter("raid_data_reads_total", "Member data-page reads for user requests.", s.DataReads)
	reg.SetCounter("raid_data_writes_total", "Member data-page writes for user requests.", s.DataWrites)
	reg.SetCounter("raid_parity_reads_total", "Parity-page reads (read-modify-write).", s.ParityReads)
	reg.SetCounter("raid_parity_writes_total", "Parity-page writes.", s.ParityWrites)
	reg.SetCounter("raid_rebuild_reads_total", "Member reads issued by rebuild.", s.RebuildReads)
	reg.SetCounter("raid_rebuild_writes_total", "Member writes issued by rebuild.", s.RebuildWrite)
	reg.SetCounter("raid_degraded_reads_total", "Reconstruct-on-read operations.", s.DegradedRead)
	reg.SetCounter("raid_noparity_writes_total", "Writes issued through WriteNoParity.", s.NoParityWr)
	reg.SetCounter("raid_parity_fixes_total", "Deferred parity updates applied.", s.ParityFixes)
	reg.SetCounter("raid_media_errors_total", "Member reads that returned a media error.", s.MediaErrors)
	reg.SetCounter("raid_read_repairs_total", "Pages reconstructed and rewritten in place.", s.ReadRepairs)
	reg.SetCounter("raid_rebuild_rows_done_total", "Member rows reconstructed by the online rebuild.", s.RebuildRows)
	reg.SetCounter("raid_rebuild_bytes_total", "Bytes written onto rebuild targets.", s.RebuildBytes)
	reg.SetCounter("raid_rebuilds_started_total", "Member rebuilds opened.", s.RebuildsStarted)
	reg.SetCounter("raid_rebuilds_completed_total", "Member rebuilds run to completion.", s.RebuildsCompleted)
	reg.SetCounter("raid_rebuilds_aborted_total", "Member rebuilds abandoned because the target died.", s.RebuildsAborted)
	reg.SetCounter("raid_spare_attaches_total", "Hot spares auto-attached to failed members.", s.SpareAttaches)
	reg.SetCounter("raid_lost_pages_total", "Member pages declared unrecoverable.", s.LostPages)
	reg.SetGauge("raid_stale_rows", "Rows whose parity is currently stale.", float64(len(a.stale)))
	reg.SetGauge("raid_failed_disks", "Currently failed member disks.", float64(a.failed))
	active, watermark := 0.0, 0.0
	if a.rebuild != nil {
		active, watermark = 1, float64(a.rebuild.next)
	}
	reg.SetGauge("raid_rebuild_active", "1 while a member rebuild is in progress.", active)
	reg.SetGauge("raid_rebuild_watermark", "Rows of the rebuild target already reconstructed.", watermark)
	reg.SetGauge("raid_spares", "Hot spares currently parked.", float64(len(a.spares)))
	reg.SetGauge("raid_lost_rows", "Rows currently holding at least one lost page.", float64(len(a.lost)))
	reg.SetGauge("raid_scrub_progress_rows", "Rows scanned by the last/current patrol scrub pass.", float64(a.scrubRow))
	reg.SetGauge("raid_scrub_total_rows", "Rows a full patrol scrub pass covers.", float64(a.scrubTotal))
}

// StaleRows returns the number of rows with stale parity.
func (a *Array) StaleRows() int { return len(a.stale) }

// Level returns the array's RAID level.
func (a *Array) Level() Level { return a.cfg.Level }

// ChunkPages returns pages per chunk.
func (a *Array) ChunkPages() int64 { return a.geo.chunkPages }

// DataChunks returns data chunks per stripe.
func (a *Array) DataChunks() int { return int(a.geo.dataChunksPerStripe()) }

// StripePages returns logical pages per stripe (the paper's parity-stripe
// granularity for cache-set alignment).
func (a *Array) StripePages() int64 {
	return a.geo.chunkPages * a.geo.dataChunksPerStripe()
}

// StripeOf returns the stripe number holding the logical page.
func (a *Array) StripeOf(lba int64) int64 { return lba / a.StripePages() }

// RowPeers returns the logical LBAs that share a parity row with lba
// (including lba itself), in data-chunk order. A parity row is one page
// per data chunk at the same disk offset — the unit over which P/Q are
// computed.
func (a *Array) RowPeers(lba int64) []int64 {
	l := a.geo.locate(lba)
	dc := int(a.geo.dataChunksPerStripe())
	pic := l.row % a.geo.chunkPages
	peers := make([]int64, 0, dc)
	for i := 0; i < dc; i++ {
		peers = append(peers, a.geo.logicalLBA(l.stripe, i, pic))
	}
	return peers
}

// DataLocation returns the member disk and member-local page holding
// lba's data, so tooling (the chaos harness, scrub tests) can aim
// per-member faults at a specific logical page.
func (a *Array) DataLocation(lba int64) (disk int, page int64) {
	l := a.geo.locate(lba)
	return l.disk, l.row
}

// ParityLocation returns the member disks holding the P (and, for
// RAID-6, Q) parity of lba's row, plus the member-local page. qDisk is
// -1 on single-parity levels; pDisk is -1 on levels without parity.
func (a *Array) ParityLocation(lba int64) (pDisk, qDisk int, page int64) {
	l := a.geo.locate(lba)
	if a.cfg.Level != Level5 && a.cfg.Level != Level6 {
		return -1, -1, l.row
	}
	return l.pDisk, l.qDisk, l.row
}

// pageBuf returns the i-th page of buf, or nil in timing mode.
func pageBuf(buf []byte, i int) []byte {
	if buf == nil {
		return nil
	}
	return buf[i*blockdev.PageSize : (i+1)*blockdev.PageSize]
}

// ReadPages implements blockdev.Device. Failed members trigger degraded
// reconstruction where the level allows it.
func (a *Array) ReadPages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, a.Pages()); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if a.tr != nil {
		sp = a.tr.BeginDev(t, obs.PhaseRAIDRead, a.Name(), lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		c, err := a.readPage(t, lba+int64(i), pageBuf(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		if c > done {
			done = c
		}
	}
	sp.End(done)
	return done, nil
}

// mediaRetries bounds re-reads of a member page after ErrMedia before
// redundancy is consulted: transient glitches clear on a retry, latent
// faults and detected bit-rot do not.
const mediaRetries = 2

// memberRead reads one page from member disk with bounded retry on media
// errors, so a transient glitch never escalates into a reconstruction
// (or, worse, aborts one already in progress).
func (a *Array) memberRead(t sim.Time, disk int, row int64, buf []byte) (sim.Time, error) {
	done, err := a.disks[disk].ReadPages(t, row, 1, buf)
	for r := 0; err != nil && errors.Is(err, blockdev.ErrMedia) && r < mediaRetries; r++ {
		done, err = a.disks[disk].ReadPages(done, row, 1, buf)
	}
	return done, err
}

func (a *Array) readPage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l := a.geo.locate(lba)
	if a.cfg.Level == Level1 {
		return a.mirrorRead(t, lba, l, buf)
	}
	if a.pageLost(l.disk, l.row) {
		return t, fmt.Errorf("%w: page %d lost in a rebuild window", ErrUnrecoverable, lba)
	}
	if !a.missing(l.disk, l.row) {
		a.stats.DataReads++
		c, err := a.memberRead(t, l.disk, l.row, buf)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, err
		}
		// One page of an otherwise healthy member is unreadable: repair
		// just that page from redundancy instead of failing the disk.
		a.stats.MediaErrors++
		return a.readRepair(t, l, buf)
	}
	return a.degradedRead(t, l, buf)
}

// mirrorRead serves a RAID-1 read from the first healthy mirror (rotating
// by LBA to spread load), skipping over mirrors with media errors and
// repairing them from the copy that finally answered.
func (a *Array) mirrorRead(t sim.Time, lba int64, l loc, buf []byte) (sim.Time, error) {
	n := len(a.disks)
	start := int(lba) % n
	var bad []int // mirrors that returned ErrMedia for this page
	anyHealthy := false
	for k := 0; k < n; k++ {
		idx := (start + k) % n
		d := a.disks[idx]
		if a.missing(idx, l.row) {
			continue
		}
		anyHealthy = true
		a.stats.DataReads++
		c, err := d.ReadPages(t, l.row, 1, buf)
		if err == nil {
			// Re-silver any mirror whose copy was unreadable.
			for _, i := range bad {
				a.stats.ReadRepairs++
				if wc, werr := a.disks[i].WritePages(c, l.row, 1, buf); werr == nil {
					c = sim.MaxTime(c, wc)
				}
			}
			return c, nil
		}
		if errors.Is(err, blockdev.ErrMedia) {
			a.stats.MediaErrors++
			bad = append(bad, (start+k)%n)
			continue
		}
		return t, err
	}
	if !anyHealthy {
		return t, ErrTooManyFailures
	}
	return t, fmt.Errorf("%w: page %d unreadable on every mirror", ErrUnrecoverable, lba)
}

// WritePages implements blockdev.Device: the conventional write path with
// immediate parity maintenance. Runs of pages covering an entire parity
// row use reconstruct-write; single pages use read-modify-write — the two
// modes named in §III-A.
func (a *Array) WritePages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, a.Pages()); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if a.tr != nil {
		sp = a.tr.BeginDev(t, obs.PhaseRAIDWrite, a.Name(), lba, count)
	}
	done = t
	for i := 0; i < count; i++ {
		c, err := a.writePage(t, lba+int64(i), pageBuf(buf, i))
		if err != nil {
			sp.End(t)
			return t, err
		}
		if c > done {
			done = c
		}
	}
	sp.End(done)
	return done, nil
}

// writePage performs a small write with parity update.
func (a *Array) writePage(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	l := a.geo.locate(lba)
	switch a.cfg.Level {
	case Level0:
		a.stats.DataWrites++
		return a.disks[l.disk].WritePages(t, l.row, 1, buf)
	case Level1:
		done := t
		wrote := 0
		for i, d := range a.disks {
			if a.missing(i, l.row) {
				continue
			}
			a.stats.DataWrites++
			c, err := d.WritePages(t, l.row, 1, buf)
			if err != nil {
				return t, err
			}
			wrote++
			if c > done {
				done = c
			}
		}
		if wrote == 0 {
			return t, ErrTooManyFailures
		}
		return done, nil
	case Level5, Level6:
		return a.smallWrite(t, l, buf)
	}
	return t, ErrBadGeometry
}

// smallWrite is the read-modify-write path: read old data and old
// parity(ies) in parallel, then write new data and new parity(ies) in
// parallel — "two read and two write disk I/O operations" (§I) for RAID-5.
func (a *Array) smallWrite(t sim.Time, l loc, buf []byte) (sim.Time, error) {
	dataDev := a.disks[l.disk]
	if a.missing(l.disk, l.row) || a.missing(l.pDisk, l.row) ||
		(l.qDisk >= 0 && a.missing(l.qDisk, l.row)) {
		return a.degradedWrite(t, l, buf)
	}

	var oldData, oldP, oldQ []byte
	if buf != nil {
		oldData = make([]byte, blockdev.PageSize)
		oldP = make([]byte, blockdev.PageSize)
		if l.qDisk >= 0 {
			oldQ = make([]byte, blockdev.PageSize)
		}
	}

	// Phase 1: parallel reads of old data and parity. A latent media
	// error on any of these pages must not fail the write (let alone the
	// member): the old data is reconstructible from the row, and lost
	// parity can be recomputed from the members before folding the diff.
	phase1 := t
	a.stats.DataReads++
	c, err := a.memberRead(t, l.disk, l.row, oldData)
	if err != nil {
		if !errors.Is(err, blockdev.ErrMedia) {
			return t, err
		}
		a.stats.MediaErrors++
		if c, err = a.readRepair(t, l, oldData); err != nil {
			return t, err
		}
	}
	phase1 = sim.MaxTime(phase1, c)
	a.stats.ParityReads++
	c, err = a.memberRead(t, l.pDisk, l.row, oldP)
	if err != nil {
		if c, err = a.rereadParity(t, l.pDisk, l, oldP, err); err != nil {
			return t, err
		}
	}
	phase1 = sim.MaxTime(phase1, c)
	if l.qDisk >= 0 {
		a.stats.ParityReads++
		c, err = a.memberRead(t, l.qDisk, l.row, oldQ)
		if err != nil {
			if c, err = a.rereadParity(t, l.qDisk, l, oldQ, err); err != nil {
				return t, err
			}
		}
		phase1 = sim.MaxTime(phase1, c)
	}

	// Compute new parity: P' = P ^ old ^ new; Q' = Q ^ g^i·(old ^ new).
	var newP, newQ []byte
	if buf != nil {
		diff := make([]byte, blockdev.PageSize)
		copy(diff, oldData)
		XorInto(diff, buf)
		newP = oldP
		XorInto(newP, diff)
		if l.qDisk >= 0 {
			newQ = oldQ
			gfMulInto(newQ, diff, gfPow(l.dataIdx))
		}
	}

	// Phase 2: parallel writes of new data and parity.
	done := phase1
	a.stats.DataWrites++
	c, err = dataDev.WritePages(phase1, l.row, 1, buf)
	if err != nil {
		return t, err
	}
	done = sim.MaxTime(done, c)
	a.stats.ParityWrites++
	c, err = a.disks[l.pDisk].WritePages(phase1, l.row, 1, newP)
	if err != nil {
		return t, err
	}
	done = sim.MaxTime(done, c)
	if l.qDisk >= 0 {
		a.stats.ParityWrites++
		c, err = a.disks[l.qDisk].WritePages(phase1, l.row, 1, newQ)
		if err != nil {
			return t, err
		}
		done = sim.MaxTime(done, c)
	}
	a.clearLost(l.disk, l.row) // the page now holds known bytes again
	return done, nil
}

// rereadParity recovers from a media error on a parity page read inside
// the RMW path. On a stale row the lost copy carried no information, so
// the parity is recomputed from the member data and read back; on a
// current row the copy is recomputed by decoding the row — which, unlike
// a data-only resync, still works when a member is missing (RAID-6
// absorbs the media page plus the rebuild hole as two erasures). Any
// error other than ErrMedia is passed through untouched.
func (a *Array) rereadParity(t sim.Time, disk int, l loc, buf []byte, readErr error) (sim.Time, error) {
	if !errors.Is(readErr, blockdev.ErrMedia) {
		return t, readErr
	}
	a.stats.MediaErrors++
	if a.rowStale(l) {
		done, err := a.resyncRow(t, l.row)
		if err != nil {
			return t, err
		}
		a.stats.ParityFixes++
		c, err := a.disks[disk].ReadPages(done, l.row, 1, buf)
		if err != nil {
			return t, err
		}
		return sim.MaxTime(done, c), nil
	}
	return a.repairParityRow(t, l.row, disk, buf)
}
