// Package hdd models a 7,200 RPM magnetic disk, the primary-storage device
// in the paper's testbed (15× 1TB 7.2k drives behind Linux MD RAID-5).
//
// The model captures the three latency components that make the RAID
// small-write problem expensive — seek, rotation, and media transfer —
// plus sequential-stream detection. The paper disables drive look-ahead
// and the volatile write cache with hdparm, so there is no on-drive
// caching to model: every request pays for real mechanical positioning.
//
// Positioning model: the head position is tracked as the last-accessed
// LBA. Seek time follows the usual square-root-of-distance curve between
// track-to-track and full-stroke values. Rotational delay is uniform in
// [0, one revolution) drawn from a seeded RNG, except for sequential hits
// where both seek and rotation are skipped.
package hdd

import (
	"fmt"
	"math"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
)

// Config describes a disk model. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	Pages int64 // capacity in 4KB pages

	RPM            int      // spindle speed
	TrackToTrack   sim.Time // minimum seek
	FullStroke     sim.Time // maximum seek
	TransferMBps   float64  // sustained media rate
	SeqWindowPages int64    // LBA distance treated as sequential continuation
}

// DefaultConfig returns the 1TB 7,200 RPM drive used in §IV-B.
func DefaultConfig(pages int64) Config {
	return Config{
		Pages:          pages,
		RPM:            7200,
		TrackToTrack:   800 * sim.Microsecond,
		FullStroke:     17 * sim.Millisecond,
		TransferMBps:   150,
		SeqWindowPages: 8,
	}
}

// Disk is a single HDD with a FIFO queue.
type Disk struct {
	name string
	cfg  Config
	q    *sim.Station
	rng  *sim.RNG

	store *blockdev.MemStore // nil in timing mode

	headLBA  int64 // last accessed LBA, for seek distance
	lastEnd  int64 // LBA one past the previous access, for sequentiality
	revTime  sim.Time
	pageXfer sim.Time

	reads, writes   int64
	seqHits         int64
	totalServiceOps int64

	tr *obs.Tracer
}

// SetTracer installs a span tracer (nil disables tracing). Accesses appear
// as dev_read/dev_write spans carrying the disk name.
func (d *Disk) SetTracer(tr *obs.Tracer) { d.tr = tr }

// New returns a timing-mode disk. seed makes rotational delays reproducible.
func New(name string, cfg Config, seed uint64) *Disk {
	return newDisk(name, cfg, seed, nil)
}

// NewData returns a data-mode disk backed by an in-memory store.
func NewData(name string, cfg Config, seed uint64) *Disk {
	return newDisk(name, cfg, seed, blockdev.NewMemStore(cfg.Pages))
}

func newDisk(name string, cfg Config, seed uint64, store *blockdev.MemStore) *Disk {
	if cfg.Pages <= 0 || cfg.RPM <= 0 || cfg.TransferMBps <= 0 {
		panic(fmt.Sprintf("hdd: invalid config %+v", cfg))
	}
	revTime := sim.Time(60.0 / float64(cfg.RPM) * float64(sim.Second))
	bytesPerSec := cfg.TransferMBps * 1e6
	pageXfer := sim.Time(float64(blockdev.PageSize) / bytesPerSec * float64(sim.Second))
	return &Disk{
		name:     name,
		cfg:      cfg,
		q:        sim.NewStation(name, 1),
		rng:      sim.NewRNG(seed),
		store:    store,
		revTime:  revTime,
		pageXfer: pageXfer,
		headLBA:  0,
		lastEnd:  -1,
	}
}

// Name implements blockdev.Device.
func (d *Disk) Name() string { return d.name }

// Pages implements blockdev.Device.
func (d *Disk) Pages() int64 { return d.cfg.Pages }

// Reads returns the number of read operations serviced.
func (d *Disk) Reads() int64 { return d.reads }

// Writes returns the number of write operations serviced.
func (d *Disk) Writes() int64 { return d.writes }

// SeqHits returns how many operations were serviced as sequential
// continuations (no seek, no rotation).
func (d *Disk) SeqHits() int64 { return d.seqHits }

// BusyTime returns total service time issued on the disk arm.
func (d *Disk) BusyTime() sim.Time { return d.q.BusyTime() }

// Store exposes the backing store (nil in timing mode).
func (d *Disk) Store() *blockdev.MemStore { return d.store }

// seekGuard is how far, in nanoseconds, span*√frac must sit from an
// integer for math.Sqrt to truncate to the same nanosecond as the Newton
// sqrt below. The two agree to within 1 ulp, and 1 ulp of any seek span
// under 2^24 ns is below 2e-9 ns, so the margin is exact with room to
// spare; closer to an integer the last ulp can flip the truncation.
const seekGuard = 1e-6

// seekTime returns the seek latency for moving the head `dist` pages.
func (d *Disk) seekTime(dist int64) sim.Time {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	// t = min + (max-min) * sqrt(d / capacity)
	frac := float64(dist) / float64(d.cfg.Pages)
	if frac > 1 {
		frac = 1
	}
	span := float64(d.cfg.FullStroke - d.cfg.TrackToTrack)
	v := span * math.Sqrt(frac)
	if f := v - float64(int64(v)); f > seekGuard && f < 1-seekGuard {
		return d.cfg.TrackToTrack + sim.Time(v)
	}
	// Within the guard band the last ulp decides the nanosecond, so take
	// the Newton root the curve is defined by.
	return d.cfg.TrackToTrack + sim.Time(span*sqrt(frac))
}

// sqrt is the seek curve's reference square root: Newton's method from
// z = x, 24 iterations. seekTime uses it only in the guard band, where
// the last ulp of math.Sqrt could truncate to a different nanosecond.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z -= (z*z - x) / (2 * z)
	}
	return z
}

// serviceTime computes positioning+transfer time for an access and updates
// head state.
func (d *Disk) serviceTime(lba int64, count int) sim.Time {
	var pos sim.Time
	if d.lastEnd >= 0 && lba >= d.lastEnd && lba-d.lastEnd <= d.cfg.SeqWindowPages {
		// Sequential continuation: no seek, negligible rotation.
		d.seqHits++
	} else {
		pos = d.seekTime(lba - d.headLBA)
		// Uniform rotational latency in [0, revolution).
		pos += sim.Time(d.rng.Float64() * float64(d.revTime))
	}
	xfer := sim.Time(int64(count)) * d.pageXfer
	d.headLBA = lba + int64(count) - 1
	d.lastEnd = lba + int64(count)
	d.totalServiceOps++
	return pos + xfer
}

// ReadPages implements blockdev.Device.
func (d *Disk) ReadPages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.Pages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	// Explicit End instead of a deferred closure: this is a hot traced
	// function and the defer setup is measurable per call.
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevRead, d.name, lba, count)
	}
	d.reads++
	if d.store != nil && buf != nil {
		for i := 0; i < count; i++ {
			d.store.ReadPage(lba+int64(i), buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize])
		}
	}
	done = d.q.Submit(t, d.serviceTime(lba, count))
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// WritePages implements blockdev.Device.
func (d *Disk) WritePages(t sim.Time, lba int64, count int, buf []byte) (done sim.Time, err error) {
	if err := blockdev.CheckRange(lba, count, d.cfg.Pages); err != nil {
		return t, err
	}
	if err := blockdev.CheckBuf(buf, count); err != nil {
		return t, err
	}
	var sp obs.Span
	if d.tr != nil {
		sp = d.tr.BeginDev(t, obs.PhaseDevWrite, d.name, lba, count)
	}
	d.writes++
	if d.store != nil && buf != nil {
		for i := 0; i < count; i++ {
			d.store.WritePage(lba+int64(i), buf[i*blockdev.PageSize:(i+1)*blockdev.PageSize])
		}
	}
	done = d.q.Submit(t, d.serviceTime(lba, count))
	if d.tr != nil {
		sp.End(done)
	}
	return done, nil
}

// PublishMetrics writes the disk's service counters into reg, labelled by
// disk name so arrays of members stay distinguishable.
func (d *Disk) PublishMetrics(reg *obs.Registry) {
	l := "{disk=\"" + d.name + "\"}"
	reg.SetCounter("hdd_reads_total"+l, "Read operations serviced.", d.reads)
	reg.SetCounter("hdd_writes_total"+l, "Write operations serviced.", d.writes)
	reg.SetCounter("hdd_seq_hits_total"+l, "Operations serviced as sequential continuations.", d.seqHits)
	reg.SetCounter("hdd_busy_ns_total"+l, "Total arm service time in virtual nanoseconds.", int64(d.q.BusyTime()))
}

var _ blockdev.Device = (*Disk)(nil)
