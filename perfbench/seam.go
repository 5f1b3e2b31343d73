package main

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// layer accumulates one seam's host time and work counts. Self time is
// the time inside the seam's wrapper minus the time inside the wrappers
// it called; total time includes them.
type layer struct {
	calls  int64
	selfNs int64
	totNs  int64
	pagesR int64
	pagesW int64
	// encBytes sums delta.Delta.Len over Encode calls (codec seam only).
	encBytes int64
}

// span is one open seam call on the tracer's stack.
type span struct {
	l       *layer
	start   int64
	childNs int64
}

// tracer times nested seam calls on one goroutine. With timing off it
// only counts calls: enter and exit then cost a branch each.
type tracer struct {
	on    bool
	stack []span
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, stack: make([]span, 0, 16)}
}

func (t *tracer) enter(l *layer) {
	l.calls++
	if !t.on {
		return
	}
	t.stack = append(t.stack, span{l: l, start: nanotime()})
}

func (t *tracer) exit() {
	if !t.on {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := nanotime() - f.start
	f.l.totNs += dur
	f.l.selfNs += dur - f.childNs
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
}

// layers is the fixed set of seams a stack is wrapped at. backendName names
// the array under the cache: "raid" or "lsraid".
type layers struct {
	backendName                    string
	coreRead, coreWrite, coreClean *layer
	inject, ssd, backend, hdd      *layer
	encode, decode                 *layer
	batch                          *layer
}

func newLayers(backend string) *layers {
	return &layers{
		backendName: backend,
		coreRead:    &layer{}, coreWrite: &layer{}, coreClean: &layer{},
		inject: &layer{}, ssd: &layer{}, backend: &layer{}, hdd: &layer{},
		encode: &layer{}, decode: &layer{}, batch: &layer{},
	}
}

// all lists the layers in a fixed order, for pooling passes.
func (ly *layers) all() []*layer {
	return []*layer{ly.coreRead, ly.coreWrite, ly.coreClean, ly.inject, ly.ssd,
		ly.backend, ly.hdd, ly.encode, ly.decode, ly.batch}
}

// timedDev wraps a block device at a seam. It forwards the optional
// interfaces the engine sniffs: Storer (does the device carry real
// bytes?) and Trimmer (a trim on a device without one is a no-op, which
// is what callers do when the sniff fails).
type timedDev struct {
	inner blockdev.Device
	tr    *tracer
	l     *layer
}

func (d *timedDev) Name() string { return d.inner.Name() }
func (d *timedDev) Pages() int64 { return d.inner.Pages() }

func (d *timedDev) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tr.enter(d.l)
	d.l.pagesR += int64(count)
	done, err := d.inner.ReadPages(t, lba, count, buf)
	d.tr.exit()
	return done, err
}

func (d *timedDev) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tr.enter(d.l)
	d.l.pagesW += int64(count)
	done, err := d.inner.WritePages(t, lba, count, buf)
	d.tr.exit()
	return done, err
}

func (d *timedDev) TrimPages(t sim.Time, lba int64, count int) (sim.Time, error) {
	tr, ok := d.inner.(blockdev.Trimmer)
	if !ok {
		return t, nil
	}
	d.tr.enter(d.l)
	done, err := tr.TrimPages(t, lba, count)
	d.tr.exit()
	return done, err
}

func (d *timedDev) Store() *blockdev.MemStore {
	if s, ok := d.inner.(blockdev.Storer); ok {
		return s.Store()
	}
	return nil
}

var (
	_ blockdev.Device  = (*timedDev)(nil)
	_ blockdev.Trimmer = (*timedDev)(nil)
	_ blockdev.Storer  = (*timedDev)(nil)
)

// timedCodec wraps the delta codec handed to the engine.
type timedCodec struct {
	inner          delta.Codec
	tr             *tracer
	encode, decode *layer
}

func (c *timedCodec) Name() string { return c.inner.Name() }

func (c *timedCodec) Encode(old, new []byte) delta.Delta {
	c.tr.enter(c.encode)
	d := c.inner.Encode(old, new)
	c.encode.encBytes += int64(d.Len)
	c.tr.exit()
	return d
}

func (c *timedCodec) Apply(old []byte, d delta.Delta, out []byte) error {
	c.tr.enter(c.decode)
	err := c.inner.Apply(old, d, out)
	c.tr.exit()
	return err
}

// timedBackend wraps the cache.Backend handed to core and shard. Every
// method is a seam crossing; the cheap geometry queries are forwarded
// untimed because they do no I/O.
type timedBackend struct {
	inner cache.Backend
	tr    *tracer
	l     *layer
}

func (b *timedBackend) Pages() int64               { return b.inner.Pages() }
func (b *timedBackend) RowPeers(lba int64) []int64 { return b.inner.RowPeers(lba) }
func (b *timedBackend) StripePages() int64         { return b.inner.StripePages() }
func (b *timedBackend) StaleRows() int             { return b.inner.StaleRows() }
func (b *timedBackend) Healthy() bool              { return b.inner.Healthy() }
func (b *timedBackend) RebuildActive() bool        { return b.inner.RebuildActive() }
func (b *timedBackend) SpareCount() int            { return b.inner.SpareCount() }

func (b *timedBackend) RebuildTarget() (int, int64, bool) { return b.inner.RebuildTarget() }

func (b *timedBackend) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.ReadPages(t, lba, count, buf)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.WritePages(t, lba, count, buf)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) WriteNoParity(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.WriteNoParity(t, lba, count, buf)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) WriteRow(t sim.Time, firstLBA int64, buf []byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.WriteRow(t, firstLBA, buf)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) ParityUpdateDelta(t sim.Time, lbas []int64, deltas [][]byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.ParityUpdateDelta(t, lbas, deltas)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) ParityUpdateDeltaBatch(t sim.Time, fixes []raid.RowFix) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.ParityUpdateDeltaBatch(t, fixes)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) ParityUpdateReconstruct(t sim.Time, lba int64, rowData [][]byte) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.ParityUpdateReconstruct(t, lba, rowData)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) ResyncRow(t sim.Time, lba int64) (sim.Time, error) {
	b.tr.enter(b.l)
	done, err := b.inner.ResyncRow(t, lba)
	b.tr.exit()
	return done, err
}

func (b *timedBackend) RebuildStep(t sim.Time, maxRows int) (sim.Time, int, bool, error) {
	b.tr.enter(b.l)
	done, rows, complete, err := b.inner.RebuildStep(t, maxRows)
	b.tr.exit()
	return done, rows, complete, err
}

func (b *timedBackend) ResumeRebuild(disk int, watermark int64) error {
	return b.inner.ResumeRebuild(disk, watermark)
}

func (b *timedBackend) StartSpareRebuild(t sim.Time) (sim.Time, bool, error) {
	b.tr.enter(b.l)
	done, started, err := b.inner.StartSpareRebuild(t)
	b.tr.exit()
	return done, started, err
}

var _ cache.Backend = (*timedBackend)(nil)
