package check

import (
	"bytes"
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/lsraid"
	"kddcache/internal/model"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// The primitives every fault-injection rig here shares — the crash
// checker's single-core and sharded sweeps and the chaos harness's
// engine and lane-kill schedules. A rig is a driver plus its own op loop,
// fault plan and post-run chain, composed from these pieces; nothing here
// knows which rig it serves.

// geometry is one rig's stack shape.
type geometry struct {
	backend    string     // "kdd" (parity RAID) or "lsraid" (log-structured)
	level      raid.Level // parity level of the kdd backend
	disks      int
	diskPages  int64
	chunk      int64
	segRows    int64 // lsraid member rows per segment
	spares     int   // hot spares parked at build time
	ways       int
	metaPages  int64
	cachePages int64
	ssdSlack   int64 // SSD pages past the cache data partition
}

// engine is the serving path under test: one core.KDD, or a shard.Plane
// of them over the same devices.
type engine interface {
	Read(t sim.Time, lba int64, buf []byte) (sim.Time, error)
	Write(t sim.Time, lba int64, buf []byte) (sim.Time, error)
	CheckInvariants() error
	StateDigest() uint64
	Stats() *stats.CacheStats
}

// driver is one run's stack, engine, seeded op stream and model oracle.
// Everything is built from the seed, so a run is a pure function of
// (seed, geometry, armed faults): replaying a violation needs only those.
type driver struct {
	g       geometry
	rng     *sim.RNG
	mut     *delta.Mutator
	mdl     *model.Model
	members []*blockdev.NullDevice
	arr     raidiface.Array
	inj     *blockdev.FaultInjector // the SSD's
	dig     *obs.Digest             // trace digest: spans survive crashes bit for bit
	tr      *obs.Tracer

	eng engine
	// snapshot captures the live engine's NVRAM (log counters, buffered
	// entries, staging) and returns a restore from that snapshot.
	snapshot func() func() (engine, error)
	// banked sums the counters of engine instances retired by recovery.
	banked stats.CacheStats

	// pending lists writes in flight at a crash, in op order; each pins
	// old-or-new at its first post-recovery read.
	pending []int64
	// allowLost excuses LOUD data loss (ErrUnrecoverable) where losing
	// pages is the spec; silent corruption is never excused.
	allowLost  bool
	halt       bool
	crashes    int
	folds      int // ops retried after folding deltas into stale parity
	violations []string
}

// newDriver builds the stack bottom-up: members, the array, parked
// spares, the tracer and the SSD behind its fault injector. The engine
// comes after, from startKDD or startPlane.
func newDriver(seed uint64, g geometry) (*driver, error) {
	d := &driver{
		g:   g,
		rng: sim.NewRNG(seed),
		mut: delta.NewMutator(seed^0xD00D, 0.25),
		mdl: model.New(),
		dig: obs.NewDigest(),
	}
	d.tr = obs.NewTracer(d.dig)
	var members []blockdev.Device
	for i := 0; i < g.disks; i++ {
		m := blockdev.NewNullDataDevice(fmt.Sprintf("d%d", i), g.diskPages)
		d.members = append(d.members, m)
		members = append(members, m)
	}
	var err error
	switch g.backend {
	case "kdd":
		d.arr, err = raid.New(raid.Config{Level: g.level, ChunkPages: g.chunk}, members)
	case "lsraid":
		d.arr, err = lsraid.New(lsraid.Config{ChunkPages: g.chunk, SegRows: g.segRows, Seed: seed}, members)
	default:
		err = fmt.Errorf("unknown backend %q (want kdd or lsraid)", g.backend)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.spares; i++ {
		if err := d.arr.AddSpare(blockdev.NewNullDataDevice(fmt.Sprintf("spare%d", i), g.diskPages)); err != nil {
			return nil, err
		}
	}
	inner := blockdev.NewNullDataDevice("ssd", g.metaPages+g.cachePages+g.ssdSlack)
	d.inj = blockdev.NewFaultInjector(inner, seed^0xFA17)
	return d, nil
}

// coreConfig is a single engine over the whole stack.
func (d *driver) coreConfig() core.Config {
	return core.Config{
		SSD:        d.inj,
		Backend:    d.arr,
		CachePages: d.g.cachePages,
		Ways:       d.g.ways,
		MetaStart:  0,
		MetaPages:  d.g.metaPages,
		Codec:      delta.ZRLE{},
		Tracer:     d.tr,
	}
}

// planeConfig is the sharded plane over the whole stack, in deterministic
// mode: replays must reproduce the profile run's device-op trace exactly.
func (d *driver) planeConfig(shards int, coalesce bool) shard.Config {
	return shard.Config{
		SSD:        d.inj,
		Backend:    d.arr,
		CachePages: d.g.cachePages,
		Ways:       d.g.ways,
		MetaStart:  0,
		MetaPages:  d.g.metaPages,
		Codec:      func(int) delta.Codec { return delta.ZRLE{} },
		Shards:     shards,
		Coalesce:   coalesce,
		Tracer:     d.tr,
	}
}

// startKDD brings up a single engine, tracing the array too.
func (d *driver) startKDD(cfg core.Config) error {
	d.arr.SetTracer(d.tr)
	k, err := core.New(cfg)
	if err != nil {
		return err
	}
	d.eng = k
	d.snapshot = func() func() (engine, error) {
		k := d.kdd()
		ctr, buffered, staging := k.Log().Counters(), k.Log().BufferedEntries(), k.Staging()
		return func() (engine, error) {
			k, _, err := core.Restore(cfg, 0, ctr, buffered, staging)
			if err != nil {
				return nil, err
			}
			return k, nil
		}
	}
	return nil
}

// startPlane brings up the sharded plane: eight lanes, one shared log.
func (d *driver) startPlane(cfg shard.Config) error {
	p, err := shard.New(cfg)
	if err != nil {
		return err
	}
	d.eng = p
	d.snapshot = func() func() (engine, error) {
		p := d.plane()
		ctr, buffered := p.Log().Counters(), p.Log().BufferedEntries()
		var stagings [shard.Lanes]*nvram.Staging
		for i := range stagings {
			stagings[i] = p.Lane(i).Staging()
		}
		return func() (engine, error) {
			p, _, err := shard.Restore(cfg, 0, ctr, buffered, stagings)
			if err != nil {
				return nil, err
			}
			return p, nil
		}
	}
	return nil
}

func (d *driver) kdd() *core.KDD      { return d.eng.(*core.KDD) }
func (d *driver) plane() *shard.Plane { return d.eng.(*shard.Plane) }
func (d *driver) base() *driver       { return d }

// closeEngine releases e's workers, if it has any.
func closeEngine(e engine) {
	if c, ok := e.(interface{ Close() }); ok {
		c.Close()
	}
}

// validate builds each stack a run would build, once, and checks that
// the footprint fits its array: bad options fail here with an error
// instead of a panic or a flood of violations mid-run.
func validate(footprint int64, builds ...func() (*driver, error)) error {
	if footprint < 1 {
		return fmt.Errorf("footprint must be at least 1 page, got %d", footprint)
	}
	for _, build := range builds {
		d, err := build()
		if err != nil {
			return err
		}
		closeEngine(d.eng)
		if n := d.arr.Pages(); footprint > n {
			return fmt.Errorf("footprint of %d pages exceeds the %d-page array", footprint, n)
		}
	}
	return nil
}

// must unwraps a rig build whose options passed validation.
func must(d *driver, err error) *driver {
	if err != nil {
		panic(err)
	}
	return d
}

func (d *driver) violf(format string, args ...any) {
	d.violations = append(d.violations, fmt.Sprintf(format, args...))
}

// lostOK reports whether err is the loud lost-page refusal and the run
// makes that loss legal (see allowLost).
func (d *driver) lostOK(err error) bool {
	return d.allowLost && errors.Is(err, raid.ErrUnrecoverable)
}

// anyCrashed reports whether any device's armed crash point has fired.
// Crash points model whole-node power loss, so a member's crash is the
// node's crash.
func (d *driver) anyCrashed() bool {
	if d.inj.Crashed() {
		return true
	}
	for i := range d.members {
		if d.arr.Injector(i).Crashed() {
			return true
		}
	}
	return false
}

// nextPage is the next version of a page: a mutation of base, or a fresh
// random page for a first touch. Mutate and FillRandom consume fixed
// draw counts, so content stays deterministic even after an old-or-new
// pin diverges a page from the profile run.
func (d *driver) nextPage(base []byte) []byte {
	page := make([]byte, blockdev.PageSize)
	if base != nil {
		copy(page, base)
		d.mut.Mutate(page)
	} else {
		d.mut.FillRandom(page)
	}
	return page
}

// foldRetry reports whether err is the loud stale-parity refusal — parity
// deliberately left stale cannot reconstruct — and if so folds the
// pending deltas so the caller can retry. Only a single engine folds on
// demand; the plane's lanes fold at their own barriers.
func (d *driver) foldRetry(err error) bool {
	k, ok := d.eng.(*core.KDD)
	if !ok || !errors.Is(err, raid.ErrStaleParity) {
		return false
	}
	if _, cerr := k.Clean(0, true); cerr != nil {
		d.violf("fold after stale-parity refusal: %v", cerr)
		return false
	}
	d.folds++
	return true
}

// step runs one op of the seeded mix on lba — 60% writes — and reports
// whether a crash point fired, leaving recovery to the caller.
func (d *driver) step(lba int64) bool {
	if d.rng.Float64() < 0.6 {
		d.doWrite(lba)
	} else {
		d.doRead(lba)
	}
	return d.anyCrashed()
}

// doWrite writes the next version of lba and records it in the model:
// acked, or in flight at the crash (old-or-new until its pin).
func (d *driver) doWrite(lba int64) {
	base, ok := d.mdl.Value(lba)
	if !ok {
		// An in-flight write is pinned by the post-recovery read before
		// the workload resumes; reaching here is a driver bug.
		d.violf("write %d while the model is unresolved", lba)
		return
	}
	page := d.nextPage(base)
	_, err := d.eng.Write(0, lba, page)
	if err != nil && d.foldRetry(err) {
		_, err = d.eng.Write(0, lba, page)
	}
	switch {
	case err == nil:
		d.mdl.Write(lba, page)
	case d.anyCrashed():
		d.mdl.CrashWrite(lba, page)
		d.pending = append(d.pending, lba)
	case !d.lostOK(err): // a lost page keeps its old model value
		d.violf("write %d failed: %v", lba, err)
	}
}

// doRead reads lba through the engine and checks it against the model,
// pinning any in-flight write to the version observed.
func (d *driver) doRead(lba int64) {
	buf := make([]byte, blockdev.PageSize)
	_, err := d.eng.Read(0, lba, buf)
	if err != nil && d.foldRetry(err) {
		_, err = d.eng.Read(0, lba, buf)
	}
	switch {
	case err == nil:
		if err := d.mdl.Check(lba, buf); err != nil {
			d.violf("read %d: %v", lba, err)
		}
	case d.anyCrashed(), d.lostOK(err): // recovery, or a legal loss
	default:
		d.violf("read %d failed: %v", lba, err)
	}
}

// planBatch draws n plane ops: pick chooses each LBA, 60% are writes. A
// write's payload is the next version of the model's page or, when
// chain is set, of an earlier write to it in the same batch.
func (d *driver) planBatch(n int, pick func() int64, chain bool) []shard.Op {
	local := make(map[int64][]byte)
	ops := make([]shard.Op, 0, n)
	for len(ops) < n {
		lba := pick()
		if d.rng.Float64() >= 0.6 {
			ops = append(ops, shard.Op{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)})
			continue
		}
		base, ok := local[lba]
		if !ok {
			base, _ = d.mdl.Value(lba)
		}
		page := d.nextPage(base)
		if chain {
			local[lba] = page
		}
		ops = append(ops, shard.Op{Kind: shard.OpWrite, LBA: lba, Buf: page})
	}
	return ops
}

// runBatch executes a batch on the plane and reconciles every result
// with the model in op order — in-batch read-after-write and coalesced
// write-after-write included. It reports whether a crash point fired,
// leaving recovery to the caller.
func (d *driver) runBatch(t sim.Time, ops []shard.Op) bool {
	res := d.plane().RunBatch(t, ops)
	crashed := d.anyCrashed()
	for i, op := range ops {
		err := res[i].Err
		switch {
		case err == nil && op.Kind == shard.OpWrite:
			d.mdl.Write(op.LBA, op.Buf)
		case err == nil:
			if err := d.mdl.Check(op.LBA, op.Buf); err != nil {
				d.violf("batch t=%d read %d: %v", t, op.LBA, err)
			}
		case crashed && errors.Is(err, shard.ErrStopped):
			// Refused after the plane stopped: never started, never
			// reached NVRAM — the model keeps its value.
		case crashed && op.Kind == shard.OpWrite:
			d.mdl.CrashWrite(op.LBA, op.Buf)
			d.pending = append(d.pending, op.LBA)
		case crashed: // the crash interrupted the read
		default:
			d.violf("batch t=%d op %d (lba %d): %v", t, i, op.LBA, err)
		}
	}
	return crashed
}

// restore recovers from a fired crash point: capture the NVRAM, clear
// every armed crash point, drop the array's volatile state, bring the
// engine back `times` times from the one snapshot (replay must be
// idempotent), check invariants and the tracer, then pin every write
// that was in flight via its first post-recovery read.
func (d *driver) restore(times int) {
	d.crashes++
	fromNVRAM := d.snapshot()
	d.inj.ClearCrash()
	for i := range d.members {
		d.arr.Injector(i).ClearCrash()
	}
	// The rebuild watermark is volatile array state: a power failure
	// wipes it, and recovery must resume from the NVRAM checkpoint alone.
	d.arr.CrashRebuildState()
	// The log-structured backend rebuilds its whole L2P map from the
	// NVRAM segment summaries on that same call: replay must be
	// idempotent and land in an invariant-clean state.
	if la, ok := d.arr.(*lsraid.Array); ok {
		d1 := la.StateDigest()
		la.CrashRebuildState()
		if d2 := la.StateDigest(); d1 != d2 {
			d.violf("lsraid replay not idempotent: %016x vs %016x", d1, d2)
		}
		if err := la.CheckInvariants(); err != nil {
			d.violf("lsraid post-replay invariants: %v", err)
		}
	}
	e := d.reopen(fromNVRAM, times, "recovery")
	if e == nil {
		d.halt = true
		return
	}
	d.banked.Add(d.eng.Stats())
	closeEngine(d.eng)
	d.eng = e
	if err := e.CheckInvariants(); err != nil {
		d.violf("post-restore invariants: %v", err)
	}
	d.checkObs("post-restore")
	pins := d.pending
	d.pending = nil
	for _, lba := range pins {
		d.doRead(lba) // pins old-or-new, or flags torn content
	}
}

// reopen brings an engine up `times` times from one NVRAM snapshot and
// requires equal state digests; it returns the last instance, or nil
// after reporting a failed restore.
func (d *driver) reopen(restore func() (engine, error), times int, what string) engine {
	var last engine
	for i := 0; i < times; i++ {
		e, err := restore()
		if err != nil {
			d.violf("%s: restore %d from the NVRAM snapshot: %v", what, i+1, err)
			return nil
		}
		if last != nil {
			if d1, d2 := last.StateDigest(), e.StateDigest(); d1 != d2 {
				d.violf("%s not idempotent: state digest %016x vs %016x", what, d1, d2)
			}
			closeEngine(last)
		}
		last = e
	}
	return last
}

// checkObs asserts the observability layer survived whatever just
// happened: no span leaked open, no structural trace error, and a
// metrics snapshot of the live engine validates (no negative counters,
// no NaN gauges).
func (d *driver) checkObs(when string) {
	if n := d.tr.OpenSpans(); n != 0 {
		d.violf("%s: %d spans leaked open", when, n)
	}
	if err := d.tr.Err(); err != nil {
		d.violf("%s: trace integrity: %v", when, err)
	}
	reg := obs.NewRegistry()
	if m, ok := d.eng.(interface{ PublishMetrics(*obs.Registry) }); ok {
		m.PublishMetrics(reg)
	}
	obs.PublishCacheStats(reg, d.eng.Stats())
	d.arr.PublishMetrics(reg)
	if err := reg.Validate(); err != nil {
		d.violf("%s: metrics registry: %v", when, err)
	}
}

// total is the engine counters summed across every instance of the run.
func (d *driver) total() stats.CacheStats {
	s := d.banked
	s.Add(d.eng.Stats())
	return s
}

// readAll reads the whole footprint through the engine, model-checked.
func (d *driver) readAll(footprint int64) {
	for lba := int64(0); lba < footprint; lba++ {
		d.doRead(lba)
	}
}

// readFlushed reads the footprint through the single engine, flushes
// every pending delta into parity, and checks no row is left stale and
// the invariants still hold. It reports whether the flush succeeded.
func (d *driver) readFlushed(footprint int64) bool {
	d.readAll(footprint)
	if _, err := d.kdd().Flush(0); err != nil {
		d.violf("flush: %v", err)
		return false
	}
	if n := d.arr.StaleRows(); n != 0 {
		d.violf("%d stale rows after flush", n)
	}
	if err := d.eng.CheckInvariants(); err != nil {
		d.violf("post-flush invariants: %v", err)
	}
	return true
}

// sweepArray reads the footprint straight off the array, past the cache,
// and compares every page with the model.
func (d *driver) sweepArray(footprint int64, what string) {
	zero := make([]byte, blockdev.PageSize)
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < footprint; lba++ {
		want, ok := d.mdl.Value(lba)
		if !ok {
			d.violf("page %d still unresolved at verify", lba)
			continue
		}
		if want == nil {
			want = zero
		}
		if _, err := d.arr.ReadPages(0, lba, 1, buf); err != nil {
			if !d.lostOK(err) {
				d.violf("%s read %d: %v", what, lba, err)
			}
			continue
		}
		if !bytes.Equal(buf, want) {
			d.violf("%s content mismatch at %d", what, lba)
		}
	}
}

// degradedProof fails a random member and re-reads the footprint through
// reconstruction: wrong parity anywhere shows up as a mismatch. It
// returns the member it failed.
func (d *driver) degradedProof(footprint int64) int {
	disk := d.rng.Intn(len(d.members))
	d.arr.FailDisk(disk)
	d.sweepArray(footprint, "degraded")
	return disk
}

// sweepChecksums verifies every page checksum on every store: corruption
// a fault left behind must never sit undetected on a medium.
func (d *driver) sweepChecksums() {
	if st := d.inj.Store(); st != nil {
		for p := int64(0); p < d.g.metaPages+d.g.cachePages; p++ {
			if !st.VerifyPage(p) {
				d.violf("ssd checksum mismatch at page %d", p)
			}
		}
	}
	// Sweep through the injectors, not d.members: a spare attach swaps
	// the medium behind a member's injector, and it is the medium
	// actually serving reads that must checksum.
	for i := range d.members {
		st := d.arr.Injector(i).Store()
		if st == nil {
			continue
		}
		for p := int64(0); p < d.g.diskPages; p++ {
			if !st.VerifyPage(p) {
				d.violf("disk %d checksum mismatch at page %d", i, p)
			}
		}
	}
}
