package check

import (
	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/lsraid"
	"kddcache/internal/raid"
)

// rebuildVictim is the member the rebuild scenario kills at Ops/3.
const rebuildVictim = 1

// geometry is the single-core checker's stack: deliberately smaller than
// the chaos harness's so the per-site replays (hundreds per seed) stay
// cheap, while still exercising eviction, DEZ packing, cleaning, and
// parity maintenance. The rebuild scenario runs RAID-6 with one extra
// member and a parked spare: its armed member faults may fire INSIDE the
// rebuild window (one member already missing), and the zero-loss
// assertions only hold if the geometry tolerates that second hole.
func (o Options) geometry() geometry {
	g := geometry{backend: o.Backend, level: raid.Level5, disks: 4, diskPages: 256, chunk: 4,
		segRows: 16, ways: 16, metaPages: 32, cachePages: o.CachePages}
	if o.Rebuild {
		g.level, g.disks, g.spares = raid.Level6, 5, 1
	}
	return g
}

// shardGeometry is the sharded sweep's stack. The plane splits the cache
// into per-lane slices over one shared SSD and metadata log; the numbers
// keep every lane big enough to evict and clean (16 pages, two 8-way
// sets) while the replays stay cheap.
func (o Options) shardGeometry() geometry {
	return geometry{backend: o.Backend, level: raid.Level5, disks: 5, diskPages: 512, chunk: 4,
		segRows: 16, ways: 8, metaPages: 32, cachePages: 128}
}

func (o Options) kddDriver(seed uint64) (*driver, error) {
	d, err := newDriver(seed, o.geometry())
	if err == nil {
		err = d.startKDD(d.coreConfig())
	}
	return d, err
}

// planeDriver runs the plane with coalescing off: a dropped-then-crashed
// write pair would need a three-valued old-or-new pin, which the model
// (correctly) rejects.
func (o Options) planeDriver(seed uint64, shards int) (*driver, error) {
	d, err := newDriver(seed, o.shardGeometry())
	if err == nil {
		err = d.startPlane(d.planeConfig(shards, false))
	}
	return d, err
}

// pickLBA draws from the footprint with a hot front eighth. The draw
// count is fixed, keeping the op stream in lockstep with the profile run
// whichever fault site is armed.
func (d *driver) pickLBA(footprint int64) int64 {
	hot := d.rng.Float64() < 0.5
	n := int64(d.rng.Uint64n(uint64(footprint)))
	if hot {
		return n / 8
	}
	return n
}

// rig is one single-core checker run: the real KDD engine and the model,
// driven through an identical op stream.
type rig struct {
	*driver
	o Options
}

// runOps replays the seeded workload, recovering (twice, digests
// compared) whenever the armed crash site fires.
func (r *rig) runOps() {
	for i := 0; i < r.o.Ops && !r.halt; i++ {
		if r.o.Rebuild && i == r.o.Ops/3 {
			// Kill a member with a hot spare parked: the pump attaches it
			// at the end of the next operation and rebuilds online under
			// the remaining workload (and under whatever site is armed).
			r.arr.FailDisk(rebuildVictim)
		}
		if r.step(r.pickLBA(r.o.Footprint)) {
			r.restore(2)
		}
	}
}

// verify is the post-workload integrity chain: invariants, the rebuild
// driven to completion, model-checked cache reads over the footprint,
// flush, stale-row accounting, a patrol scrub, direct array reads, a
// checksum sweep of every store, a degraded re-read proving parity
// reconstructs, and — with the SSD dead — a recovery proof.
func (r *rig) verify() {
	if err := r.eng.CheckInvariants(); err != nil {
		r.violf("invariants: %v", err)
	}
	if la, ok := r.arr.(*lsraid.Array); ok {
		if err := la.CheckInvariants(); err != nil {
			r.violf("lsraid invariants: %v", err)
		}
	}
	// The checks below (flush, scrub, content sweep, degraded proof) all
	// assume full redundancy.
	for r.arr.RebuildActive() {
		_, _, complete, err := r.arr.RebuildStep(0, 64)
		if err != nil {
			r.violf("rebuild step during verify: %v", err)
			break
		}
		if complete {
			break
		}
	}
	if r.o.Rebuild && !r.allowLost {
		if lost := r.arr.LostRows(); len(lost) > 0 {
			r.violf("rebuild window lost rows %v despite double-fault tolerance", lost)
		}
	}
	if !r.readFlushed(r.o.Footprint) {
		return
	}
	_, rep, err := r.arr.Scrub(0)
	if err != nil {
		r.violf("scrub: %v", err)
		return
	}
	if len(rep.Unrecoverable) > 0 && !r.allowLost {
		r.violf("scrub reported unrecoverable rows %v", rep.Unrecoverable)
	}
	r.sweepArray(r.o.Footprint, "array")
	r.sweepChecksums()
	if r.arr.Healthy() {
		r.degradedProof(r.o.Footprint)
	}
	r.verifyBypassRestore()
}

// verifyBypassRestore proves recovery is safe and idempotent while the
// cache device is dead. Entering pass-through re-initialised the metadata
// log to empty (NVRAM counters only — no device I/O), so a restore from
// the NVRAM snapshot must come up as a fresh empty cache without touching
// the failed SSD, twice, with identical digests, and a read through the
// restored instance must still be served from the RAID.
func (r *rig) verifyBypassRestore() {
	if r.kdd().Health() != core.HealthBypass {
		return
	}
	k := r.reopen(r.snapshot(), 2, "dead-ssd recovery")
	if k == nil {
		return
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := k.Read(0, 0, buf); err != nil {
		if !r.lostOK(err) {
			r.violf("read through dead-ssd-restored instance: %v", err)
		}
	} else if err := r.mdl.Check(0, buf); err != nil {
		r.violf("dead-ssd-restored read 0: %v", err)
	}
	live := r.eng
	r.eng = k
	r.checkObs("dead-ssd restore")
	r.eng = live
}

// shardSweepWidths cycles the plane's execution width across seeds. In
// deterministic mode the width cannot change the device-op trace (the
// plane's central contract), so each seed picks one width and the sweep
// still covers every grouping the plane supports.
var shardSweepWidths = []int{1, 2, 4, 8}

// shardBatch is the plane batch size: big enough that several lanes hold
// buffered metadata entries when a crash fires mid-batch — the
// interleaved-batches-in-flight state the sharded sweep exists to crash
// into.
const shardBatch = 16

// shardRig is one sharded-plane checker run.
type shardRig struct {
	*driver
	o Options
}

// runOps replays the seeded batched workload; in-batch writes to one LBA
// chain, exactly what the device holds if both execute.
func (r *shardRig) runOps() {
	batches := max(1, r.o.Ops/shardBatch)
	pick := func() int64 { return r.pickLBA(r.o.Footprint) }
	for b := 0; b < batches && !r.halt; b++ {
		if r.runBatch(0, r.planBatch(shardBatch, pick, true)) {
			r.restore(2)
		}
	}
}

// verify quiesces (lane flushes plus the final metadata barrier), then
// checks invariants, model-checked reads of the footprint through the
// plane, stale-row accounting, direct array reads, and every checksum.
func (r *shardRig) verify() {
	if _, err := r.plane().Quiesce(0); err != nil {
		r.violf("quiesce: %v", err)
		return
	}
	if err := r.eng.CheckInvariants(); err != nil {
		r.violf("invariants: %v", err)
	}
	r.readAll(r.o.Footprint)
	if n := r.arr.StaleRows(); n != 0 {
		r.violf("%d stale rows after quiesce", n)
	}
	r.sweepArray(r.o.Footprint, "array")
	r.sweepChecksums()
}
