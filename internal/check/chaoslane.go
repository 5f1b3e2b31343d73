package check

import (
	"hash/fnv"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
)

// ssd-lane-kill: the sharded data plane loses one lane's slice of the
// SSD mid-workload. The lane regions are disjoint [MetaStart+MetaPages +
// lane*lanePages, +lanePages) partitions of the shared device, so a
// range fail-stop models the death of one die/channel: exactly one lane
// sees ErrFailed, fails over to pass-through (HealthBypass), and keeps
// serving from the RAID — which always holds current data, because KDD
// dispatches every write to the array. The other seven lanes must not
// notice. The plane runs the deterministic scheduler (the byte-identical
// contract the run-twice fingerprint leans on) at a shard count that
// groups the dead lane with live ones, proving the fold-to-bypass is
// lane-scoped, not shard-scoped.

const (
	laneKillBatch = 32 // ops per RunBatch
	laneKillPokes = 12 // killed-lane reads per poke batch
)

// readOps is a batch reading each of lbas.
func readOps(lbas []int64) []shard.Op {
	ops := make([]shard.Op, 0, len(lbas))
	for _, lba := range lbas {
		ops = append(ops, shard.Op{Kind: shard.OpRead, LBA: lba, Buf: make([]byte, blockdev.PageSize)})
	}
	return ops
}

// laneLBAs returns up to n footprint LBAs routed to the given lane,
// preferring already-written ones so pokes land on live cache state.
func (d *driver) laneLBAs(footprint int64, lane, n int) []int64 {
	p := d.plane()
	var out []int64
	for _, lba := range d.mdl.Written() {
		if p.LaneOf(lba) == lane {
			out = append(out, lba)
			if len(out) == n {
				return out
			}
		}
	}
	for lba := int64(0); lba < footprint && len(out) < n; lba++ {
		if p.LaneOf(lba) == lane {
			out = append(out, lba)
		}
	}
	return out
}

// runLaneKill is the custom driver for the ssd-lane-kill plan. Every op
// must succeed: the lane kill is absorbed by per-lane failover and must
// never surface a user-visible error.
func runLaneKill(d *driver, o ChaosOpts, res *ChaosScheduleResult) {
	p := d.plane()
	defer p.Close()
	lanePages := d.g.cachePages / shard.Lanes
	// Kill the lane owning a randomly drawn footprint LBA: lanes are a
	// hash of the stripe index, so with a small footprint some lanes own
	// no stripes at all — killing one of those would prove nothing.
	killLane := p.LaneOf(int64(d.rng.Uint64n(uint64(o.Footprint))))
	uniform := func() int64 { return int64(d.rng.Uint64n(uint64(o.Footprint))) }

	nBatches := (o.Ops + laneKillBatch - 1) / laneKillBatch
	t := sim.Time(0)
	for b := 0; b < nBatches; b++ {
		if b == nBatches/2 {
			// Fail-stop exactly one lane's slice of the cache data
			// partition. The lane discovers it mid-RunBatch, on its next
			// SSD touch (a hit read, a delta write, a read-fill), and
			// folds to bypass without surfacing an error.
			d.inj.FailRange(d.g.metaPages+int64(killLane)*lanePages, lanePages)
		}
		t = sim.Time(b+1) * sim.Millisecond
		d.runBatch(t, d.planBatch(laneKillBatch, uniform, false))
	}

	// Poke the killed lane twice: read misses on a dead lane read-fill
	// into the dead region (the fault is swallowed, the failover armed),
	// and the next operation completes the transition — so two batches
	// guarantee HealthBypass even if the main loop barely touched the
	// lane after the kill.
	for poke := 0; poke < 2; poke++ {
		t += sim.Millisecond
		d.runBatch(t, readOps(d.laneLBAs(o.Footprint, killLane, laneKillPokes)))
	}

	// Final sweep: every LBA the model knows, in sorted order — the dead
	// lane serves from RAID, the live lanes from cache, and both must
	// return byte-exact content.
	lbas := d.mdl.Footprint()
	for start := 0; start < len(lbas); start += laneKillBatch {
		t += sim.Millisecond
		d.runBatch(t, readOps(lbas[start:min(start+laneKillBatch, len(lbas))]))
	}

	// The killed lane must have folded to bypass and served through it;
	// the other seven lanes must still be Normal with zero pass-through.
	for lane := 0; lane < shard.Lanes; lane++ {
		k := p.Lane(lane)
		ls := k.Stats()
		if lane == killLane {
			if h := k.Health(); h != core.HealthBypass {
				d.violf("killed lane %d health %v, want bypass", lane, h)
			}
			if ls.PassReads+ls.PassWrites == 0 {
				d.violf("killed lane %d never served in pass-through", lane)
			}
			if ls.Failovers == 0 {
				d.violf("killed lane %d recorded no failover", lane)
			}
		} else {
			if h := k.Health(); h != core.HealthNormal {
				d.violf("surviving lane %d health %v, want normal", lane, h)
			}
			if ls.PassReads+ls.PassWrites != 0 {
				d.violf("surviving lane %d served %d ops in pass-through", lane, ls.PassReads+ls.PassWrites)
			}
		}
	}

	if _, err := p.Quiesce(t); err != nil {
		d.violf("quiesce: %v", err)
	}
	if err := p.CheckInvariants(); err != nil {
		d.violf("invariants: %v", err)
	}

	agg := p.Stats()
	res.Failovers = agg.Failovers
	res.Repaired = agg.RowsHealed + agg.FoldRMWs + agg.FoldResyncs
	res.Detected = d.inj.MediaErrors()
	res.Spans = d.dig.Spans()
	res.TraceDigest = d.dig.Sum64()
	res.Violations = d.violations

	h := fnv.New64a()
	putU64(h, p.StateDigest(), uint64(killLane), uint64(agg.Failovers),
		uint64(agg.PassReads+agg.PassWrites), uint64(agg.FoldRMWs),
		uint64(agg.FoldResyncs), uint64(p.CoalescedWrites()))
	d.hashModel(h)
	putU64(h, res.Spans, res.TraceDigest, uint64(len(res.Violations)))
	res.Fingerprint = h.Sum64()
}
