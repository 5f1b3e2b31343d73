package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/harness"
	"kddcache/internal/raid"
)

// Chaos drives the full KDD stack (SSD cache + RAID-5 backend) through
// randomized, seeded fault schedules and verifies end-to-end integrity
// after each one. Every schedule runs a mixed read/write workload against
// the model oracle while a fault plan injects latent media errors,
// transient glitches, silent bit-rot, torn-write crashes, or fail-stop
// disk losses; afterwards the rig checks cache invariants, flushes, runs
// a patrol scrub, verifies the array contents directly, and proves parity
// by failing a disk and re-reading through reconstruction. Each schedule
// is executed twice and must produce bit-identical results (fingerprints)
// — fault injection is deterministic given the seed.

// ChaosOpts parameterises a chaos run.
type ChaosOpts struct {
	Schedules  int    // distinct fault schedules (default 24)
	Ops        int    // workload operations per schedule (default 500)
	Footprint  int64  // distinct LBAs touched (default 640)
	CachePages int64  // SSD cache data pages (default 512)
	Seed       uint64 // master seed (default 0xC0FFEE)
	Parallel   int    // worker-pool width for schedules (0 = harness default)
	// Kind restricts the run to a comma-separated set of plan kinds
	// (e.g. "ssd-kill,ssd-reattach"); empty runs every plan.
	Kind string
}

func (o ChaosOpts) withDefaults() ChaosOpts {
	if o.Schedules == 0 {
		o.Schedules = 24
	}
	if o.Ops == 0 {
		o.Ops = 500
	}
	if o.Footprint == 0 {
		o.Footprint = 640
	}
	if o.CachePages == 0 {
		o.CachePages = 512
	}
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	return o
}

// plans resolves Kind to the plans it names, in table order, reporting
// any name that matches no plan.
func (o ChaosOpts) plans() ([]*chaosPlan, error) {
	if o.Kind == "" {
		return chaosPlans, nil
	}
	want := make(map[string]bool)
	for _, k := range strings.Split(o.Kind, ",") {
		want[strings.TrimSpace(k)] = true
	}
	var out []*chaosPlan
	for _, p := range chaosPlans {
		if want[p.kind] {
			out = append(out, p)
			delete(want, p.kind)
		}
	}
	for _, k := range strings.Split(o.Kind, ",") {
		if want[strings.TrimSpace(k)] {
			return out, fmt.Errorf("no chaos plan named %q", strings.TrimSpace(k))
		}
	}
	return out, nil
}

// Validate rejects options no chaos schedule can run — an unknown plan
// kind, a footprint without a hot eighth or past the array, a cache
// below one set — by building every selected plan's stack once.
func (o ChaosOpts) Validate() error {
	o = o.withDefaults()
	plans, err := o.plans()
	if err != nil {
		return err
	}
	if o.Footprint < 8 {
		return fmt.Errorf("footprint of %d pages leaves the hot eighth empty; need at least 8", o.Footprint)
	}
	builds := make([]func() (*driver, error), len(plans))
	for i, p := range plans {
		builds[i] = func() (*driver, error) { return p.newDriver(0, o) }
	}
	return validate(o.Footprint, builds...)
}

// ChaosScheduleResult summarises one schedule (one seeded fault plan).
type ChaosScheduleResult struct {
	Schedule int
	Kind     string
	Seed     uint64

	Crashes       int   // power losses injected (and recovered from)
	Detected      int64 // media-error detection events across all layers (a fault observed at both the device and the RAID layer counts at each)
	Repaired      int64 // pages/rows healed (scrub, read-repair, row heals, emergency folds)
	StaleFolds    int   // ops retried after folding deltas into stale parity
	Unrecoverable int   // rows reported unrecoverable (only the dedicated plan expects any)
	Failovers     int64 // cache transitions into pass-through (breaker trips + fail-stops)
	Reattaches    int64 // successful cache re-attachments
	SpareAttaches int64 // hot spares auto-attached by the rebuild pump
	RebuildRows   int64 // member rows reconstructed by the paced rebuild

	Spans       uint64 // spans emitted by the always-on tracer
	TraceDigest uint64 // FNV-1a of the canonical trace bytes; equal across reruns

	Fingerprint uint64 // digest of final content + counters; equal across reruns
	Violations  []string
}

// ChaosReport aggregates all schedules of a run.
type ChaosReport struct {
	Opts    ChaosOpts
	Results []ChaosScheduleResult
}

// Violations flattens every schedule's violations with a schedule prefix.
func (r *ChaosReport) Violations() []string {
	var all []string
	for _, res := range r.Results {
		for _, v := range res.Violations {
			all = append(all, fmt.Sprintf("schedule %d (%s, seed %#x): %s",
				res.Schedule, res.Kind, res.Seed, v))
		}
	}
	return all
}

// Table renders the per-schedule summary.
func (r *ChaosReport) Table() string {
	var b strings.Builder
	b.WriteString("== Chaos: randomized partial-fault schedules over the KDD stack ==\n")
	fmt.Fprintf(&b, "%3s  %-14s %-18s %7s %9s %9s %6s %6s %6s %5s %6s %6s %5s %8s  %-16s %s\n",
		"#", "kind", "seed", "crashes", "detected", "repaired", "folds", "unrec", "failov", "reatt", "spares", "rbrows", "viol", "spans", "tracedigest", "fingerprint")
	var crashes, unrec, viol int
	var detected, repaired, failov, reatt, spares, rbrows int64
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%3d  %-14s %-18s %7d %9d %9d %6d %6d %6d %5d %6d %6d %5d %8d  %016x %016x\n",
			res.Schedule, res.Kind, fmt.Sprintf("%#x", res.Seed),
			res.Crashes, res.Detected, res.Repaired, res.StaleFolds,
			res.Unrecoverable, res.Failovers, res.Reattaches,
			res.SpareAttaches, res.RebuildRows,
			len(res.Violations), res.Spans, res.TraceDigest, res.Fingerprint)
		crashes += res.Crashes
		detected += res.Detected
		repaired += res.Repaired
		failov += res.Failovers
		reatt += res.Reattaches
		spares += res.SpareAttaches
		rbrows += res.RebuildRows
		unrec += res.Unrecoverable
		viol += len(res.Violations)
	}
	fmt.Fprintf(&b, "\n%d schedules: %d crashes recovered, %d media errors detected, "+
		"%d repairs, %d cache failovers, %d reattaches, %d spare attaches, "+
		"%d rebuild rows, %d unrecoverable rows, %d violations\n",
		len(r.Results), crashes, detected, repaired, failov, reatt, spares, rbrows, unrec, viol)
	if viol == 0 {
		b.WriteString("PASS: zero invariant violations, zero undetected corruption\n")
	} else {
		b.WriteString("FAIL:\n")
		for _, v := range r.Violations() {
			b.WriteString("  " + v + "\n")
		}
	}
	return b.String()
}

// Chaos runs every schedule twice (same seed) and reports the results.
// Determinism failures are recorded as violations on the first run.
// Schedules are independent (each builds its own stack, devices, and RNG
// streams from the derived seed), so they execute on the shared worker
// pool; results land in schedule order regardless of completion order.
func Chaos(o ChaosOpts) *ChaosReport {
	o = o.withDefaults()
	rep := &ChaosReport{Opts: o}
	plans, _ := o.plans()
	if len(plans) == 0 {
		return rep
	}
	// Schedule jobs never return errors: violations are data, recorded in
	// the per-schedule result, so one bad schedule can't mask the rest.
	rep.Results, _ = harness.FanOut(o.Parallel, o.Schedules, func(i int) (ChaosScheduleResult, error) {
		plan := plans[i%len(plans)]
		seed := o.Seed + uint64(i)*0x9E3779B97F4A7C15
		run := func() *ChaosScheduleResult {
			d := must(plan.newDriver(seed, o))
			res := &ChaosScheduleResult{Kind: plan.kind, Seed: seed}
			if plan.custom != nil {
				plan.custom(d, o, res)
			} else {
				runChaosSchedule(plan, d, o, res)
			}
			return res
		}
		res := run()
		rerun := run()
		if res.Fingerprint != rerun.Fingerprint {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"nondeterministic: fingerprint %016x vs %016x on rerun",
				res.Fingerprint, rerun.Fingerprint))
		}
		res.Schedule = i
		return *res, nil
	})
	return rep
}

// chaosPlan is one fault-injection strategy; the schedule driver is shared.
type chaosPlan struct {
	kind                string
	level               raid.Level                    // array level (zero = RAID-5)
	disks               int                           // member count (zero = 5)
	spares              int                           // hot spares parked at build time
	cfg                 func(*core.Config, ChaosOpts) // tweak the KDD config before core.New
	setup               func(*chaosRig)
	everyOp             func(*chaosRig, int)
	finish              func(*chaosRig)
	rearmCrash          bool // re-arm a crash point after every recovery
	expectUnrecoverable bool // the plan deliberately exhausts redundancy
	skipDegradedProof   bool

	// shards runs the plan on the sharded plane at this execution width
	// instead of on one engine (zero = one engine); ways sets the cache
	// associativity (zero = 32).
	shards, ways int
	// custom replaces the shared single-engine schedule driver entirely;
	// it must be fully deterministic for the given seed — the run-twice
	// fingerprint comparison applies to custom drivers too.
	custom func(d *driver, o ChaosOpts, res *ChaosScheduleResult)
}

// newDriver builds the plan's stack — small enough that a scrub pass is
// cheap, large enough that the footprint overflows the cache and
// exercises eviction, cleaning, and the DEZ machinery — and its engine.
func (p *chaosPlan) newDriver(seed uint64, o ChaosOpts) (*driver, error) {
	g := geometry{backend: "kdd", level: raid.Level5, disks: 5, diskPages: 1024, chunk: 8,
		spares: p.spares, ways: 32, metaPages: 64, cachePages: o.CachePages, ssdSlack: 64}
	if p.level != 0 {
		g.level = p.level
	}
	if p.disks != 0 {
		g.disks = p.disks
	}
	if p.ways != 0 {
		g.ways = p.ways
	}
	d, err := newDriver(seed, g)
	if err != nil {
		return nil, err
	}
	if p.shards > 0 {
		return d, d.startPlane(d.planeConfig(p.shards, true))
	}
	cfg := d.coreConfig()
	if p.cfg != nil {
		p.cfg(&cfg, o)
	}
	return d, d.startKDD(cfg)
}

// chaosRig is one schedule's driver plus its fault-plan tallies.
type chaosRig struct {
	*driver
	o    ChaosOpts
	plan *chaosPlan
	res  *ChaosScheduleResult

	flips       int            // silent/detectable corruptions actually applied
	flippedRows map[int64]bool // rows already holding an injected member fault
	proofFailed int            // disk deliberately failed by the degraded proof (-1 = none)
	lastScrub   raid.ScrubReport

	rebuildResumes     int  // crash recoveries that re-opened a rebuild window from the NVRAM checkpoint
	secondKillInWindow bool // the plan's second member failure landed inside an open rebuild window
}

func runChaosSchedule(plan *chaosPlan, d *driver, o ChaosOpts, res *ChaosScheduleResult) {
	c := &chaosRig{driver: d, o: o, plan: plan, res: res, flippedRows: make(map[int64]bool), proofFailed: -1}
	if plan.setup != nil {
		plan.setup(c)
	}
	for i := 0; i < o.Ops && !c.halt; i++ {
		if plan.everyOp != nil {
			plan.everyOp(c, i)
		}
		if c.step(c.pickLBA()) {
			c.recover()
		}
	}
	// Disarm any pending crash point and fault profiles: the verification
	// phase measures what the faults left behind, not new ones.
	c.inj.ClearCrash()
	c.inj.SetProfile(blockdev.FaultProfile{})
	for i := range c.members {
		c.arr.Injector(i).SetProfile(blockdev.FaultProfile{})
	}
	if !c.halt {
		c.verify()
		if plan.finish != nil {
			plan.finish(c)
		}
	}
	// Engine counters are summed across every instance: crash recovery
	// replaces the engine.
	ks := c.total()
	res.Crashes = c.crashes
	res.StaleFolds = c.folds
	res.Failovers = ks.Failovers
	res.Reattaches = ks.Reattaches
	res.SpareAttaches = ks.SpareAttaches
	res.RebuildRows = ks.RebuildRows
	res.Repaired += ks.RowsHealed + ks.FoldRMWs + ks.FoldResyncs + c.arr.Stats().ReadRepairs
	res.Detected = c.inj.MediaErrors() + c.arr.Stats().MediaErrors + ks.SSDMediaErrors
	for i := range c.members {
		res.Detected += c.arr.Injector(i).MediaErrors()
	}
	if err := c.tr.Err(); err != nil {
		c.violf("trace integrity: %v", err)
	}
	if n := c.tr.OpenSpans(); n != 0 {
		c.violf("%d spans leaked open at end of schedule", n)
	}
	res.Spans = c.dig.Spans()
	res.TraceDigest = c.dig.Sum64()
	res.Violations = c.violations

	h := fnv.New64a()
	c.hashModel(h)
	putU64(h, uint64(res.Crashes), uint64(res.Detected), uint64(res.Repaired),
		uint64(res.StaleFolds), uint64(res.Unrecoverable), uint64(res.Failovers),
		uint64(res.Reattaches), uint64(res.SpareAttaches), uint64(res.RebuildRows),
		res.Spans, res.TraceDigest, uint64(len(res.Violations)))
	res.Fingerprint = h.Sum64()
}

// putU64 folds little-endian words into a fingerprint.
func putU64(h hash.Hash64, vs ...uint64) {
	var w [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
}

// hashModel folds every resolved page of the model, in LBA order, into a
// fingerprint: two runs of the same seed must agree bit for bit.
func (d *driver) hashModel(h hash.Hash64) {
	for _, lba := range d.mdl.Footprint() {
		if v, ok := d.mdl.Value(lba); ok {
			putU64(h, uint64(lba))
			h.Write(v)
		}
	}
}

// writtenLBA draws a random LBA that has actually been written, so
// targeted corruption always lands on a live page even in short runs.
func (c *chaosRig) writtenLBA() (int64, bool) {
	w := c.mdl.Written()
	if len(w) == 0 {
		return 0, false
	}
	return w[c.rng.Intn(len(w))], true
}

// pickLBA draws from the footprint with a hot front eighth. Unlike the
// checker's draw it picks inside the eighth directly; each keeps its own
// RNG stream, which its recorded fingerprints pin.
func (c *chaosRig) pickLBA() int64 {
	if c.rng.Float64() < 0.5 {
		return int64(c.rng.Uint64n(uint64(c.o.Footprint / 8)))
	}
	return int64(c.rng.Uint64n(uint64(c.o.Footprint)))
}

// armNext arms the next torn-write crash point at a random distance.
// The distance window shrinks with -ops so short schedules still crash
// at least once instead of running out of writes before the trigger.
func (c *chaosRig) armNext() {
	span := min(120, max(1, c.o.Ops/4))
	c.inj.ArmCrash(int64(10+c.rng.Intn(span)), c.rng.Intn(3), c.rng.Intn(blockdev.PageSize))
}

// recover restores once from an injected power loss — chaos re-arms
// where the checker replays twice — counting a rebuild window re-opened
// from the NVRAM checkpoint.
func (c *chaosRig) recover() {
	c.restore(1)
	if c.halt {
		return
	}
	if c.arr.RebuildActive() {
		c.rebuildResumes++
	}
	if c.plan.rearmCrash {
		c.armNext()
	}
}

// verify is the post-workload integrity chain: invariants, cache-path
// read-verify, flush, patrol scrub, direct array verify, and a degraded
// re-read proving the parity actually reconstructs the data.
func (c *chaosRig) verify() {
	if err := c.eng.CheckInvariants(); err != nil {
		c.violf("invariants: %v", err)
	}
	if !c.readFlushed(c.o.Footprint) {
		return
	}
	// Drive any open rebuild window to completion and attach remaining
	// parked spares before judging the array: whenever a spare was
	// available the acceptance bar is full redundancy, and the scrub,
	// content sweep, and degraded proof below all want a settled array.
	// The workload's own pump activity did the paced part; this loop is
	// the backstop for windows still open at schedule end. Deltas are
	// folded before each attach (§III-E: parity_update precedes rebuild).
	for guard := 0; !c.arr.Healthy(); guard++ {
		if guard > len(c.members)+2 {
			c.violf("verify: array did not settle to full redundancy")
			break
		}
		if c.arr.RebuildActive() {
			if _, _, _, err := c.arr.RebuildStep(0, int(c.g.diskPages)); err != nil {
				c.violf("verify: rebuild step: %v", err)
				break
			}
			continue
		}
		if c.arr.SpareCount() == 0 {
			break // degraded with no spare left: a legal end state
		}
		if _, err := c.kdd().Clean(0, true); err != nil {
			c.violf("verify: delta fold before spare attach: %v", err)
			break
		}
		_, started, err := c.arr.StartSpareRebuild(0)
		if err != nil {
			c.violf("verify: spare attach: %v", err)
			break
		}
		if !started {
			break
		}
	}
	_, rep, err := c.arr.Scrub(0)
	if err != nil {
		c.violf("scrub: %v", err)
		return
	}
	c.lastScrub = rep
	c.res.Repaired += rep.MediaRepaired + rep.ParityFixed
	c.res.Unrecoverable += len(rep.Unrecoverable)
	if len(rep.Unrecoverable) > 0 && !c.plan.expectUnrecoverable {
		c.violf("scrub reported unrecoverable rows %v", rep.Unrecoverable)
	}
	c.sweepArray(c.o.Footprint, "array")
	if c.plan.skipDegradedProof || !c.arr.Healthy() {
		return
	}
	c.proofFailed = c.degradedProof(c.o.Footprint)
}

// cacheDataPage returns a random SSD page inside the cache data partition.
func (c *chaosRig) cacheDataPage() int64 {
	return c.g.metaPages + int64(c.rng.Uint64n(uint64(c.o.CachePages)))
}

// corruptSomeCachePage flips one bit in a cache data page that actually
// holds data, scanning the partition from a random start so short runs
// with sparse caches still land their corruption. Returns false only if
// the cache data partition is completely empty.
func (c *chaosRig) corruptSomeCachePage() bool {
	base := c.g.metaPages
	start := int64(c.rng.Uint64n(uint64(c.o.CachePages)))
	bit := uint(c.rng.Intn(blockdev.PageSize * 8))
	for j := int64(0); j < c.o.CachePages; j++ {
		if c.inj.Store().CorruptPage(base+(start+j)%c.o.CachePages, bit) {
			return true
		}
	}
	return false
}

// chaosProfile scales the probabilistic fault rates inversely with the
// op count so the expected number of injected faults stays constant:
// a short -ops run at the default rates could finish fault-free and
// trip the "no media errors surfaced" assertions spuriously. The cap
// keeps rates well under the bounded-retry resilience — at much higher
// rates, back-to-back transient faults outlast the retries and single
// rows collect latent faults faster than repair can clear them.
func (c *chaosRig) chaosProfile() blockdev.FaultProfile {
	scale := 500 / float64(c.o.Ops)
	return blockdev.FaultProfile{
		TransientProb: math.Min(0.05, 0.01*scale),
		LatentProb:    math.Min(0.05, 0.005*scale),
	}
}

var chaosPlans = []*chaosPlan{
	{
		// Probabilistic latent + transient media errors on the SSD cache:
		// exercises ssdRead retry, recoverHit fallback, and row healing.
		kind: "ssd-latent",
		setup: func(c *chaosRig) {
			c.inj.SetProfile(c.chaosProfile())
		},
		finish: func(c *chaosRig) {
			if c.inj.MediaErrors() == 0 {
				// A short, read-light schedule can dodge the probabilistic
				// profile entirely. Backstop: mark every cache data page
				// latent-bad and re-read the footprint — the first cache
				// hit must trip the media fallback (and heal itself), so a
				// populated cache cannot stay error-free.
				base := c.g.metaPages
				for p := int64(0); p < c.o.CachePages; p++ {
					c.inj.InjectBadPage(base + p)
				}
				for _, lba := range c.mdl.Written() {
					c.doRead(lba)
					if c.inj.MediaErrors() > 0 {
						break
					}
				}
			}
			if c.inj.MediaErrors() == 0 {
				c.violf("ssd-latent: no media errors surfaced")
			}
		},
	},
	{
		// Detectable bit-rot on SSD cache pages (checksummed): reads must
		// fall back to RAID and heal, never serve the rotten bytes.
		kind: "ssd-rot",
		everyOp: func(c *chaosRig, i int) {
			if i%13 == 4 {
				if c.corruptSomeCachePage() {
					c.flips++
				}
			}
		},
		finish: func(c *chaosRig) {
			if c.flips == 0 {
				c.violf("ssd-rot: no corruptions landed")
			}
		},
	},
	{
		// Probabilistic latent + transient faults on two RAID members:
		// the read path must repair single pages from redundancy without
		// declaring the member failed.
		kind: "member-latent",
		setup: func(c *chaosRig) {
			// Latent (erasure-like) faults go to one member only: RAID-5
			// tolerates a single erasure per row, and two latent-faulted
			// members will eventually land persistent bad pages in the
			// same row — a genuine double failure the dedicated
			// "unrecoverable" plan covers deliberately. The second member
			// gets transient faults only, which bounded retries absorb.
			p := c.chaosProfile()
			c.arr.Injector(1).SetProfile(p)
			c.arr.Injector(3).SetProfile(blockdev.FaultProfile{TransientProb: p.TransientProb})
		},
		finish: func(c *chaosRig) {
			for _, d := range []int{1, 3} {
				inj := c.arr.Injector(d)
				// The degraded proof fail-stops one disk on purpose; only a
				// failure NOT caused by the proof means media errors
				// escalated to fail-stop.
				if inj.Failed() && d != c.proofFailed {
					c.violf("member-latent: disk %d was declared failed by media errors", d)
				}
				if c.members[d].Reads() == 0 {
					c.violf("member-latent: disk %d served no reads", d)
				}
			}
			if c.arr.Injector(1).MediaErrors()+c.arr.Injector(3).MediaErrors() == 0 {
				c.violf("member-latent: no media errors surfaced")
			}
		},
	},
	{
		// Detectable bit-rot on member data pages: read-repair or the
		// patrol scrub must reconstruct them from parity.
		kind: "member-rot",
		everyOp: func(c *chaosRig, i int) {
			if i%17 == 6 {
				lba, ok := c.writtenLBA()
				if !ok {
					return
				}
				bit := uint(c.rng.Intn(blockdev.PageSize * 8))
				disk, page := c.arr.DataLocation(lba)
				// RAID-5 tolerates one erasure per row: a second fault in
				// a not-yet-repaired row would be genuinely unrecoverable
				// (the dedicated plan covers that case deliberately).
				if c.flippedRows[page] {
					return
				}
				if c.members[disk].Store().CorruptPage(page, bit) {
					c.flips++
					c.flippedRows[page] = true
				}
			}
		},
		finish: func(c *chaosRig) {
			if c.flips == 0 {
				c.violf("member-rot: no corruptions landed")
			}
			if c.lastScrub.MediaRepaired == 0 && c.arr.Stats().ReadRepairs == 0 {
				c.violf("member-rot: nothing was repaired despite %d corruptions", c.flips)
			}
		},
	},
	{
		// Silent bit-flips on parity pages: invisible to normal reads,
		// only the scrub's parity verification can find and fix them —
		// proven end to end by the degraded re-read afterwards.
		kind: "parity-rot",
		everyOp: func(c *chaosRig, i int) {
			if i%16 == 7 {
				lba, ok := c.writtenLBA()
				if !ok {
					return
				}
				bit := uint(c.rng.Intn(blockdev.PageSize * 8))
				pDisk, _, page := c.arr.ParityLocation(lba)
				if c.members[pDisk].Store().CorruptPageSilently(page, bit) {
					c.flips++
				}
			}
		},
		finish: func(c *chaosRig) {
			if c.flips == 0 {
				c.violf("parity-rot: no corruptions landed")
			}
			if c.lastScrub.ParityFixed == 0 {
				c.violf("parity-rot: scrub fixed no parity despite %d silent flips", c.flips)
			}
		},
	},
	{
		// Torn-write power losses: the crash point fires mid-write and
		// tears the in-flight page; recovery must come back consistent
		// every time, with the interrupted write atomically old or new.
		kind:       "crash-torn",
		rearmCrash: true,
		setup:      func(c *chaosRig) { c.armNext() },
		finish: func(c *chaosRig) {
			if c.crashes == 0 {
				c.violf("crash-torn: no crash fired")
			}
		},
	},
	{
		// Patrol scrub racing the live workload (stale rows, cleaner
		// activity) while both tiers take targeted faults.
		kind: "scrub-race",
		everyOp: func(c *chaosRig, i int) {
			if i%11 == 3 {
				c.inj.InjectTransient(c.cacheDataPage(), 1)
			}
			if i%17 == 5 {
				if lba, ok := c.writtenLBA(); ok {
					disk, page := c.arr.DataLocation(lba)
					if !c.flippedRows[page] &&
						c.members[disk].Store().CorruptPage(page, uint(c.rng.Intn(blockdev.PageSize*8))) {
						c.flips++
						c.flippedRows[page] = true
					}
				}
			}
			if i%40 == 25 {
				_, rep, err := c.arr.Scrub(0)
				if err != nil {
					c.violf("mid-run scrub: %v", err)
					return
				}
				c.res.Repaired += rep.MediaRepaired + rep.ParityFixed
				if len(rep.Unrecoverable) > 0 {
					c.violf("mid-run scrub reported unrecoverable rows %v", rep.Unrecoverable)
				}
			}
		},
	},
	{
		// Fail-stop disk loss mid-workload, then flush (parity update
		// precedes rebuild, §III-E) and rebuild onto a fresh member.
		kind: "fail-rebuild",
		everyOp: func(c *chaosRig, i int) {
			switch i {
			case c.o.Ops / 3:
				c.arr.FailDisk(1)
			case 2 * c.o.Ops / 3:
				if _, err := c.kdd().Flush(0); err != nil {
					c.violf("pre-rebuild flush: %v", err)
					return
				}
				fresh := blockdev.NewNullDataDevice("d1r", c.g.diskPages)
				if _, err := c.arr.ReplaceDisk(0, 1, fresh); err != nil {
					c.violf("rebuild: %v", err)
				}
			}
		},
		finish: func(c *chaosRig) {
			if len(c.arr.FailedDisks()) != 0 && c.arr.Healthy() {
				c.violf("fail-rebuild: inconsistent failure state")
			}
		},
	},
	{
		// Redundancy exhausted on purpose: both the data page and the
		// parity page of one row go bad. The array must refuse loudly
		// (ErrUnrecoverable) — never serve zeros — and the scrub must
		// report the row instead of patching it.
		kind:                "unrecoverable",
		expectUnrecoverable: true,
		skipDegradedProof:   true,
		finish: func(c *chaosRig) {
			lba := c.o.Footprint / 2
			if v, _ := c.mdl.Value(lba); v == nil {
				// Extremely unlikely with the default footprint, but keep
				// the probe honest: pick the first written lba.
				for l := int64(0); l < c.o.Footprint; l++ {
					if v, _ := c.mdl.Value(l); v != nil {
						lba = l
						break
					}
				}
			}
			dDisk, dPage := c.arr.DataLocation(lba)
			pDisk, _, pPage := c.arr.ParityLocation(lba)
			c.arr.Injector(dDisk).InjectBadPage(dPage)
			c.arr.Injector(pDisk).InjectBadPage(pPage)
			buf := make([]byte, blockdev.PageSize)
			if _, err := c.arr.ReadPages(0, lba, 1, buf); !errors.Is(err, raid.ErrUnrecoverable) {
				c.violf("double fault read %d: want ErrUnrecoverable, got %v", lba, err)
			}
			_, rep, err := c.arr.Scrub(0)
			if err != nil {
				c.violf("scrub with double fault: %v", err)
				return
			}
			found := false
			for _, row := range rep.Unrecoverable {
				if row == dPage {
					found = true
				}
			}
			if !found {
				c.violf("scrub did not report row %d unrecoverable", dPage)
			}
			c.res.Unrecoverable += len(rep.Unrecoverable)
			// Clear the marks (the stored bytes were never altered) and
			// confirm the array is whole again.
			c.arr.Injector(dDisk).ClearBadPage(dPage)
			c.arr.Injector(pDisk).ClearBadPage(pPage)
			if _, rep, err = c.arr.Scrub(0); err != nil || len(rep.Unrecoverable) != 0 {
				c.violf("post-clear scrub: err=%v unrecoverable=%v", err, rep.Unrecoverable)
			}
			if _, err := c.arr.ReadPages(0, lba, 1, buf); err != nil {
				c.violf("post-clear read %d: %v", lba, err)
			} else if want, _ := c.mdl.Value(lba); want != nil && !bytes.Equal(buf, want) {
				c.violf("post-clear content mismatch at %d", lba)
			}
		},
	},
	{
		// Whole-SSD fail-stop mid-trace: the cache must fold its stale
		// parity, drop to pass-through, and serve every remaining request
		// from the RAID without a single user-visible error.
		kind: "ssd-kill",
		everyOp: func(c *chaosRig, i int) {
			if i == c.o.Ops/2 {
				c.inj.Fail()
			}
		},
		finish: func(c *chaosRig) {
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-kill: health %v, want bypass", h)
			}
			ks := c.kdd().Stats()
			if ks.Failovers == 0 {
				c.violf("ssd-kill: failover never engaged")
			}
			if ks.PassReads+ks.PassWrites == 0 {
				c.violf("ssd-kill: no pass-through traffic after the kill")
			}
		},
	},
	{
		// SSD dies a handful of device ops into a forced cleaning pass, so
		// the failure lands deep inside a multi-I/O internal path (row
		// cleaning, DEZ commit) rather than neatly between requests.
		kind: "ssd-kill-clean",
		everyOp: func(c *chaosRig, i int) {
			if i == c.o.Ops/2 {
				c.inj.FailAfterOps = c.inj.Ops() + 5
				if _, err := c.kdd().Clean(0, true); err != nil {
					c.violf("ssd-kill-clean: clean surfaced %v", err)
				}
			}
		},
		finish: func(c *chaosRig) {
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-kill-clean: health %v, want bypass", h)
			}
			if c.kdd().Stats().Failovers == 0 {
				c.violf("ssd-kill-clean: failover never engaged")
			}
		},
	},
	{
		// Media-error storm trips the sliding-window breaker into Degraded
		// pass-through; once the storm passes and the bad-page marks are
		// cleared, a half-open probe re-admits traffic and the cache comes
		// back through Rebuilding to Normal. The breaker knobs scale with
		// the schedule length so that the trip, at least one failed probe,
		// and the recovering probe all fit inside even a short run (the
		// storm occupies ops/5..3*ops/5; defaults sized for 1000-op runs
		// would push the first probe past the end of a 200-op schedule).
		kind: "ssd-breaker",
		cfg: func(cfg *core.Config, o ChaosOpts) {
			cfg.BreakerWindow = max(4, o.Ops/25)
			cfg.BreakerThreshold = max(2, cfg.BreakerWindow/2)
			cfg.BreakerBackoff = int64(max(2, o.Ops/50))
			cfg.RebuildProbation = 2
		},
		everyOp: func(c *chaosRig, i int) {
			switch i {
			case c.o.Ops / 5:
				c.inj.SetProfile(blockdev.FaultProfile{LatentProb: 1})
			case 3 * c.o.Ops / 5:
				c.inj.SetProfile(blockdev.FaultProfile{})
				for p := int64(0); p < c.inj.Pages(); p++ {
					c.inj.ClearBadPage(p)
				}
			}
		},
		finish: func(c *chaosRig) {
			ks := c.kdd().Stats()
			if ks.BreakerTrips == 0 {
				c.violf("ssd-breaker: breaker never tripped")
			}
			if ks.BreakerProbes == 0 {
				c.violf("ssd-breaker: no probes ran")
			}
			if h := c.kdd().Health(); h != core.HealthNormal && h != core.HealthRebuilding {
				c.violf("ssd-breaker: health %v after the storm cleared", h)
			}
		},
	},
	{
		// Kill the SSD outright, then repair the medium and re-attach the
		// cache mid-trace; it must warm back up and then survive a second
		// kill (reattach-then-rekill).
		kind: "ssd-reattach",
		everyOp: func(c *chaosRig, i int) {
			switch i {
			case c.o.Ops / 4:
				c.inj.Fail()
			case c.o.Ops / 2:
				if h := c.kdd().Health(); h != core.HealthBypass {
					c.violf("ssd-reattach: health %v before reattach, want bypass", h)
				}
				c.inj.Repair(blockdev.NewNullDataDevice("ssd", c.g.metaPages+c.g.cachePages+c.g.ssdSlack))
				if err := c.kdd().Reattach(0, nil); err != nil {
					c.violf("ssd-reattach: %v", err)
				}
			case 3 * c.o.Ops / 4:
				c.inj.Fail()
			}
		},
		finish: func(c *chaosRig) {
			ks := c.kdd().Stats()
			if ks.Reattaches != 1 {
				c.violf("ssd-reattach: %d reattaches, want 1", ks.Reattaches)
			}
			if ks.Failovers < 2 {
				c.violf("ssd-reattach: %d failovers, want 2 (kill + rekill)", ks.Failovers)
			}
			if h := c.kdd().Health(); h != core.HealthBypass {
				c.violf("ssd-reattach: health %v after rekill, want bypass", h)
			}
		},
	},
	{
		// Fail-stop a member with a hot spare parked: the pump must fold
		// the pending deltas (§III-E), attach the spare, and pace the
		// rebuild against the live workload until full redundancy returns
		// — all without a single wrong byte served from the half-rebuilt
		// window.
		kind:   "disk-kill",
		spares: 1,
		everyOp: func(c *chaosRig, i int) {
			if i == c.o.Ops/3 {
				c.arr.FailDisk(1)
			}
		},
		finish: func(c *chaosRig) {
			// Pump counters sum across every engine instance.
			ks := c.total()
			if ks.SpareAttaches == 0 {
				c.violf("disk-kill: the pump never attached the spare")
			}
			if ks.RebuildRows == 0 {
				c.violf("disk-kill: no rebuild rows were pumped under foreground load")
			}
			if c.arr.Stats().RebuildsCompleted == 0 {
				c.violf("disk-kill: rebuild never completed")
			}
			// The degraded proof runs only on a fully redundant array, so
			// proofFailed doubles as the post-rebuild health witness.
			if c.proofFailed < 0 {
				c.violf("disk-kill: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("disk-kill: %d rows lost during a single-failure rebuild", len(lost))
			}
		},
	},
	{
		// Power losses landing inside the rebuild window: the watermark is
		// volatile, so every recovery must resume from the NVRAM checkpoint
		// — restarting from zero is merely slow, but forgetting the window
		// would serve the un-rebuilt region as zeros.
		kind:       "rebuild-crash",
		spares:     1,
		rearmCrash: true,
		everyOp: func(c *chaosRig, i int) {
			switch i {
			case c.o.Ops / 3:
				c.arr.FailDisk(1)
			case c.o.Ops/3 + 5:
				// Arm once the window is open; the 1024-row rebuild spans
				// >120 ops, so this crash deterministically lands inside it.
				if !c.inj.Crashed() {
					c.armNext()
				}
			}
		},
		finish: func(c *chaosRig) {
			if c.crashes == 0 {
				c.violf("rebuild-crash: no crash fired")
			}
			if c.rebuildResumes == 0 {
				c.violf("rebuild-crash: no recovery resumed a rebuild from the checkpoint")
			}
			if c.arr.Stats().RebuildsCompleted == 0 {
				c.violf("rebuild-crash: rebuild never completed across the crashes")
			}
			if c.proofFailed < 0 {
				c.violf("rebuild-crash: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("rebuild-crash: %d rows lost", len(lost))
			}
		},
	},
	{
		// RAID-6 with two hot spares: a second member dies while the first
		// rebuild window is still open. Double redundancy keeps every row
		// reconstructable (two erasures above the watermark); the pump
		// finishes the first rebuild, then attaches the second spare.
		kind:   "double-kill",
		level:  raid.Level6,
		disks:  6,
		spares: 2,
		everyOp: func(c *chaosRig, i int) {
			switch i {
			case c.o.Ops / 4:
				c.arr.FailDisk(1)
			case c.o.Ops / 3:
				c.secondKillInWindow = c.arr.RebuildActive()
				c.arr.FailDisk(3)
			}
		},
		finish: func(c *chaosRig) {
			if !c.secondKillInWindow {
				c.violf("double-kill: second failure missed the rebuild window")
			}
			if n := c.total().SpareAttaches; n < 2 {
				c.violf("double-kill: %d spare attaches, want 2", n)
			}
			if n := c.arr.Stats().RebuildsCompleted; n < 2 {
				c.violf("double-kill: %d rebuilds completed, want 2", n)
			}
			if c.proofFailed < 0 {
				c.violf("double-kill: array not fully redundant after verify")
			}
			if lost := c.arr.LostRows(); len(lost) != 0 {
				c.violf("double-kill: %d rows lost despite RAID-6 redundancy", len(lost))
			}
		},
	},
	{
		// One lane of the sharded plane loses its SSD slice mid-batch:
		// that lane alone folds to pass-through while the other seven
		// keep serving from cache (chaoslane.go has the full driver).
		// Four workers over eight lanes: the dead lane shares a worker
		// with a live one.
		kind:   "ssd-lane-kill",
		shards: 4,
		ways:   16,
		custom: runLaneKill,
	},
}
