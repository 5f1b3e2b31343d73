// Package check is the home of fault-injection verification: the chaos
// harness (Chaos, randomized seeded fault schedules) and the model-based
// crash-consistency checker (Run, RunShard), all on one driver — one
// stack builder, one op executor, one crash-recovery path and one oracle,
// internal/model.
//
// The checker runs a seeded workload once fault-free while recording the
// device-op trace, enumerates EVERY crash point (each SSD write ordinal,
// with seeded torn tails) and media-fault site (latent and transient, per
// distinct page on the SSD and each array member) from that trace, then
// replays the same workload once per site with that single fault armed.
// Each replay is cross-checked against internal/model's reference
// semantics: acked writes survive, in-flight writes resolve old-or-new
// and pin, recovery replay is idempotent, parity stays reconstructable,
// and every store's page checksums verify.
package check

import (
	"fmt"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/harness"
)

// Options configures a checker run. Zero values select defaults chosen so
// the exhaustive per-seed site sweep stays in the low hundreds of runs.
type Options struct {
	Seed       uint64 // master seed; 0 = 0xC0FFEE (the chaos harness's master, so its schedules double as regression seeds here)
	Seeds      int    // seeds to explore (0 = 2)
	Ops        int    // workload ops per run (0 = 200)
	Footprint  int64  // distinct user LBAs (0 = 64)
	CachePages int64  // SSD cache frame pages (0 = 128)
	Parallel   int    // site-replay workers (0 = GOMAXPROCS, via harness.FanOut)
	CrashOnly  bool   // explore only crash sites (used by the kddbug mutation self-test)
	// Rebuild selects the rebuild-window scenario: a member is killed at
	// Ops/3 with a hot spare parked, so every site fires against a stack
	// whose pump is rebuilding the array online (RAID-6 geometry, so a
	// member media fault inside the window stays recoverable). Crash sites
	// then cover the rebuild checkpoint/resume path.
	Rebuild bool
	// MediaStride samples every Nth member media-fault site (0 or 1 =
	// exhaustive). Crash sites, whole-SSD kill sites and SSD media sites
	// are never strided — only the member fault fan-out, which the rebuild
	// scenario inflates to every-page-on-every-member because the rebuild
	// itself touches the whole array. The -race -short CI sweep uses this;
	// the stride offset rotates per member so no member goes unsampled.
	MediaStride int
	// Backend picks the array implementation under the cache: "kdd" (the
	// default; parity RAID with the delayed-parity protocol) or "lsraid"
	// (the log-structured backend), for both sweeps. The rebuild scenario
	// is kdd-only: it depends on RAID-6 double-fault geometry.
	Backend string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 0xC0FFEE
	}
	if o.Seeds == 0 {
		o.Seeds = 2
	}
	if o.Ops == 0 {
		o.Ops = 200
	}
	if o.Footprint == 0 {
		o.Footprint = 64
	}
	if o.CachePages == 0 {
		o.CachePages = 128
	}
	if o.Backend == "" {
		o.Backend = "kdd"
	}
	return o
}

// site is one armed fault in one run: a FaultSite plus which device's
// injector it targets (disk < 0 means the SSD).
type site struct {
	dev  string
	disk int
	fs   blockdev.FaultSite
}

func (s site) String() string { return s.dev + " " + s.fs.String() }

// SeedResult is the outcome of one seed's exhaustive site sweep.
type SeedResult struct {
	Index      int
	Seed       uint64
	CrashSites int
	MediaSites int
	KillSites  int // whole-SSD fail-stop sites (cache failover + bypass proof)
	Crashes    int // crash points that actually fired and were recovered
	Violations []string
}

// Report aggregates the checker's results across seeds.
type Report struct {
	Opts    Options
	Kind    string // sweep variant shown in the table heading ("" = single-core)
	Results []SeedResult
}

// Violations flattens all violations, prefixed with their seed.
func (r *Report) Violations() []string {
	var out []string
	for _, res := range r.Results {
		for _, v := range res.Violations {
			out = append(out, fmt.Sprintf("seed %#x: %s", res.Seed, v))
		}
	}
	return out
}

// Table renders the per-seed summary plus a verdict line.
func (r *Report) Table() string {
	var b strings.Builder
	kind := r.Kind
	if kind == "" {
		kind = "exhaustive crash-point and fault-site exploration"
	}
	fmt.Fprintf(&b, "== Check: %s ==\n", kind)
	fmt.Fprintf(&b, "%4s  %-18s %7s %7s %5s %8s %6s\n", "#", "seed", "crash", "media", "kill", "crashes", "viol")
	sites, crashes, viols := 0, 0, 0
	for _, res := range r.Results {
		fmt.Fprintf(&b, "%4d  %-18s %7d %7d %5d %8d %6d\n",
			res.Index, fmt.Sprintf("%#x", res.Seed),
			res.CrashSites, res.MediaSites, res.KillSites, res.Crashes, len(res.Violations))
		sites += res.CrashSites + res.MediaSites + res.KillSites
		crashes += res.Crashes
		viols += len(res.Violations)
	}
	fmt.Fprintf(&b, "%d seeds, %d sites explored, %d crash points recovered, %d violations\n",
		len(r.Results), sites, crashes, viols)
	if viols == 0 {
		b.WriteString("PASS: every acked write survived every crash point and fault site\n")
	} else {
		b.WriteString("FAIL:\n")
		for _, v := range r.Violations() {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// Validate rejects options no checker rig can run — an unknown backend,
// the rebuild scenario off parity RAID, a footprint or cache that does
// not fit the stack — with an error instead of a panic or a flood of
// violations. It checks both the single-core and the sharded rig.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Rebuild && o.Backend != "kdd" {
		return fmt.Errorf("the rebuild scenario needs the kdd backend (RAID-6 double-fault geometry), got %q", o.Backend)
	}
	return validate(o.Footprint,
		func() (*driver, error) { return o.kddDriver(0) },
		func() (*driver, error) { return o.planeDriver(0, 1) })
}

// sweepRig is one checker run: a driver, its seeded workload and its
// post-run verification chain.
type sweepRig interface {
	base() *driver
	runOps()
	verify()
}

// Run executes the single-core checker across o.Seeds seeds. Sites within
// a seed fan out across workers; each site replay is independent, so
// violations come back as data and never abort the sweep.
func Run(o Options) *Report {
	o = o.withDefaults()
	return sweep(o, "", func(seed uint64, _ int) sweepRig {
		return &rig{driver: must(o.kddDriver(seed)), o: o}
	})
}

// RunShard executes the sharded-plane crash sweep across o.Seeds seeds:
// a batched workload over the full plane (eight lanes, one shared
// metadata log with per-lane tagged batch flushes), profiled fault-free,
// then replayed once per SSD write ordinal with a torn-write crash point
// armed. Crashes land with several lanes' metadata batches in flight;
// recovery must demultiplex the shared log back to the lanes, twice,
// identically. Only crash sites are explored — media-fault coverage of
// the engine under each lane is the single-core sweep's job, and the
// plane disables the per-lane breakers (a shared SSD fails as a whole).
func RunShard(o Options) *Report {
	o = o.withDefaults()
	o.CrashOnly = true
	return sweep(o, "sharded plane, crash points with batches in flight", func(seed uint64, i int) sweepRig {
		return &shardRig{driver: must(o.planeDriver(seed, shardSweepWidths[i%len(shardSweepWidths)])), o: o}
	})
}

// sweep runs one rig kind across o.Seeds seeds.
func sweep(o Options, kind string, newRig func(seed uint64, i int) sweepRig) *Report {
	rep := &Report{Opts: o, Kind: kind}
	for i := 0; i < o.Seeds; i++ {
		// Same stride as the chaos harness, so its 24 schedule seeds are
		// reachable here as regression seeds.
		seed := o.Seed + uint64(i)*0x9E3779B97F4A7C15
		res := runSeed(seed, o, func() sweepRig { return newRig(seed, i) })
		res.Index = i
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// siteOutcome is one site replay's result; violations are data, not
// errors, so the fan-out never cancels early.
type siteOutcome struct {
	crashes    int
	violations []string
}

// runSeed profiles the workload fault-free, enumerates every site from
// the recorded traces, and replays the workload once per site.
func runSeed(seed uint64, o Options, newRig func() sweepRig) SeedResult {
	res := SeedResult{Seed: seed}

	// Profile run: fault-free, recording the device-op trace on the SSD
	// and every array member. The baseline must be clean — otherwise site
	// failures would be noise on top of a broken stack.
	r := newRig()
	d := r.base()
	record := func(on bool) {
		d.inj.RecordOps(on)
		for i := range d.members {
			d.arr.Injector(i).RecordOps(on)
		}
	}
	record(true)
	r.runOps()
	record(false)
	// Pump activity during the profile run, captured before verify (whose
	// completion drive steps the array directly, not through the pump).
	profileSteps := int(d.eng.Stats().RebuildSteps)
	r.verify()
	if len(d.violations) > 0 {
		for _, v := range d.violations {
			res.Violations = append(res.Violations, "baseline (no faults): "+v)
		}
		return res
	}

	// Enumerate. Crashes model whole-node power loss. The SSD injector's
	// write ordinals (log, cache frame, DEZ commits) are always crash
	// sites; in the rebuild scenario the rebuild target's member writes
	// are too — every rebuild step writes the target, so the sweep gets a
	// crash point inside the window for every step. Other members
	// contribute media sites only.
	var sites []site
	for _, fs := range blockdev.EnumerateSites(d.inj.Recorded(), seed^0x517E5) {
		if o.CrashOnly && fs.Kind != blockdev.FaultCrashTorn {
			continue
		}
		sites = append(sites, site{dev: "ssd", disk: -1, fs: fs})
	}
	if !o.CrashOnly {
		stride := max(1, o.MediaStride)
		for disk := range d.members {
			media := 0
			for _, fs := range blockdev.EnumerateSites(d.arr.Injector(disk).Recorded(), seed^uint64(disk)) {
				if fs.Kind == blockdev.FaultCrashTorn {
					if !o.Rebuild || disk != rebuildVictim {
						continue
					}
					// Member pages are write-atomic (the sector-atomicity
					// assumption parity RAID is built on): a power loss
					// mid-write persists nothing, unlike the SSD's torn
					// multi-page log appends.
					fs.TornPages, fs.TornBytes = 0, 0
				} else {
					media++
					if (media-1)%stride != disk%stride {
						continue
					}
				}
				sites = append(sites, site{dev: fmt.Sprintf("disk%d", disk), disk: disk, fs: fs})
			}
		}
		// Whole-SSD fail-stop sites: strided op ordinals at which the cache
		// device dies outright. SSD only — a member fail-stop is the RAID
		// layer's rebuild problem, already covered by the chaos harness.
		for _, fs := range blockdev.EnumerateFailStopSites(d.inj.Recorded(), 8) {
			sites = append(sites, site{dev: "ssd", disk: -1, fs: fs})
		}
	}
	for _, s := range sites {
		switch s.fs.Kind {
		case blockdev.FaultCrashTorn:
			res.CrashSites++
		case blockdev.FaultFailStop:
			res.KillSites++
		default:
			res.MediaSites++
		}
	}
	if o.Rebuild {
		// The rebuild scenario's whole point is crash coverage of the
		// checkpoint/resume path: the pump must actually have stepped, and
		// the sweep must arm at least one crash point per rebuild step.
		if profileSteps == 0 {
			res.Violations = append(res.Violations,
				"profile: rebuild window never pumped a step")
		}
		if res.CrashSites < profileSteps {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"only %d crash sites enumerated for %d rebuild steps",
				res.CrashSites, profileSteps))
		}
	}

	outs, _ := harness.FanOut(o.Parallel, len(sites), func(i int) (siteOutcome, error) {
		return runSite(newRig(), sites[i], o.Rebuild), nil
	})
	for i, out := range outs {
		res.Crashes += out.crashes
		for _, v := range out.violations {
			res.Violations = append(res.Violations, fmt.Sprintf("site %s: %s", sites[i], v))
		}
	}
	return res
}

// runSite replays the seeded workload with exactly one fault armed, then
// runs the full verification chain. The workload prefix is identical to
// the profile run, so crash write-ordinals land where they were recorded.
func runSite(r sweepRig, s site, rebuild bool) siteOutcome {
	d := r.base()
	// An SSD fail-stop inside the rebuild window is a legal double fault:
	// the deltas that died with the cache were the only way to repair
	// stale parity before reconstructing the missing member (§III-E).
	d.allowLost = rebuild && s.disk < 0 && s.fs.Kind == blockdev.FaultFailStop
	if s.disk < 0 {
		d.inj.Arm(s.fs)
	} else {
		d.arr.Injector(s.disk).Arm(s.fs)
	}
	r.runOps()
	if !d.halt {
		r.verify()
	}
	out := siteOutcome{crashes: d.crashes, violations: d.violations}
	if s.fs.Kind == blockdev.FaultCrashTorn && d.crashes == 0 {
		out.violations = append(out.violations, "armed crash point never fired (replay diverged from profile)")
	}
	return out
}
