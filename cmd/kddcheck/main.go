// Command kddcheck runs the model-based crash-consistency checker: a
// seeded workload is profiled fault-free to record the device-op trace,
// then replayed once per enumerated fault site — every SSD write ordinal
// as a torn-write crash point, plus latent and transient media faults on
// every touched page of the SSD and each array member. Each replay is
// cross-checked against the reference model (acked writes survive any
// crash; in-flight writes resolve old-or-new and pin; recovery replay is
// idempotent; parity reconstructs everywhere; page checksums verify).
//
// The sweep is deterministic: pass the printed seed back via -seed to
// replay a violation exactly. Options that do not fit the checker's stack
// (a footprint past the array, a cache below one set) exit 2 before any
// run.
//
// Examples:
//
//	kddcheck -ci
//	kddcheck -ci -backend lsraid
//	kddcheck -seeds 4 -ops 400
//	kddcheck -seed 0xC0FFEE -seeds 1
package main

import (
	"flag"
	"fmt"
	"os"

	"kddcache/internal/check"
)

func main() {
	var (
		seed      = flag.Uint64("seed", 0, "master seed (0 = default 0xC0FFEE)")
		seeds     = flag.Int("seeds", 0, "seeds to explore (0 = default 2)")
		ops       = flag.Int("ops", 0, "workload operations per run (0 = default 200)")
		footprint = flag.Int64("footprint", 0, "distinct LBAs touched (0 = default 64)")
		cache     = flag.Int64("cachepages", 0, "SSD cache data pages (0 = default 128)")
		parallel  = flag.Int("parallel", 0, "worker-pool width for site replays; report is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		ci        = flag.Bool("ci", false, "deterministic CI mode: fixed small parameters, overrides -ops/-footprint; runs the single-core AND sharded sweeps")
		shardOnly = flag.Bool("shard", false, "run only the sharded-plane crash sweep (batched workload, crash points with multiple lanes' metadata batches in flight)")
		rebuild   = flag.Bool("rebuild", false, "rebuild-window scenario: kill a member mid-workload with a hot spare parked (RAID-6), so every crash point and fault site fires against an online rebuild")
		stride    = flag.Int("media-stride", 0, "sample every Nth member media-fault site (0/1 = exhaustive); crash and SSD sites are never strided — useful with -rebuild, where the rebuild touches every member page")
		backend   = flag.String("backend", "kdd", "array backend under the cache: kdd (parity RAID + delayed-parity protocol) or lsraid (log-structured, full-stripe appends)")
	)
	flag.Parse()
	for _, v := range []struct {
		name string
		val  int64
	}{{"seeds", int64(*seeds)}, {"ops", int64(*ops)}, {"footprint", *footprint}, {"cachepages", *cache}, {"media-stride", int64(*stride)}} {
		if v.val < 0 {
			fmt.Fprintf(os.Stderr, "kddcheck: -%s must be >= 0 (0 = default), got %d\n", v.name, v.val)
			os.Exit(2)
		}
	}

	o := check.Options{
		Seed:        *seed,
		Seeds:       *seeds,
		Ops:         *ops,
		Footprint:   *footprint,
		CachePages:  *cache,
		Parallel:    *parallel,
		Rebuild:     *rebuild,
		MediaStride: *stride,
		Backend:     *backend,
	}
	if *ci {
		o.Ops = 120
		o.Footprint = 48
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "kddcheck: %v\n", err)
		os.Exit(2)
	}
	failed := false
	report := func(rep *check.Report, replayFlag string) {
		fmt.Print(rep.Table())
		if len(rep.Violations()) > 0 {
			fmt.Printf("replay: kddcheck %s-seed %#x -seeds 1\n", replayFlag, rep.Results[0].Seed)
			failed = true
		}
	}
	if !*shardOnly {
		report(check.Run(o), "")
	}
	if *shardOnly || *ci {
		report(check.RunShard(o), "-shard ")
	}
	if failed {
		os.Exit(1)
	}
}
