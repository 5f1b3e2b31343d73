// Command kddchaos runs the chaos harness: randomized, seeded
// partial-fault schedules (latent media errors, transient glitches,
// silent bit-rot, torn-write crashes, fail-stop disk loss) over the full
// KDD cache + RAID-5 stack, verifying end-to-end integrity, cache
// invariants, and parity correctness after every schedule. Every schedule
// is run twice and must be bit-identical — pass the same -seed to
// reproduce a failure exactly. Options that do not fit the schedules'
// stacks (a footprint without a hot eighth or past the array, a cache
// below one set, an unknown -kind) exit 2 before any run.
//
// Examples:
//
//	kddchaos
//	kddchaos -schedules 40 -ops 2000 -seed 0xDEAD
package main

import (
	"flag"
	"fmt"
	"os"

	"kddcache/internal/check"
)

func main() {
	var (
		schedules = flag.Int("schedules", 0, "number of fault schedules (0 = default 24)")
		ops       = flag.Int("ops", 0, "workload operations per schedule (0 = default 500)")
		footprint = flag.Int64("footprint", 0, "distinct LBAs touched (0 = default 640)")
		cache     = flag.Int64("cachepages", 0, "SSD cache data pages (0 = default 512)")
		seed      = flag.Uint64("seed", 0, "master seed (0 = default)")
		parallel  = flag.Int("parallel", 0, "worker-pool width for schedules; report is identical at any width (0 = GOMAXPROCS, 1 = serial)")
		kind      = flag.String("kind", "", "comma-separated plan kinds to run, e.g. ssd-kill,ssd-reattach (empty = all)")
	)
	flag.Parse()
	for _, v := range []struct {
		name string
		val  int64
	}{{"schedules", int64(*schedules)}, {"ops", int64(*ops)}, {"footprint", *footprint}, {"cachepages", *cache}} {
		if v.val < 0 {
			fmt.Fprintf(os.Stderr, "kddchaos: -%s must be >= 0 (0 = default), got %d\n", v.name, v.val)
			os.Exit(2)
		}
	}
	if *ops > 0 && *ops < 50 {
		fmt.Fprintf(os.Stderr, "kddchaos: warning: -ops %d under-samples the fault plans; some schedules may fail their fault-surfaced assertions\n", *ops)
	}

	o := check.ChaosOpts{
		Schedules:  *schedules,
		Ops:        *ops,
		Footprint:  *footprint,
		CachePages: *cache,
		Seed:       *seed,
		Parallel:   *parallel,
		Kind:       *kind,
	}
	if err := o.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "kddchaos: %v\n", err)
		os.Exit(2)
	}
	rep := check.Chaos(o)
	fmt.Print(rep.Table())
	if len(rep.Violations()) > 0 {
		os.Exit(1)
	}
}
