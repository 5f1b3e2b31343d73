//go:build !kddbug

package check

import (
	"strings"
	"testing"
)

// TestCheckerCIMode is the deterministic CI sweep: two seeds, every crash
// point and media-fault site enumerated from the profile trace, zero
// violations expected. It also asserts the sweep had teeth — sites were
// actually enumerated and every armed crash point actually fired — and
// pins the rendered report to its golden.
func TestCheckerCIMode(t *testing.T) {
	o, golden := Options{Seeds: 2, Ops: 120, Footprint: 48}, "checker_ci.golden"
	if testing.Short() {
		// One seed and a smaller workload: the -race sweep in CI runs with
		// -short, where the full site fan-out is ~20x slower than native.
		o, golden = Options{Seeds: 1, Ops: 80, Footprint: 32}, "checker_ci_short.golden"
	}
	rep := Run(o)
	if v := rep.Violations(); len(v) > 0 {
		max := len(v)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d violations (showing %d):\n%s", len(v), max, joinLines(v[:max]))
	}
	checkGolden(t, golden, rep.Table())
	for _, res := range rep.Results {
		if res.CrashSites == 0 {
			t.Errorf("seed %#x: no crash sites enumerated", res.Seed)
		}
		if res.MediaSites == 0 {
			t.Errorf("seed %#x: no media-fault sites enumerated", res.Seed)
		}
		if res.KillSites == 0 {
			t.Errorf("seed %#x: no whole-SSD fail-stop sites enumerated", res.Seed)
		}
		if res.Crashes != res.CrashSites {
			t.Errorf("seed %#x: %d crashes recovered but %d crash sites armed",
				res.Seed, res.Crashes, res.CrashSites)
		}
	}
}

// TestCheckerRebuildScenario sweeps every crash point and fault site
// against a stack that is rebuilding a killed member online: crash sites
// inside the rebuild window must resume from the NVRAM checkpoint (twice,
// with equal digests), and no site may cost data despite the member hole.
func TestCheckerRebuildScenario(t *testing.T) {
	o := Options{Seeds: 2, Ops: 120, Footprint: 48, Rebuild: true}
	if testing.Short() {
		// One seed, and member media sites sampled 1-in-12: the rebuild
		// touches every page of every member, so the exhaustive member
		// fault fan-out alone is ~2500 replays — far past the -race CI
		// budget. Crash sites (the checkpoint/resume coverage this
		// scenario exists for) stay exhaustive.
		o = Options{Seeds: 1, Ops: 90, Footprint: 32, Rebuild: true, MediaStride: 12}
	}
	rep := Run(o)
	if v := rep.Violations(); len(v) > 0 {
		max := len(v)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d violations (showing %d):\n%s", len(v), max, joinLines(v[:max]))
	}
	for _, res := range rep.Results {
		if res.CrashSites == 0 {
			t.Errorf("seed %#x: no crash sites enumerated", res.Seed)
		}
		if res.Crashes != res.CrashSites {
			t.Errorf("seed %#x: %d crashes recovered but %d crash sites armed",
				res.Seed, res.Crashes, res.CrashSites)
		}
	}
}

// TestCheckerDeterministic: the same options must produce the identical
// report — the replay-from-seed promise printed on failure depends on it.
func TestCheckerDeterministic(t *testing.T) {
	o := Options{Seeds: 1, Ops: 60, Footprint: 32}
	a, b := Run(o), Run(o)
	if a.Table() != b.Table() {
		t.Fatalf("reports diverge:\n--- first\n%s--- second\n%s", a.Table(), b.Table())
	}
}

func joinLines(v []string) string {
	out := ""
	for _, s := range v {
		out += "  " + s + "\n"
	}
	return out
}

// TestShardCheckerLSRaid runs the sharded sweep over the log-structured
// backend: the plane's crash recovery must also replay the array's L2P
// map idempotently.
func TestShardCheckerLSRaid(t *testing.T) {
	rep := RunShard(Options{Seeds: 1, Ops: 96, Footprint: 32, Backend: "lsraid"})
	if v := rep.Violations(); len(v) > 0 {
		t.Fatalf("%d violations:\n%s", len(v), joinLines(v))
	}
	if res := rep.Results[0]; res.CrashSites == 0 || res.Crashes != res.CrashSites {
		t.Fatalf("%d crashes recovered for %d crash sites", res.Crashes, res.CrashSites)
	}
}

// TestValidateRejectsBadOptions pins the option checks the CLIs run
// before a sweep: unchecked, each bad row panics mid-run or reports
// thousands of spurious violations.
func TestValidateRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string // substring of the error; "" = valid
	}{
		{"checker defaults", Options{}.Validate(), ""},
		{"checker lsraid", Options{Backend: "lsraid"}.Validate(), ""},
		{"checker rebuild", Options{Rebuild: true}.Validate(), ""},
		{"checker cache below a set", Options{CachePages: 4}.Validate(), "below one set"},
		{"checker footprint past the array", Options{Footprint: 5000}.Validate(), "exceeds the 768-page array"},
		{"checker lsraid footprint past the array", Options{Footprint: 700, Backend: "lsraid"}.Validate(), "exceeds"},
		{"checker negative footprint", Options{Footprint: -1}.Validate(), "at least 1 page"},
		{"checker unknown backend", Options{Backend: "raid0"}.Validate(), "unknown backend"},
		{"checker rebuild on lsraid", Options{Rebuild: true, Backend: "lsraid"}.Validate(), "rebuild scenario"},
		{"chaos defaults", ChaosOpts{}.Validate(), ""},
		{"chaos one kind", ChaosOpts{Kind: "ssd-kill", CachePages: 64}.Validate(), ""},
		{"chaos footprint without a hot eighth", ChaosOpts{Footprint: 5}.Validate(), "hot eighth"},
		{"chaos footprint past the array", ChaosOpts{Footprint: 5000}.Validate(), "exceeds the 4096-page array"},
		{"chaos cache below a set", ChaosOpts{CachePages: 4}.Validate(), "below one set"},
		{"chaos lane cache below a set", ChaosOpts{CachePages: 64}.Validate(), "lane cache"},
		{"chaos unknown kind", ChaosOpts{Kind: "ssd-kill,disk-melt"}.Validate(), `"disk-melt"`},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}
