package check

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// checkGolden pins a rendered report byte for byte: the tables carry the
// fingerprints and trace digests, so any drift in the op stream, the
// fault plans or the engine shows up here.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("report differs from %s (run with -update after an intended change):\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestChaos runs the full default chaos suite: at least 20 distinct
// seeded fault schedules, each executed twice (determinism), with zero
// invariant violations and zero undetected corruption, and a report
// byte-identical to the committed golden (the determinism contract
// across commits).
func TestChaos(t *testing.T) {
	rep := Chaos(ChaosOpts{})
	if len(rep.Results) < 20 {
		t.Fatalf("want >= 20 schedules, got %d", len(rep.Results))
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	checkGolden(t, "chaos.golden", rep.Table())

	kinds := make(map[string]bool)
	var crashes, unrec int
	var detected, repaired int64
	for _, res := range rep.Results {
		kinds[res.Kind] = true
		crashes += res.Crashes
		detected += res.Detected
		repaired += res.Repaired
		unrec += res.Unrecoverable
		if res.Unrecoverable > 0 && res.Kind != "unrecoverable" {
			t.Errorf("schedule %d (%s): unexpected unrecoverable rows", res.Schedule, res.Kind)
		}
	}
	for _, plan := range chaosPlans {
		if !kinds[plan.kind] {
			t.Errorf("plan %q never ran", plan.kind)
		}
	}
	if crashes == 0 {
		t.Error("no crash was injected across all schedules")
	}
	if detected == 0 {
		t.Error("no media error was detected across all schedules")
	}
	if repaired == 0 {
		t.Error("nothing was repaired across all schedules")
	}
	if unrec == 0 {
		t.Error("the unrecoverable plan reported no unrecoverable rows")
	}
}

// TestChaosSSD runs only the whole-SSD-failure plans: fail-stop kill,
// kill landing mid-clean, a breaker-tripping media storm, and
// reattach-then-rekill. `make chaos-ssd` runs this under the race
// detector; the acceptance bar is zero user-visible errors while the
// RAID members stay healthy.
func TestChaosSSD(t *testing.T) {
	const kinds = "ssd-kill,ssd-kill-clean,ssd-breaker,ssd-reattach"
	rep := Chaos(ChaosOpts{Kind: kinds, Schedules: 8})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	seen := make(map[string]bool)
	var failovers, reattaches int64
	for _, res := range rep.Results {
		seen[res.Kind] = true
		failovers += res.Failovers
		reattaches += res.Reattaches
	}
	for _, k := range strings.Split(kinds, ",") {
		if !seen[k] {
			t.Errorf("plan %q never ran", k)
		}
	}
	if failovers == 0 {
		t.Error("no cache failover engaged across the SSD-failure schedules")
	}
	if reattaches == 0 {
		t.Error("no reattach completed")
	}
}

// TestChaosRebuild runs only the rebuild-window plans: a member kill with
// a hot spare (the pump attaches and paces the rebuild under load), power
// losses landing inside the rebuild window (recovery resumes from the
// NVRAM checkpoint), and a second member kill mid-window on RAID-6.
// `make chaos-rebuild` runs this under the race detector; the acceptance
// bar is full redundancy, zero lost rows, and deterministic fingerprints.
func TestChaosRebuild(t *testing.T) {
	const kinds = "disk-kill,rebuild-crash,double-kill"
	rep := Chaos(ChaosOpts{Kind: kinds, Schedules: 9})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	seen := make(map[string]bool)
	var attaches, rows int64
	var crashes int
	for _, res := range rep.Results {
		seen[res.Kind] = true
		attaches += res.SpareAttaches
		rows += res.RebuildRows
		crashes += res.Crashes
	}
	for _, k := range strings.Split(kinds, ",") {
		if !seen[k] {
			t.Errorf("plan %q never ran", k)
		}
	}
	if attaches == 0 {
		t.Error("no spare was attached across the rebuild schedules")
	}
	if rows == 0 {
		t.Error("no rebuild rows were pumped across the rebuild schedules")
	}
	if crashes == 0 {
		t.Error("no crash landed inside a rebuild window")
	}
}

// TestChaosLaneKill runs only the sharded-plane lane-kill plan: one
// lane's slice of the SSD fail-stops mid-batch, that lane alone must
// fold to pass-through with zero user-visible errors, and the other
// seven lanes keep serving from cache. `make qos-test` runs this under
// the race detector alongside the noisy-neighbor isolation proof.
func TestChaosLaneKill(t *testing.T) {
	rep := Chaos(ChaosOpts{Kind: "ssd-lane-kill", Schedules: 6})
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("%d violations:\n%s", len(v), strings.Join(v, "\n"))
	}
	if len(rep.Results) != 6 {
		t.Fatalf("got %d schedules, want 6", len(rep.Results))
	}
	for _, res := range rep.Results {
		if res.Kind != "ssd-lane-kill" {
			t.Fatalf("schedule %d ran plan %q", res.Schedule, res.Kind)
		}
		// Exactly one failover per schedule: the killed lane and only the
		// killed lane left the cache path.
		if res.Failovers != 1 {
			t.Errorf("schedule %d: %d failovers, want exactly 1", res.Schedule, res.Failovers)
		}
	}
}

// TestChaosSeedSensitivity checks that different master seeds change the
// schedule fingerprints (the fault streams really are seed-driven).
func TestChaosSeedSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("two extra chaos runs")
	}
	a := Chaos(ChaosOpts{Schedules: len(chaosPlans), Seed: 1})
	b := Chaos(ChaosOpts{Schedules: len(chaosPlans), Seed: 2})
	same := 0
	for i := range a.Results {
		if a.Results[i].Fingerprint == b.Results[i].Fingerprint {
			same++
		}
	}
	if same == len(a.Results) {
		t.Error("fingerprints identical across different master seeds")
	}
}

// TestChaosDeterministicAcrossParallelism runs a small chaos batch
// serially and in parallel; the rendered table (fingerprints included)
// must match byte for byte.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	opts := ChaosOpts{Schedules: 4, Ops: 160, Parallel: 1}
	serial := Chaos(opts).Table()
	opts.Parallel = 4
	parallel := Chaos(opts).Table()
	if serial != parallel {
		t.Fatalf("chaos table differs between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if v := Chaos(opts).Violations(); len(v) != 0 {
		t.Fatalf("chaos violations: %v", v)
	}
}
