package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func entry(scale float64, par, maxprocs int, ovh float64, exps ...experimentResult) benchEntry {
	return benchEntry{
		Scale:       scale,
		Parallel:    par,
		GOMAXPROCS:  maxprocs,
		Experiments: exps,
		ObsOverhead: &obsOverheadResult{OverheadPct: ovh},
	}
}

func TestTrajectoryRoundTripAndLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")

	if got := readEntries(path); got != nil {
		t.Fatalf("missing file read as %d entries, want none", len(got))
	}

	// Legacy schema: a single bare entry object at top level.
	legacy := `{"scale":0.008,"parallel":4,"gomaxprocs":1,
		"experiments":[{"name":"fig6","serial_sec":4,"parallel_sec":3.9,"speedup":1.02,"identical":true}],
		"obs_overhead":{"untraced_sec":0.12,"traced_sec":0.2,"overhead_pct":69.7}}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := readEntries(path)
	if len(entries) != 1 || entries[0].Scale != 0.008 || entries[0].Parallel != 4 {
		t.Fatalf("legacy migration read %+v", entries)
	}

	entries = append(entries, entry(0.01, 1, 1, 5.3,
		experimentResult{Name: "fig6", SerialSec: 4.5, ParallelSec: 4.6, Speedup: 0.98, Identical: true}))
	writeEntries(path, entries)
	got := readEntries(path)
	if len(got) != 2 || got[0].Scale != 0.008 || got[1].Scale != 0.01 {
		t.Fatalf("round trip read %+v", got)
	}
	if got[1].ObsOverhead == nil || got[1].ObsOverhead.OverheadPct != 5.3 {
		t.Fatalf("overhead lost in round trip: %+v", got[1].ObsOverhead)
	}

	// Garbage files start a fresh trajectory instead of failing the bench.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readEntries(path); got != nil {
		t.Fatalf("garbage file read as %d entries, want none", len(got))
	}
}

// Entries carry the host they were measured on; entries written before
// the field existed still decode, with no host.
func TestHostIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	legacy := `{"entries":[{"time":"2026-01-01T00:00:00Z","scale":0.01,"parallel":1,"gomaxprocs":1,
		"experiments":[{"name":"fig6","serial_sec":4,"parallel_sec":4,"speedup":1,"identical":true}]}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := readEntries(path)
	if len(entries) != 1 || entries[0].Host != nil || len(entries[0].Experiments) != 1 {
		t.Fatalf("legacy entry without host read as %+v", entries)
	}

	cur := entry(0.01, 1, 1, 4)
	cur.Host = currentHost()
	if cur.Host.NProc < 1 || cur.Host.GoVersion == "" || cur.Host.GOOS == "" || cur.Host.GOARCH == "" {
		t.Fatalf("currentHost() = %+v", cur.Host)
	}
	writeEntries(path, append(entries, cur))
	got := readEntries(path)
	if len(got) != 2 || got[0].Host != nil || got[1].Host == nil || *got[1].Host != *cur.Host {
		t.Fatalf("host lost in round trip: %+v", got)
	}
}

func TestCPUModel(t *testing.T) {
	cpuinfo := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\n\n" +
		"processor\t: 1\nmodel name\t: Intel(R) Xeon(R) Processor\n"
	if got := cpuModel(strings.NewReader(cpuinfo)); got != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpuModel = %q", got)
	}
	if got := cpuModel(strings.NewReader("processor\t: 0\nHardware\t: BCM2835\n")); got != "" {
		t.Fatalf("cpuModel without a model name = %q, want empty", got)
	}
}

func TestLastComparable(t *testing.T) {
	cur := entry(0.01, 4, 4, 5)
	prev := []benchEntry{
		entry(0.01, 4, 4, 8),  // comparable, but an older one
		entry(0.008, 4, 4, 8), // different scale
		entry(0.01, 2, 4, 8),  // different width
		entry(0.01, 4, 1, 70), // core-starved: gomaxprocs < parallel
		entry(0.01, 4, 4, 6),  // newest comparable — the one to pick
	}
	base := lastComparable(prev, cur)
	if base == nil || base.ObsOverhead.OverheadPct != 6 {
		t.Fatalf("lastComparable = %+v, want the newest same-scale same-width entry", base)
	}
	if got := lastComparable(prev[1:4], cur); got != nil {
		t.Fatalf("lastComparable over incomparable entries = %+v, want nil", got)
	}
}

func TestCheckGate(t *testing.T) {
	base := entry(0.01, 1, 1, 6,
		experimentResult{Name: "fig6", SerialSec: 4.0},
		experimentResult{Name: "fig5", SerialSec: 5.0})

	ok := entry(0.01, 1, 1, 8,
		experimentResult{Name: "fig6", SerialSec: 4.4},
		experimentResult{Name: "fig5", SerialSec: 5.1})
	if errs := checkGate(ok, &base, 15, 1.75, 2.0, 2.0); len(errs) != 0 {
		t.Fatalf("healthy run failed the gate: %v", errs)
	}

	slow := entry(0.01, 1, 1, 8,
		experimentResult{Name: "fig6", SerialSec: 8.0}, // 2x the base
		experimentResult{Name: "fig5", SerialSec: 5.0})
	if errs := checkGate(slow, &base, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("2x serial regression produced %d gate errors, want 1: %v", len(errs), errs)
	}

	hot := entry(0.01, 1, 1, 22,
		experimentResult{Name: "fig6", SerialSec: 4.0})
	if errs := checkGate(hot, &base, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("22%% overhead produced %d gate errors, want 1: %v", len(errs), errs)
	}

	// No comparable base: absolute checks still apply, ratios don't.
	if errs := checkGate(slow, nil, 15, 1.75, 2.0, 2.0); len(errs) != 0 {
		t.Fatalf("baseless run failed ratio checks: %v", errs)
	}
	if errs := checkGate(hot, nil, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("baseless overheated run produced %d gate errors, want 1: %v", len(errs), errs)
	}

	// Saturation scaling below the floor fails the gate even without a
	// comparable base (the sweep is deterministic; no baseline needed).
	flat := ok
	flat.Saturation = &saturationResult{Scaling4x1: 1.4}
	if errs := checkGate(flat, nil, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("1.4x shard scaling produced %d gate errors, want 1: %v", len(errs), errs)
	}
	scaled := ok
	scaled.Saturation = &saturationResult{Scaling4x1: 3.3}
	if errs := checkGate(scaled, &base, 15, 1.75, 2.0, 2.0); len(errs) != 0 {
		t.Fatalf("3.3x shard scaling failed the gate: %v", errs)
	}

	// Noisy-neighbor isolation is absolute too: a victim p99 ratio over
	// the budget fails, and so does an unprotected arm that is not
	// strictly worse than the protected one (the experiment would no
	// longer demonstrate interference being prevented).
	leaky := ok
	leaky.Noisy = &noisyResult{VictimP99Ratio: 2.6, UnprotectedRatio: 40}
	if errs := checkGate(leaky, nil, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("2.6x victim ratio produced %d gate errors, want 1: %v", len(errs), errs)
	}
	pointless := ok
	pointless.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 1.5}
	if errs := checkGate(pointless, nil, 15, 1.75, 2.0, 2.0); len(errs) != 1 {
		t.Fatalf("flat unprotected arm produced %d gate errors, want 1: %v", len(errs), errs)
	}
	isolated := ok
	isolated.Noisy = &noisyResult{VictimP99Ratio: 1.5, UnprotectedRatio: 40}
	if errs := checkGate(isolated, &base, 15, 1.75, 2.0, 2.0); len(errs) != 0 {
		t.Fatalf("healthy noisy-neighbor result failed the gate: %v", errs)
	}
}
