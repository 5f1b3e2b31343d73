// Command harnessbench measures the experiment harness's serial vs
// parallel wall clock, verifies the outputs are byte-identical at both
// widths (the determinism contract of the fan-out runner), and bounds
// the observability overhead of the span tracer. Each run APPENDS one
// entry to a trajectory file (BENCH_harness.json by default) so the
// perf history across PRs is reviewable in one place; CI archives it.
// Each entry names its host (CPU model, core count, Go version,
// GOOS/GOARCH) so a reader compares numbers within one host class.
//
// GOMAXPROCS is raised to at least the pool width before timing: a
// parallel-vs-serial comparison on one scheduler thread measures
// nothing, and an overhead comparison starved of cores overstates the
// tracer's cost (the committed pre-fix entry shows exactly that:
// parallel=4 on gomaxprocs=1 reported a fictitious 70% overhead).
//
// With -gate the run also acts as a CI perf gate: it fails if any
// experiment's parallel output diverges from serial, if the traced
// overhead exceeds -max-overhead-pct, or if an experiment's serial
// wall clock regresses by more than -max-slowdown versus the last
// comparable trajectory entry (same scale, same width).
//
//	harnessbench -scale 0.01 -o BENCH_harness.json
//	harnessbench -scale 0.01 -o BENCH_harness.json -gate
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"kddcache/internal/check"
	"kddcache/internal/harness"
)

// experimentResult is one serial-vs-parallel comparison.
type experimentResult struct {
	Name        string  `json:"name"`
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
	Identical   bool    `json:"identical"`
}

// obsOverheadResult compares a traced vs untraced timing run.
type obsOverheadResult struct {
	UntracedSec float64 `json:"untraced_sec"`
	TracedSec   float64 `json:"traced_sec"`
	OverheadPct float64 `json:"overhead_pct"`
}

// saturationResult summarizes the sharded-plane saturation sweep: the
// sustained load per shard count and the headline scaling ratio the
// gate enforces.
type saturationResult struct {
	Sec           float64            `json:"sec"`
	SustainedIOPS map[string]float64 `json:"sustained_iops"`
	Scaling4x1    float64            `json:"scaling_4x1"`
}

// noisyResult summarizes the multi-tenant QoS experiment: how far the
// victims' p99 moves when an aggressor floods at 10x its budget, with
// and without the admission controller. The protected ratio is the
// isolation gate input; like the saturation sweep it is virtual-time
// deterministic and needs no trajectory baseline.
type noisyResult struct {
	Sec              float64 `json:"sec"`
	VictimP99Ratio   float64 `json:"victim_p99_ratio"`
	UnprotectedRatio float64 `json:"unprotected_ratio"`
}

// lsraidResult summarizes the backend head-to-head: small-write mean/p99
// and member write amplification for the parity backend versus the
// log-structured backend under the same cache and trace. Virtual-time
// deterministic, so it needs no trajectory baseline.
type lsraidResult struct {
	Sec         float64 `json:"sec"`
	KddP99Ms    float64 `json:"kdd_p99_ms"`
	LsP99Ms     float64 `json:"lsraid_p99_ms"`
	KddWriteAmp float64 `json:"kdd_write_amp"`
	LsWriteAmp  float64 `json:"lsraid_write_amp"`
}

// hostInfo identifies the machine an entry was measured on, so wall
// clocks are read against entries from the same host class. Entries
// written before it existed have no host.
type hostInfo struct {
	CPU       string `json:"cpu,omitempty"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// benchEntry is one trajectory point: a full harnessbench run.
type benchEntry struct {
	Time        string             `json:"time,omitempty"`
	Host        *hostInfo          `json:"host,omitempty"`
	Scale       float64            `json:"scale"`
	Parallel    int                `json:"parallel"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Experiments []experimentResult `json:"experiments"`
	ObsOverhead *obsOverheadResult `json:"obs_overhead,omitempty"`
	Saturation  *saturationResult  `json:"saturation,omitempty"`
	Noisy       *noisyResult       `json:"noisy,omitempty"`
	LSRaid      *lsraidResult      `json:"lsraid,omitempty"`
}

// benchFile is the BENCH_harness.json schema: a perf trajectory, newest
// entry last. (Earlier revisions stored a single bare entry; readEntries
// migrates those transparently.)
type benchFile struct {
	Entries []benchEntry `json:"entries"`
}

func main() {
	var (
		scale     = flag.Float64("scale", 0.01, "experiment scale factor")
		out       = flag.String("o", "BENCH_harness.json", "trajectory JSON file (appended to)")
		parallel  = flag.Int("parallel", 0, "parallel pool width to compare against serial (0 = GOMAXPROCS)")
		schedules = flag.Int("chaos-schedules", 8, "chaos schedules for the chaos comparison")
		ops       = flag.Int("chaos-ops", 300, "ops per chaos schedule")
		gate      = flag.Bool("gate", false, "fail on perf regressions vs the last comparable trajectory entry")
		maxOvh    = flag.Float64("max-overhead-pct", 15, "with -gate: max allowed traced-vs-untraced overhead")
		maxSlow   = flag.Float64("max-slowdown", 1.75, "with -gate: max allowed serial wall-clock ratio vs the last comparable entry")
		minScale  = flag.Float64("min-shard-scaling", 2.0, "with -gate: min sustained(shards=4)/sustained(shards=1) from the saturation sweep")
		maxVictim = flag.Float64("max-victim-ratio", 2.0, "with -gate: max allowed victim p99 ratio (protected vs isolated) from the noisy-neighbor experiment")
		keep      = flag.Int("keep", 50, "trajectory entries to retain (oldest dropped first; 0 = unlimited)")
	)
	flag.Parse()

	width := *parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	// A meaningful parallel arm needs at least `width` scheduler
	// threads; a meaningful overhead arm needs the run not to be
	// core-starved. Raise GOMAXPROCS rather than silently timing a
	// serialized "parallel" run.
	if runtime.GOMAXPROCS(0) < width {
		runtime.GOMAXPROCS(width)
	}
	entry := benchEntry{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Host:       currentHost(),
		Scale:      *scale,
		Parallel:   width,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// The noisy-neighbor run keeps its structured result around: the
	// victim-p99 isolation ratio feeds its own trajectory section and
	// the -max-victim-ratio gate (the ratio is deterministic, so it does
	// not matter which arm's result survives).
	var noisy *harness.NoisyResult
	var noisySec float64

	runs := []struct {
		name string
		run  func(par int) (string, error)
	}{
		{"fig6", func(par int) (string, error) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			return harness.Fig6(*scale)
		}},
		{"fig5", func(par int) (string, error) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			return harness.Fig5(*scale)
		}},
		{"chaos", func(par int) (string, error) {
			r := check.Chaos(check.ChaosOpts{
				Schedules: *schedules, Ops: *ops, Parallel: par,
			})
			return r.Table(), nil
		}},
		{"chaos-rebuild", func(par int) (string, error) {
			r := check.Chaos(check.ChaosOpts{
				Schedules: *schedules, Ops: *ops, Parallel: par,
				Kind: "disk-kill,rebuild-crash,double-kill",
			})
			return r.Table(), nil
		}},
		{"rebuild-impact", func(par int) (string, error) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			return harness.RebuildImpact(*scale)
		}},
		{"phases", func(par int) (string, error) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			return harness.PhaseBreakdown(*scale)
		}},
		{"noisy", func(par int) (string, error) {
			harness.SetParallelism(par)
			defer harness.SetParallelism(0)
			start := time.Now()
			r, err := harness.NoisyNeighborSweep(*scale)
			if err != nil {
				return "", err
			}
			noisy, noisySec = &r, time.Since(start).Seconds()
			return r.Table, nil
		}},
	}

	allIdentical := true
	for _, ex := range runs {
		serialOut, serialSec, err := timed(ex.run, 1)
		if err != nil {
			fatal(fmt.Errorf("%s serial: %w", ex.name, err))
		}
		parOut, parSec, err := timed(ex.run, width)
		if err != nil {
			fatal(fmt.Errorf("%s parallel: %w", ex.name, err))
		}
		r := experimentResult{
			Name:        ex.name,
			SerialSec:   serialSec,
			ParallelSec: parSec,
			Speedup:     serialSec / parSec,
			Identical:   serialOut == parOut,
		}
		allIdentical = allIdentical && r.Identical
		fmt.Printf("%-8s serial %6.2fs  parallel(%d) %6.2fs  speedup %.2fx  identical=%v\n",
			r.Name, r.SerialSec, width, r.ParallelSec, r.Speedup, r.Identical)
		entry.Experiments = append(entry.Experiments, r)
	}

	// Observability overhead: interleaved best-of-five traced vs
	// untraced timing runs. Interleaving (rather than all of one arm
	// then all of the other) keeps slow drift — page cache, thermal,
	// noisy neighbors — from landing entirely on one arm, and taking
	// the minimum of several rounds discards scheduling hiccups.
	var untraced, traced float64
	for i := 0; i < 5; i++ {
		u := timeOverhead(*scale, false)
		tr := timeOverhead(*scale, true)
		if i == 0 || u < untraced {
			untraced = u
		}
		if i == 0 || tr < traced {
			traced = tr
		}
	}
	entry.ObsOverhead = &obsOverheadResult{
		UntracedSec: untraced,
		TracedSec:   traced,
		OverheadPct: 100 * (traced - untraced) / untraced,
	}
	fmt.Printf("obs      untraced %5.2fs  traced %5.2fs  overhead %+.1f%%\n",
		untraced, traced, entry.ObsOverhead.OverheadPct)

	// Sharded-plane saturation sweep: sustained load per shard count and
	// the 4-vs-1 scaling ratio. The sweep's latency model is virtual-time
	// and deterministic, so the ratio is a stable gate input that needs
	// no trajectory baseline.
	satStart := time.Now()
	sat, err := harness.SaturationSweep(*scale)
	if err != nil {
		fatal(fmt.Errorf("saturation: %w", err))
	}
	entry.Saturation = &saturationResult{
		Sec:           time.Since(satStart).Seconds(),
		SustainedIOPS: map[string]float64{},
		Scaling4x1:    sat.Scaling4x1,
	}
	for n, iops := range sat.SustainedIOPS {
		entry.Saturation.SustainedIOPS[fmt.Sprintf("shards=%d", n)] = iops
	}
	fmt.Printf("satur.   %5.2fs  sustained(1) %.0f kIOPS  sustained(4) %.0f kIOPS  scaling %.2fx\n",
		entry.Saturation.Sec, sat.SustainedIOPS[1]/1000, sat.SustainedIOPS[4]/1000, sat.Scaling4x1)

	if noisy != nil {
		entry.Noisy = &noisyResult{
			Sec:              noisySec,
			VictimP99Ratio:   noisy.VictimP99Ratio,
			UnprotectedRatio: noisy.UnprotectedRatio,
		}
		fmt.Printf("noisy    %5.2fs  victim p99 ratio %.2fx (protected)  %.2fx (unprotected)\n",
			noisySec, noisy.VictimP99Ratio, noisy.UnprotectedRatio)
	}

	// Backend head-to-head: parity RAID vs the log-structured backend
	// on the small-write worst case.
	lsStart := time.Now()
	ls, err := harness.LSRaidCompareSweep(*scale)
	if err != nil {
		fatal(fmt.Errorf("lsraid-compare: %w", err))
	}
	entry.LSRaid = &lsraidResult{
		Sec:         time.Since(lsStart).Seconds(),
		KddP99Ms:    ls.KddP99Ms,
		LsP99Ms:     ls.LsP99Ms,
		KddWriteAmp: ls.KddWriteAmp,
		LsWriteAmp:  ls.LsWriteAmp,
	}
	fmt.Printf("lsraid   %5.2fs  p99 %.2fms vs %.2fms (kdd vs lsraid)  write amp %.2f vs %.2f\n",
		entry.LSRaid.Sec, ls.KddP99Ms, ls.LsP99Ms, ls.KddWriteAmp, ls.LsWriteAmp)

	prev := readEntries(*out)
	var gateErrs []error
	if *gate {
		gateErrs = checkGate(entry, lastComparable(prev, entry), *maxOvh, *maxSlow, *minScale, *maxVictim)
	}

	all := append(prev, entry)
	if *keep > 0 && len(all) > *keep {
		all = all[len(all)-*keep:]
	}
	writeEntries(*out, all)
	fmt.Printf("wrote %s (%d entries)\n", *out, len(all))

	if !allIdentical {
		fatal(fmt.Errorf("parallel output differs from serial output"))
	}
	for _, err := range gateErrs {
		fmt.Fprintln(os.Stderr, "harnessbench: GATE:", err)
	}
	if len(gateErrs) > 0 {
		os.Exit(1)
	}
}

// currentHost describes the running machine. The CPU model comes from
// /proc/cpuinfo and is left empty where that file does not exist.
func currentHost() *hostInfo {
	h := &hostInfo{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		h.CPU = cpuModel(f)
		f.Close()
	}
	return h
}

// cpuModel returns the first "model name" value of a /proc/cpuinfo
// listing, or "" when there is none.
func cpuModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// timeOverhead runs one arm of the obs-overhead comparison.
func timeOverhead(scale float64, traced bool) float64 {
	start := time.Now()
	if err := harness.ObsOverheadRun(scale, traced); err != nil {
		fatal(fmt.Errorf("obs overhead (traced=%v): %w", traced, err))
	}
	return time.Since(start).Seconds()
}

// readEntries loads the existing trajectory, migrating the legacy
// single-object schema (one bare benchEntry) to a one-entry history.
// A missing or unreadable file is an empty trajectory, never an error:
// the bench must be runnable from a clean checkout.
func readEntries(path string) []benchEntry {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err == nil && f.Entries != nil {
		return f.Entries
	}
	var legacy benchEntry
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Experiments) > 0 {
		return []benchEntry{legacy}
	}
	fmt.Fprintf(os.Stderr, "harnessbench: %s is not a trajectory file; starting fresh\n", path)
	return nil
}

func writeEntries(path string, entries []benchEntry) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchFile{Entries: entries}); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// lastComparable returns the newest prior entry measured at the same
// scale and pool width with a sane GOMAXPROCS, or nil. Wall-clock
// comparisons across different scales or widths are meaningless, and
// entries timed with GOMAXPROCS below the pool width (the pre-fix
// committed entry) mis-measured both arms.
func lastComparable(prev []benchEntry, cur benchEntry) *benchEntry {
	for i := len(prev) - 1; i >= 0; i-- {
		e := prev[i]
		if e.Scale == cur.Scale && e.Parallel == cur.Parallel && e.GOMAXPROCS >= e.Parallel {
			return &e
		}
	}
	return nil
}

// checkGate applies the perf-gate rules to the fresh entry.
func checkGate(cur benchEntry, base *benchEntry, maxOvh, maxSlow, minScaling, maxVictim float64) []error {
	var errs []error
	if o := cur.ObsOverhead; o != nil && o.OverheadPct > maxOvh {
		errs = append(errs, fmt.Errorf("traced overhead %+.1f%% exceeds budget %.1f%%",
			o.OverheadPct, maxOvh))
	}
	if s := cur.Saturation; s != nil && s.Scaling4x1 < minScaling {
		errs = append(errs, fmt.Errorf("saturation scaling 4/1 = %.2fx below the %.2fx floor",
			s.Scaling4x1, minScaling))
	}
	if n := cur.Noisy; n != nil {
		if n.VictimP99Ratio > maxVictim {
			errs = append(errs, fmt.Errorf("noisy-neighbor victim p99 ratio %.2fx exceeds the %.2fx isolation budget",
				n.VictimP99Ratio, maxVictim))
		}
		if n.UnprotectedRatio <= n.VictimP99Ratio {
			errs = append(errs, fmt.Errorf("noisy-neighbor unprotected ratio %.2fx not worse than protected %.2fx; the QoS layer bought nothing",
				n.UnprotectedRatio, n.VictimP99Ratio))
		}
	}
	if base == nil {
		fmt.Println("gate: no comparable trajectory entry (same scale/parallel); absolute checks only")
		return errs
	}
	for _, b := range base.Experiments {
		for _, c := range cur.Experiments {
			if c.Name != b.Name || b.SerialSec <= 0 {
				continue
			}
			if ratio := c.SerialSec / b.SerialSec; ratio > maxSlow {
				errs = append(errs, fmt.Errorf("%s serial %.2fs is %.2fx the last comparable entry (%.2fs), budget %.2fx",
					c.Name, c.SerialSec, ratio, b.SerialSec, maxSlow))
			}
		}
	}
	return errs
}

// timed runs f at the given pool width and returns its output and seconds.
func timed(f func(par int) (string, error), par int) (string, float64, error) {
	start := time.Now()
	out, err := f(par)
	return out, time.Since(start).Seconds(), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harnessbench:", err)
	os.Exit(1)
}
