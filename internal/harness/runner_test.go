package harness

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
)

// TestFanOutOrderAndWidths checks results land in submission order at
// every pool width, including widths above the job count.
func TestFanOutOrderAndWidths(t *testing.T) {
	const n = 37
	for _, par := range []int{1, 2, 3, 8, 64} {
		got, err := fanOutN(par, n, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if len(got) != n {
			t.Fatalf("parallel=%d: got %d results", par, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

// TestFanOutReturnsLowestIndexError checks the parallel error matches what
// a serial run would report: the lowest-numbered failing job wins, even
// when a later job fails first in wall-clock time.
func TestFanOutReturnsLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	for _, par := range []int{1, 4} {
		_, err := fanOutN(par, 16, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 11:
				return 0, errors.New("high")
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("parallel=%d: got %v, want the lowest-index error", par, err)
		}
	}
}

// TestFanOutCancelsAfterError checks a failure stops the pool from
// starting the long tail of remaining jobs.
func TestFanOutCancelsAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := fanOutN(2, 10_000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	// Worker 2 may race a handful of jobs past the failure flag, but the
	// overwhelming majority must never start.
	if s := started.Load(); s > 1000 {
		t.Fatalf("%d jobs started after the failure; cancellation is broken", s)
	}
}

// countingPolicy records Clean invocations; everything else is inert.
type countingPolicy struct {
	cleans int
	st     stats.CacheStats
}

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Read(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return t, nil
}
func (p *countingPolicy) Write(t sim.Time, lba int64, buf []byte) (sim.Time, error) {
	return t, nil
}
func (p *countingPolicy) Clean(t sim.Time, force bool) (sim.Time, error) {
	p.cleans++
	return t, nil
}
func (p *countingPolicy) Flush(t sim.Time) (sim.Time, error) { return t, nil }
func (p *countingPolicy) Stats() *stats.CacheStats           { return &p.st }

// TestRunTraceNoIdleCleanBeforeFirstRequest is the regression test for the
// spurious time-zero cleaner pass: prev starts at 0, so a trace whose
// first request arrives later than IdleCleanGap used to trigger an idle
// clean before any request had been issued.
func TestRunTraceNoIdleCleanBeforeFirstRequest(t *testing.T) {
	late := IdleCleanGap * 10
	mk := func(times ...sim.Time) *trace.Trace {
		tr := &trace.Trace{}
		for _, at := range times {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: at, Op: trace.Read, LBA: 0, Pages: 1,
			})
		}
		return tr
	}

	p := &countingPolicy{}
	if _, err := RunTrace(&Stack{Policy: p}, mk(late, late+sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if p.cleans != 0 {
		t.Fatalf("late-starting trace triggered %d idle cleans before/within a gapless run", p.cleans)
	}

	// A genuine idle gap between two requests must still trigger one.
	p = &countingPolicy{}
	if _, err := RunTrace(&Stack{Policy: p}, mk(late, late*3)); err != nil {
		t.Fatal(err)
	}
	if p.cleans != 1 {
		t.Fatalf("mid-trace idle gap triggered %d cleans, want 1", p.cleans)
	}
}

// TestExperimentsDeterministicAcrossParallelism is the tentpole's
// acceptance test: a representative sweep experiment (Fig6) must render
// byte-identical output serially and at several pool widths.
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	defer SetParallelism(0)

	SetParallelism(1)
	serial, err := Fig6(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		SetParallelism(par)
		got, err := Fig6(tinyScale)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if got != serial {
			t.Fatalf("fig6 output differs between -parallel 1 and -parallel %d:\n--- serial ---\n%s\n--- parallel ---\n%s",
				par, serial, got)
		}
	}
}

// TestParallelismKnob pins the SetParallelism/Parallelism contract.
func TestParallelismKnob(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", got)
	}
	SetParallelism(-5)
	if got := Parallelism(); got < 1 {
		t.Fatalf("Parallelism() = %d after reset; want >= 1", got)
	}
	// Sanity: the pool actually works at the configured width.
	out, err := fanOut(5, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil || len(out) != 5 {
		t.Fatalf("fanOut under knob: %v %v", out, err)
	}
}
