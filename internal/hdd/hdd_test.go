package hdd

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

func testCfg() Config { return DefaultConfig(1 << 20) } // 4GB disk

func TestRandomAccessLatencyRange(t *testing.T) {
	d := New("hdd0", testCfg(), 1)
	rng := sim.NewRNG(2)
	var now sim.Time
	var total sim.Time
	const n = 2000
	for i := 0; i < n; i++ {
		lba := int64(rng.Uint64n(1 << 20))
		done, err := d.ReadPages(now, lba, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += done - now
		now = done
	}
	avg := float64(total) / n / float64(sim.Millisecond)
	// A random 4KB read on a 7.2k disk averages roughly seek(avg) +
	// rotation/2 ≈ 6–14 ms. The paper's Nossd latencies are in this range.
	if avg < 4 || avg > 16 {
		t.Fatalf("average random read latency = %.2fms, want 4–16ms", avg)
	}
}

func TestSequentialMuchFasterThanRandom(t *testing.T) {
	seq := New("seq", testCfg(), 1)
	var now sim.Time
	start := now
	for i := int64(0); i < 1000; i++ {
		done, err := seq.ReadPages(now, 1000+i, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	seqTime := now - start

	rnd := New("rnd", testCfg(), 1)
	rng := sim.NewRNG(3)
	now = 0
	for i := 0; i < 1000; i++ {
		done, err := rnd.ReadPages(now, int64(rng.Uint64n(1<<20)), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	if seqTime*20 > now {
		t.Fatalf("sequential (%v) should be >20x faster than random (%v)", seqTime, now)
	}
	if seq.SeqHits() < 990 {
		t.Fatalf("SeqHits = %d, want ~999", seq.SeqHits())
	}
}

func TestSeekTimeMonotonic(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	prev := sim.Time(-1)
	for _, dist := range []int64{0, 1, 100, 10000, 1 << 18, 1 << 20} {
		s := d.seekTime(dist)
		if s < prev {
			t.Fatalf("seek time not monotone at dist=%d: %v < %v", dist, s, prev)
		}
		prev = s
	}
	if d.seekTime(1<<20) > d.cfg.FullStroke {
		t.Fatal("full-stroke seek exceeds configured maximum")
	}
	if d.seekTime(-5000) != d.seekTime(5000) {
		t.Fatal("seek not symmetric in direction")
	}
}

func TestQueueingDelaysBackToBack(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	// Two requests arriving at the same instant must serialize.
	d1, _ := d.ReadPages(0, 500000, 1, nil)
	d2, _ := d.ReadPages(0, 10, 1, nil)
	if d2 <= d1 {
		t.Fatalf("second request (%v) should complete after first (%v)", d2, d1)
	}
}

func TestDataModeRoundTrip(t *testing.T) {
	d := NewData("hdd", testCfg(), 1)
	buf := bytes.Repeat([]byte{0x5C}, 3*blockdev.PageSize)
	if _, err := d.WritePages(0, 77, 3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*blockdev.PageSize)
	if _, err := d.ReadPages(0, 77, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("data round trip failed")
	}
	if d.Reads() != 1 || d.Writes() != 1 {
		t.Fatalf("counts %d/%d", d.Reads(), d.Writes())
	}
}

func TestRangeAndBufferChecks(t *testing.T) {
	d := New("hdd", testCfg(), 1)
	if _, err := d.ReadPages(0, 1<<20, 1, nil); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := d.WritePages(0, 0, 2, make([]byte, 5)); !errors.Is(err, blockdev.ErrBadBuffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() sim.Time {
		d := New("hdd", testCfg(), 42)
		rng := sim.NewRNG(7)
		var now sim.Time
		for i := 0; i < 500; i++ {
			now, _ = d.ReadPages(now, int64(rng.Uint64n(1<<20)), 1, nil)
		}
		return now
	}
	if mk() != mk() {
		t.Fatal("same seed produced different timings")
	}
}

func TestSqrtHelper(t *testing.T) {
	for _, x := range []float64{0, 1e-9, 0.25, 1, 2, 100} {
		got := sqrt(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("sqrt(%g) = %g, want %g", x, got, want)
		}
	}
}

// refSeek is the seek curve as the model defines it: the Newton root,
// truncated to the nanosecond.
func refSeek(cfg Config, dist int64) sim.Time {
	frac := float64(dist) / float64(cfg.Pages)
	if frac > 1 {
		frac = 1
	}
	span := float64(cfg.FullStroke - cfg.TrackToTrack)
	return cfg.TrackToTrack + sim.Time(span*sqrt(frac))
}

// TestSeekTimeMatchesNewtonExhaustive checks the math.Sqrt fast path
// against the Newton reference at every distance of every member size
// the harness and benchmark build, so the guard band is shown to catch
// every point where the two roots truncate differently.
func TestSeekTimeMatchesNewtonExhaustive(t *testing.T) {
	for _, pages := range []int64{4608, 4096, 20000, 300000, 1 << 20} {
		cfg := DefaultConfig(pages)
		d := New("hdd", cfg, 1)
		fallbacks := 0
		for dist := int64(1); dist <= pages; dist++ {
			want := refSeek(cfg, dist)
			if got := d.seekTime(dist); got != want {
				t.Fatalf("pages=%d dist=%d: seekTime = %d, Newton reference = %d", pages, dist, got, want)
			}
			span := float64(cfg.FullStroke - cfg.TrackToTrack)
			v := span * math.Sqrt(float64(dist)/float64(pages))
			if f := v - math.Floor(v); f <= seekGuard || f >= 1-seekGuard {
				fallbacks++
			}
		}
		t.Logf("pages=%d: %d of %d distances in the guard band", pages, fallbacks, pages)
	}
}

// TestSeekTimeGuardPoint pins a distance the tenants-lsraid workload
// reaches where math.Sqrt alone lands one nanosecond off the Newton
// curve: the guard band is what keeps it on the model.
func TestSeekTimeGuardPoint(t *testing.T) {
	cfg := DefaultConfig(4608)
	const dist = 800
	span := float64(cfg.FullStroke - cfg.TrackToTrack)
	naive := cfg.TrackToTrack + sim.Time(span*math.Sqrt(float64(dist)/float64(cfg.Pages)))
	want := refSeek(cfg, dist)
	if naive == want {
		t.Fatalf("math.Sqrt agrees with Newton at pages=4608 dist=800 (%d); the pinned point no longer exercises the guard", want)
	}
	if got := New("hdd", cfg, 1).seekTime(dist); got != want {
		t.Fatalf("seekTime(800) = %d, want Newton %d (math.Sqrt gives %d)", got, want, naive)
	}
}

// seekSink keeps BenchmarkSeekTime's results live.
var seekSink sim.Time

func BenchmarkSeekTime(b *testing.B) {
	d := New("hdd", DefaultConfig(4608), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seekSink += d.seekTime(int64(i%4608) + 1)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", Config{}, 1)
}

func TestWriteLatencySimilarToRead(t *testing.T) {
	d := New("hdd", testCfg(), 9)
	done, err := d.WritePages(0, 123456, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || done > 30*sim.Millisecond {
		t.Fatalf("single write latency %v outside sane range", done)
	}
	if d.BusyTime() != done {
		t.Fatalf("busy time %v != completion %v for single op on idle disk", d.BusyTime(), done)
	}
}
