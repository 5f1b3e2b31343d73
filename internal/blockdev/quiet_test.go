package blockdev

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// quietRow is one row of TestQuietTracksArmedState: a mutator that arms
// fault state, the I/O that meets it, and a route that disarms it again.
type quietRow struct {
	name  string
	arm   func(f *FaultInjector)
	io    func(t *testing.T, f *FaultInjector) []string
	clear func(t *testing.T, f *FaultInjector)
}

// qRead and qWrite issue one op and render its outcome — completion
// time, error and (for reads) the first byte of every page — so two runs
// can be compared op for op.
func qRead(f *FaultInjector, lba int64, n int) string {
	buf := make([]byte, n*PageSize)
	done, err := f.ReadPages(5, lba, n, buf)
	firsts := make([]byte, n)
	for i := range firsts {
		firsts[i] = buf[i*PageSize]
	}
	return fmt.Sprintf("read %d+%d done=%d err=%v data=%x", lba, n, done, err, firsts)
}

func qWrite(f *FaultInjector, lba int64, n int, b byte) string {
	done, err := f.WritePages(5, lba, n, bytes.Repeat([]byte{b}, n*PageSize))
	return fmt.Sprintf("write %d+%d done=%d err=%v", lba, n, done, err)
}

func qTrim(f *FaultInjector, lba int64, n int) string {
	done, err := f.TrimPages(5, lba, n)
	return fmt.Sprintf("trim %d+%d done=%d err=%v", lba, n, done, err)
}

// wantErr fails unless the rendered outcome carries target's message
// (nil: success).
func wantErr(t *testing.T, got string, target error) {
	t.Helper()
	if target == nil {
		if !strings.Contains(got, "err=<nil>") {
			t.Fatalf("%s: want success", got)
		}
		return
	}
	if !strings.Contains(got, target.Error()) {
		t.Fatalf("%s: want %v", got, target)
	}
}

func quietRows() []quietRow {
	return []quietRow{
		{
			name: "FailRange/Repair",
			arm:  func(f *FaultInjector) { f.FailRange(4, 2) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r, w, tr, ok := qRead(f, 5, 1), qWrite(f, 3, 2, 9), qTrim(f, 4, 1), qRead(f, 6, 1)
				wantErr(t, r, ErrFailed)
				wantErr(t, w, ErrFailed)
				wantErr(t, tr, ErrFailed)
				wantErr(t, ok, nil)
				return []string{r, w, tr, ok}
			},
			clear: func(t *testing.T, f *FaultInjector) { f.Repair(NewNullDataDevice("d", 16)) },
		},
		{
			name: "SetProfile/transient",
			arm:  func(f *FaultInjector) { f.SetProfile(FaultProfile{TransientProb: 1}) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r, w := qRead(f, 2, 1), qWrite(f, 2, 1, 9)
				wantErr(t, r, ErrMedia)
				wantErr(t, w, nil)
				if f.BadPages() != 0 {
					t.Fatal("a transient left a mark")
				}
				return []string{r, w}
			},
			clear: func(t *testing.T, f *FaultInjector) { f.SetProfile(FaultProfile{}) },
		},
		{
			name: "SetProfile/latent then remap-on-write",
			arm:  func(f *FaultInjector) { f.SetProfile(FaultProfile{LatentProb: 1}) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r := qRead(f, 2, 1)
				wantErr(t, r, ErrMedia)
				if f.BadPages() != 1 {
					t.Fatalf("BadPages = %d after a latent draw, want 1", f.BadPages())
				}
				return []string{r}
			},
			clear: func(t *testing.T, f *FaultInjector) {
				f.SetProfile(FaultProfile{})
				if f.quiet.Load() {
					t.Fatal("quiet while the latent mark the profile left is still set")
				}
				qWrite(f, 2, 1, 4)
			},
		},
		{
			name: "InjectBadPage/remap-on-write",
			arm:  func(f *FaultInjector) { f.InjectBadPage(3) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r1, r2, nb := qRead(f, 2, 2), qRead(f, 3, 1), qRead(f, 4, 1)
				wantErr(t, r1, ErrMedia)
				wantErr(t, r2, ErrMedia)
				wantErr(t, nb, nil)
				return []string{r1, r2, nb}
			},
			clear: func(t *testing.T, f *FaultInjector) {
				wantErr(t, qWrite(f, 2, 3, 8), nil)
			},
		},
		{
			name: "InjectBadPage/ClearBadPage",
			arm:  func(f *FaultInjector) { f.InjectBadPage(3) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r := qRead(f, 3, 1)
				wantErr(t, r, ErrMedia)
				return []string{r}
			},
			clear: func(t *testing.T, f *FaultInjector) { f.ClearBadPage(3) },
		},
		{
			name: "InjectTransient/exhaustion",
			arm:  func(f *FaultInjector) { f.InjectTransient(5, 2) },
			io: func(t *testing.T, f *FaultInjector) []string {
				r1 := qRead(f, 5, 1)
				wantErr(t, r1, ErrMedia)
				if f.quiet.Load() {
					t.Fatal("quiet with one transient failure left")
				}
				r2 := qRead(f, 5, 1)
				wantErr(t, r2, ErrMedia)
				return []string{r1, r2}
			},
			clear: func(t *testing.T, f *FaultInjector) {},
		},
		{
			name: "ArmCrash/torn then ClearCrash",
			arm:  func(f *FaultInjector) { f.ArmCrash(0, 1, 100) },
			io: func(t *testing.T, f *FaultInjector) []string {
				w, r, tr := qWrite(f, 8, 3, 0xEE), qRead(f, 8, 1), qTrim(f, 9, 1)
				wantErr(t, w, ErrCrashed)
				wantErr(t, r, ErrCrashed)
				wantErr(t, tr, ErrCrashed)
				return []string{w, r, tr}
			},
			clear: func(t *testing.T, f *FaultInjector) {
				f.ClearCrash()
				got := make([]byte, 3*PageSize)
				if _, err := f.ReadPages(0, 8, 3, got); err != nil {
					t.Fatal(err)
				}
				if got[PageSize-1] != 0xEE || got[PageSize+99] != 0xEE || got[PageSize+100] != 10 || got[2*PageSize] != 11 {
					t.Fatalf("torn prefix wrong: %x %x %x %x",
						got[PageSize-1], got[PageSize+99], got[PageSize+100], got[2*PageSize])
				}
			},
		},
		{
			name: "ArmCrash/pending then ClearCrash",
			arm:  func(f *FaultInjector) { f.ArmCrash(2, 0, 0) },
			io: func(t *testing.T, f *FaultInjector) []string {
				w := qWrite(f, 1, 1, 0x42)
				wantErr(t, w, nil)
				return []string{w}
			},
			clear: func(t *testing.T, f *FaultInjector) { f.ClearCrash() },
		},
		{
			name: "RecordOps/RecordOps(false)",
			arm:  func(f *FaultInjector) { f.RecordOps(true) },
			io: func(t *testing.T, f *FaultInjector) []string {
				out := []string{qWrite(f, 6, 2, 3), qRead(f, 7, 1)}
				want := []OpRecord{{Write: true, LBA: 6, Count: 2}, {LBA: 7, Count: 1}}
				got := f.Recorded()
				if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
					t.Fatalf("recorded %+v, want %+v", got, want)
				}
				return out
			},
			clear: func(t *testing.T, f *FaultInjector) { f.RecordOps(false) },
		},
	}
}

// TestQuietTracksArmedState drives every mutator that arms fault state
// and every route that disarms it, checking the pass-through flag at
// each edge. Each row also runs on a reference injector that records
// ops throughout, which pins every op to the armed path the injector
// always took before the pass-through existed; the two must agree op
// for op — errors, torn prefixes, completion times — and end with the
// same RNG position, counters and medium.
func TestQuietTracksArmedState(t *testing.T) {
	for _, row := range quietRows() {
		t.Run(row.name, func(t *testing.T) {
			run := func(ref bool) (*FaultInjector, []string) {
				f := NewFaultInjector(NewNullDataDevice("d", 16), 7)
				if ref {
					f.RecordOps(true)
				}
				var log []string
				for lba := int64(0); lba < 16; lba++ {
					log = append(log, qWrite(f, lba, 1, byte(lba+1)))
				}
				if !ref && !f.quiet.Load() {
					t.Fatal("fresh injector is not quiet")
				}
				row.arm(f)
				if !ref && f.quiet.Load() {
					t.Fatal("quiet right after arming")
				}
				log = append(log, row.io(t, f)...)
				row.clear(t, f)
				if !ref && !f.quiet.Load() {
					t.Fatal("not quiet after clearing")
				}
				log = append(log, qRead(f, 0, 16), qWrite(f, 3, 2, 0x77), qTrim(f, 12, 2), qRead(f, 2, 4))
				return f, log
			}
			fast, a := run(false)
			ref, b := run(true)
			if len(a) != len(b) {
				t.Fatalf("op logs differ in length: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("op %d: pass-through %q, reference %q", i, a[i], b[i])
				}
			}
			if x, y := fast.rng.Float64(), ref.rng.Float64(); x != y {
				t.Fatalf("RNG streams diverged: next draw %v vs %v", x, y)
			}
			if fast.MediaErrors() != ref.MediaErrors() || fast.Ops() != ref.Ops() ||
				fast.BadPages() != ref.BadPages() || fast.Crashed() != ref.Crashed() {
				t.Fatalf("counters differ: media %d/%d ops %d/%d bad %d/%d crashed %v/%v",
					fast.MediaErrors(), ref.MediaErrors(), fast.Ops(), ref.Ops(),
					fast.BadPages(), ref.BadPages(), fast.Crashed(), ref.Crashed())
			}
			pa, pb := make([]byte, PageSize), make([]byte, PageSize)
			for lba := int64(0); lba < 16; lba++ {
				fast.Store().ReadPage(lba, pa)
				ref.Store().ReadPage(lba, pb)
				if !bytes.Equal(pa, pb) {
					t.Fatalf("page %d differs between pass-through and reference", lba)
				}
			}
		})
	}
}

// The pass-through still counts ops, so FailAfterOps and Fail fire on
// a quiet injector exactly as on an armed one.
func TestQuietStillCountsOps(t *testing.T) {
	f := NewFaultInjector(NewNullDevice("d", 16), 1)
	f.FailAfterOps = 3
	for i := int64(0); i < 3; i++ {
		if _, err := f.ReadPages(0, i, 1, nil); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !f.quiet.Load() {
		t.Fatal("FailAfterOps alone must not disarm the pass-through")
	}
	if _, err := f.WritePages(0, 0, 1, nil); !errors.Is(err, ErrFailed) {
		t.Fatalf("op past FailAfterOps: %v, want ErrFailed", err)
	}
	f.Repair(NewNullDevice("d", 16))
	f.FailAfterOps = 0
	f.Fail()
	if _, err := f.TrimPages(0, 0, 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("trim on a failed quiet injector: %v, want ErrFailed", err)
	}
}

// BenchmarkFaultInjectorQuiet measures the injector's per-op cost over a
// zero-latency device: with nothing armed (the pass-through) and with
// one bad page elsewhere on the device (the armed path every op took
// before the pass-through).
func BenchmarkFaultInjectorQuiet(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "quiet"
		if armed {
			name = "armed"
		}
		b.Run(name, func(b *testing.B) {
			f := NewFaultInjector(NewNullDevice("d", 1024), 1)
			if armed {
				f.InjectBadPage(1023)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := int64(i % 1000)
				if i&1 == 0 {
					f.ReadPages(0, lba, 1, nil) //nolint:errcheck // timing only
				} else {
					f.WritePages(0, lba, 1, nil) //nolint:errcheck
				}
			}
		})
	}
}
