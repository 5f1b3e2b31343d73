package nvram

import (
	"reflect"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/delta"
	"kddcache/internal/sim"
)

// oracleStaging is the staging buffer as it was before positions became
// base-relative: PackPage compacts the FIFO, clears the index and
// rebuilds it from scratch. It is the reference the randomized test
// below holds Staging to.
type oracleStaging struct {
	fifo  []StagedDelta
	index map[int64]int
	bytes int

	Coalesced, Invalidated int64
}

func newOracle() *oracleStaging { return &oracleStaging{index: make(map[int64]int)} }

func (s *oracleStaging) Put(d StagedDelta) {
	if pos, ok := s.index[d.DazPage]; ok {
		s.bytes -= s.fifo[pos].D.Len
		s.fifo[pos] = d
		s.bytes += d.D.Len
		s.Coalesced++
		return
	}
	s.index[d.DazPage] = len(s.fifo)
	s.fifo = append(s.fifo, d)
	s.bytes += d.D.Len
}

func (s *oracleStaging) Get(dazPage int64) (StagedDelta, bool) {
	pos, ok := s.index[dazPage]
	if !ok {
		return StagedDelta{}, false
	}
	return s.fifo[pos], true
}

func (s *oracleStaging) Drop(dazPage int64) {
	pos, ok := s.index[dazPage]
	if !ok {
		return
	}
	s.bytes -= s.fifo[pos].D.Len
	s.fifo[pos].DazPage = -1
	delete(s.index, dazPage)
	s.Invalidated++
}

func (s *oracleStaging) PackPage() []StagedDelta {
	var out []StagedDelta
	used := 0
	i := 0
	for ; i < len(s.fifo); i++ {
		d := s.fifo[i]
		if d.DazPage < 0 {
			continue
		}
		if used+d.D.Len > blockdev.PageSize {
			break
		}
		used += d.D.Len
		out = append(out, d)
		delete(s.index, d.DazPage)
		s.bytes -= d.D.Len
	}
	s.fifo = append(s.fifo[:0], s.fifo[i:]...)
	for p := range s.index {
		delete(s.index, p)
	}
	for pos, d := range s.fifo {
		if d.DazPage >= 0 {
			s.index[d.DazPage] = pos
		}
	}
	return out
}

func (s *oracleStaging) All() []StagedDelta {
	var out []StagedDelta
	for _, d := range s.fifo {
		if d.DazPage >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// TestStagingMatchesOracle runs randomized Put/Drop/Get/PackPage
// sequences against Staging and the rebuild-the-index oracle and
// compares every observable after every step. The long runs push base
// through thousands of packs; the drop-heavy mix piles tombstones up in
// front of live deltas, so PackPage has to skip them and the surviving
// positions have to stay addressable across the advance.
func TestStagingMatchesOracle(t *testing.T) {
	cases := []struct {
		name            string
		seed            uint64
		steps           int
		keys            int64
		putPct, dropPct uint64 // remaining share is PackPage
		maxLen          uint64
	}{
		{"balanced", 1, 4000, 64, 60, 20, 1200},
		{"coalesce-heavy", 2, 4000, 8, 75, 10, 900},
		{"tombstone-pileup", 3, 20000, 512, 55, 40, 300},
		{"long-run", 4, 60000, 256, 70, 15, 700},
		{"full-page-deltas", 5, 4000, 32, 65, 15, blockdev.PageSize},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := sim.NewRNG(c.seed)
			s, o := NewStaging(blockdev.PageSize), newOracle()
			packs := 0
			for step := 0; step < c.steps; step++ {
				key := int64(rng.Uint64n(uint64(c.keys)))
				switch r := rng.Uint64n(100); {
				case r < c.putPct:
					d := StagedDelta{DazPage: key, RaidLBA: int64(step), D: delta.Delta{Len: int(1 + rng.Uint64n(c.maxLen))}}
					s.Put(d)
					o.Put(d)
				case r < c.putPct+c.dropPct:
					s.Drop(key)
					o.Drop(key)
				default:
					got, want := s.PackPage(), o.PackPage()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: PackPage = %+v, oracle %+v", step, got, want)
					}
					packs++
				}
				if s.Len() != len(o.index) || s.Bytes() != o.bytes || s.Full() != (o.bytes >= blockdev.PageSize) ||
					s.Coalesced != o.Coalesced || s.Invalidated != o.Invalidated {
					t.Fatalf("step %d: len %d/%d bytes %d/%d coalesced %d/%d invalidated %d/%d",
						step, s.Len(), len(o.index), s.Bytes(), o.bytes,
						s.Coalesced, o.Coalesced, s.Invalidated, o.Invalidated)
				}
				g, w := s.Get(key)
				og, ow := o.Get(key)
				if w != ow || !reflect.DeepEqual(g, og) {
					t.Fatalf("step %d: Get(%d) = %+v,%v, oracle %+v,%v", step, key, g, w, og, ow)
				}
				if step%97 == 0 {
					if got, want := s.All(), o.All(); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: All = %+v, oracle %+v", step, got, want)
					}
					for k := int64(0); k < c.keys; k++ {
						g, w := s.Get(k)
						og, ow := o.Get(k)
						if w != ow || !reflect.DeepEqual(g, og) {
							t.Fatalf("step %d: Get(%d) = %+v,%v, oracle %+v,%v", step, k, g, w, og, ow)
						}
					}
				}
			}
			if packs < 150 || s.base < 1000 {
				t.Fatalf("%d packs moved base to %d; the mix no longer exercises the offset", packs, s.base)
			}
		})
	}
}

// BenchmarkStagingPackPage stages deltas until the buffer is full and
// packs a page, the delta path's steady state on a write hit: with
// 200-byte deltas and a four-page buffer each pack drains 20 of about 80
// live entries.
func BenchmarkStagingPackPage(b *testing.B) {
	s := NewStaging(4 * blockdev.PageSize)
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !s.Full() {
			s.Put(StagedDelta{DazPage: next, D: delta.Delta{Len: 200}})
			next++
		}
		s.PackPage()
	}
}
