package cache_test

import (
	"fmt"
	"slices"
	"testing"

	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// oracleOldest is the frame's original victim scan, kept as the oracle
// for the recency lists: every slot in the state, stable-sorted by
// (LastUse, index), first n.
func oracleOldest(f *cache.Frame, state cache.State, n int) []int32 {
	var cands []int32
	for i := int32(0); int64(i) < f.Pages(); i++ {
		if f.Slot(i).State == state {
			cands = append(cands, i)
		}
	}
	slices.SortStableFunc(cands, func(a, b int32) int {
		ua, ub := f.Slot(a).LastUse, f.Slot(b).LastUse
		if ua != ub {
			if ua < ub {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	if n > len(cands) {
		n = len(cands)
	}
	return cands[:n]
}

// oracleEvict is the original set scan: the Clean slot with the least
// LastUse, lowest index on ties.
func oracleEvict(f *cache.Frame, set int) int32 {
	lo, hi := f.SetRange(set)
	best := cache.NoSlot
	for i := lo; i < hi; i++ {
		s := f.Slot(i)
		if s.State == cache.Clean && (best == cache.NoSlot || s.LastUse < f.Slot(best).LastUse) {
			best = i
		}
	}
	return best
}

// frameModel drives a frame through the same call shapes the policies
// use, tracking which LBAs are bound and which have a LeavO-style
// second (New) version.
type frameModel struct {
	f     *cache.Frame
	rng   *sim.RNG
	lbas  int64
	oldOf map[int64]int32 // lba -> its Old slot while a New version exists
}

// slotIn picks a random slot whose state satisfies ok, or NoSlot.
func (m *frameModel) slotIn(ok func(cache.State) bool) int32 {
	n := m.f.Pages()
	start := int32(m.rng.Uint64n(uint64(n)))
	for k := int64(0); k < n; k++ {
		i := int32((int64(start) + k) % n)
		if ok(m.f.Slot(i).State) {
			return i
		}
	}
	return cache.NoSlot
}

// place finds a slot in lba's set the way allocOrEvict does.
func (m *frameModel) place(lba int64) int32 {
	set := m.f.SetOf(lba)
	if s := m.f.AllocFree(set); s != cache.NoSlot {
		return s
	}
	s := m.f.EvictLRU(set)
	if s != cache.NoSlot {
		m.f.Release(s, true)
	}
	return s
}

func isData(s cache.State) bool { return s == cache.Clean || s == cache.Old || s == cache.New }

func (m *frameModel) step() string {
	f := m.f
	dataStates := []cache.State{cache.Clean, cache.Old, cache.New}
	switch op := m.rng.Intn(9); op {
	case 0, 1: // Insert a fresh page as Clean or Old
		lba := int64(m.rng.Uint64n(uint64(m.lbas)))
		if f.Lookup(lba) != cache.NoSlot {
			return "skip"
		}
		st := cache.Clean
		if op == 1 {
			st = cache.Old
		}
		if s := m.place(lba); s != cache.NoSlot {
			f.Insert(lba, s, st)
			return fmt.Sprintf("insert %d@%d %v", lba, s, st)
		}
	case 2: // Touch a data slot
		if s := m.slotIn(isData); s != cache.NoSlot {
			f.Touch(s)
			return fmt.Sprintf("touch %d", s)
		}
	case 3, 4: // Transition a data slot, with or without a Touch first
		s := m.slotIn(isData)
		if s == cache.NoSlot {
			return "skip"
		}
		st := dataStates[m.rng.Intn(len(dataStates))]
		if op == 3 {
			f.Touch(s)
		}
		f.Transition(s, st)
		return fmt.Sprintf("transition %d -> %v (touched %v)", s, st, op == 3)
	case 5: // LeavO write hit: pin Clean as Old, insert a New version
		s := m.slotIn(func(st cache.State) bool { return st == cache.Clean })
		if s == cache.NoSlot {
			return "skip"
		}
		lba := f.Slot(s).RaidLBA
		f.Transition(s, cache.Old)
		ns := m.place(lba)
		if ns == cache.NoSlot {
			f.Transition(s, cache.Clean)
			return "skip"
		}
		m.oldOf[lba] = s
		f.Insert(lba, ns, cache.New)
		return fmt.Sprintf("version %d: old %d new %d", lba, s, ns)
	case 6: // Rebind back to the old version and drop the new one
		if len(m.oldOf) == 0 {
			return "skip"
		}
		lbas := make([]int64, 0, len(m.oldOf))
		for lba := range m.oldOf {
			lbas = append(lbas, lba)
		}
		slices.Sort(lbas)
		lba := lbas[m.rng.Intn(len(lbas))]
		old := m.oldOf[lba]
		delete(m.oldOf, lba)
		cur := f.Lookup(lba)
		if cur == cache.NoSlot || cur == old || f.Slot(old).RaidLBA != lba || !isData(f.Slot(old).State) {
			return "skip"
		}
		f.Rebind(lba, old)
		f.Transition(old, cache.Clean)
		f.Release(cur, false)
		return fmt.Sprintf("rebind %d -> %d, release %d", lba, old, cur)
	case 7: // Release any occupied slot
		s := m.slotIn(func(st cache.State) bool { return st != cache.Free })
		if s == cache.NoSlot {
			return "skip"
		}
		drop := !isData(f.Slot(s).State) || f.Lookup(f.Slot(s).RaidLBA) == s
		f.Release(s, drop)
		return fmt.Sprintf("release %d drop=%v", s, drop)
	case 8: // Claim a DEZ page in the least delta-loaded set
		set := f.LeastDeltaSet()
		if set < 0 {
			return "skip"
		}
		s := f.AllocFree(set)
		f.MarkDelta(s)
		return fmt.Sprintf("delta %d", s)
	}
	return "skip"
}

// TestFrameListsMatchOracle runs randomized call sequences over several
// geometries and, after every step, checks the recency lists' answers
// against the full-scan + stable-sort oracle.
func TestFrameListsMatchOracle(t *testing.T) {
	geoms := []struct {
		pages    int64
		ways     int
		stripe   int64
		dataSets int // 0: all sets
	}{
		{64, 64, 16, 0},  // one set
		{64, 16, 16, 0},  // 4 sets
		{256, 8, 4, 0},   // many small sets
		{192, 32, 8, 4},  // fixed partition: 4 data sets + 2 delta sets
		{300, 16, 32, 0}, // pages rounded down to whole sets
	}
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for gi, g := range geoms {
		t.Run(fmt.Sprintf("%dx%d/part%d", g.pages, g.ways, g.dataSets), func(t *testing.T) {
			f := cache.NewFrame(g.pages, g.ways, g.stripe)
			if g.dataSets > 0 {
				f.SetDataSets(g.dataSets)
			}
			m := &frameModel{f: f, rng: sim.NewRNG(uint64(0xF4A3 + gi)), lbas: 3 * f.Pages() * g.stripe / 2, oldOf: map[int64]int32{}}
			for step := 0; step < steps; step++ {
				what := m.step()
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				for _, st := range []cache.State{cache.Clean, cache.Old, cache.New} {
					all := int(f.Count(st))
					for _, n := range []int{1, 7, 128, all, all + 3} {
						got, want := f.OldestSlots(st, n), oracleOldest(f, st, n)
						if !slices.Equal(got, want) {
							t.Fatalf("step %d (%s): OldestSlots(%v, %d) = %v, oracle %v", step, what, st, n, got, want)
						}
					}
				}
				for set := 0; set < f.Sets(); set++ {
					if got, want := f.EvictLRU(set), oracleEvict(f, set); got != want {
						t.Fatalf("step %d (%s): EvictLRU(%d) = %d, oracle %d", step, what, set, got, want)
					}
				}
			}
		})
	}
}

// TestFrameOldestSlotsRejectsUnlinkedState pins that Free and Delta
// slots carry no recency order to merge.
func TestFrameOldestSlotsRejectsUnlinkedState(t *testing.T) {
	f := cache.NewFrame(64, 16, 16)
	for _, st := range []cache.State{cache.Free, cache.Delta} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("OldestSlots(%v) did not panic", st)
				}
			}()
			f.OldestSlots(st, 1)
		}()
	}
}
