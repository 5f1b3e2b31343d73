package cache_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// stack is a data-mode test rig: RAID-5 over null devices plus an SSD
// null device, with a flat oracle.
type stack struct {
	ssd    *blockdev.NullDevice
	array  *raid.Array
	oracle map[int64][]byte
	rng    *sim.RNG
}

// newArray5 builds a 5-disk RAID-5 over the given members.
func newArray5(members []blockdev.Device) (*raid.Array, error) {
	return raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
}

func newStack(t *testing.T, diskPages int64) *stack {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", diskPages))
	}
	a, err := newArray5(members)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{
		ssd:    blockdev.NewNullDataDevice("ssd", 1<<16),
		array:  a,
		oracle: make(map[int64][]byte),
		rng:    sim.NewRNG(99),
	}
}

func (s *stack) page(tag byte) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(s.rng.Uint64())
	}
	p[0] = tag
	return p
}

func (s *stack) write(t *testing.T, p cache.Policy, lba int64) {
	t.Helper()
	data := s.page(byte(lba))
	if _, err := p.Write(0, lba, data); err != nil {
		t.Fatalf("write %d: %v", lba, err)
	}
	s.oracle[lba] = data
}

func (s *stack) verify(t *testing.T, p cache.Policy) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range s.oracle {
		if _, err := p.Read(0, lba, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d mismatch via %s", lba, p.Name())
		}
	}
}

func TestFrameBasics(t *testing.T) {
	f := cache.NewFrame(1024, 64, 32)
	if f.Pages() != 1024 || f.Sets() != 16 || f.Ways() != 64 {
		t.Fatalf("geometry %d/%d/%d", f.Pages(), f.Sets(), f.Ways())
	}
	if f.Count(cache.Free) != 1024 {
		t.Fatal("fresh frame not all free")
	}
	// Same stripe -> same set.
	if f.SetOf(0) != f.SetOf(31) {
		t.Fatal("stripe pages split across sets")
	}
	slot := f.AllocFree(f.SetOf(100))
	if slot == cache.NoSlot {
		t.Fatal("no free slot in fresh frame")
	}
	f.Insert(100, slot, cache.Clean)
	if f.Lookup(100) != slot {
		t.Fatal("lookup broken")
	}
	if f.Count(cache.Clean) != 1 {
		t.Fatal("count not updated")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f.Release(slot, true)
	if f.Lookup(100) != cache.NoSlot || f.Count(cache.Free) != 1024 {
		t.Fatal("release broken")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLRUEviction(t *testing.T) {
	f := cache.NewFrame(64, 64, 16) // single set
	var slots []int32
	for lba := int64(0); lba < 64; lba++ {
		s := f.AllocFree(0)
		f.Insert(lba*16, s, cache.Clean) // distinct stripes, same set (1 set)
		slots = append(slots, s)
	}
	f.Touch(slots[0]) // make slot 0 most recent
	victim := f.EvictLRU(0)
	if victim == slots[0] {
		t.Fatal("LRU evicted the most recently used slot")
	}
	if victim != slots[1] {
		t.Fatalf("victim = %d, want %d", victim, slots[1])
	}
	for _, s := range slots {
		f.Transition(s, cache.Old)
	}
	if f.EvictLRU(0) != cache.NoSlot {
		t.Fatal("evicted a non-Clean slot")
	}
}

func TestFrameLeastDeltaSet(t *testing.T) {
	f := cache.NewFrame(64, 16, 16) // 4 sets
	// Fill set 0 with deltas.
	for i := 0; i < 4; i++ {
		s := f.AllocFree(0)
		f.MarkDelta(s)
	}
	set := f.LeastDeltaSet()
	if set == 0 {
		t.Fatal("picked the most delta-loaded set")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameFixedPartition(t *testing.T) {
	f := cache.NewFrame(64, 16, 16) // 4 sets
	f.SetDataSets(3)
	for lba := int64(0); lba < 1000; lba += 16 {
		if f.SetOf(lba) >= 3 {
			t.Fatal("data mapped into reserved delta sets")
		}
	}
	if s := f.LeastDeltaSet(); s != 3 {
		t.Fatalf("delta set = %d, want 3 (reserved)", s)
	}
	if f.DataSets() != 3 {
		t.Fatal("DataSets accessor wrong")
	}
}

func TestFrameOldestSlots(t *testing.T) {
	f := cache.NewFrame(64, 16, 16)
	var order []int32
	for i := int64(0); i < 8; i++ {
		set := f.SetOf(i * 16)
		s := f.AllocFree(set)
		f.Insert(i*16, s, cache.Clean)
		f.Transition(s, cache.Old)
		order = append(order, s)
	}
	got := f.OldestSlots(cache.Old, 3)
	if len(got) != 3 || got[0] != order[0] || got[1] != order[1] || got[2] != order[2] {
		t.Fatalf("OldestSlots = %v, insertion order %v", got, order)
	}
	if n := len(f.OldestSlots(cache.Old, 100)); n != 8 {
		t.Fatalf("OldestSlots(100) returned %d", n)
	}
}

func TestFrameGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { cache.NewFrame(0, 4, 16) },
		func() { cache.NewFrame(2, 4, 16) },
		func() { cache.NewFrame(64, 0, 16) },
		func() { cache.NewFrame(64, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNossdPassthrough(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewNossd(s.array)
	for lba := int64(0); lba < 50; lba++ {
		s.write(t, p, lba)
	}
	s.verify(t, p)
	st := p.Stats()
	if st.Hits() != 0 || st.SSDWrites() != 0 {
		t.Fatalf("Nossd stats: %+v", st)
	}
	if p.Name() != "Nossd" {
		t.Fatal("name")
	}
	if _, err := p.Clean(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
}

func TestWTReadYourWrites(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewWT(s.ssd, s.array, 256, 0, 32)
	for lba := int64(0); lba < 100; lba++ {
		s.write(t, p, lba)
	}
	// Overwrite some.
	for lba := int64(0); lba < 100; lba += 3 {
		s.write(t, p, lba)
	}
	s.verify(t, p)
	st := p.Stats()
	if st.WriteHits == 0 {
		t.Fatal("no write hits recorded")
	}
	if st.WriteAllocs == 0 || st.RAIDWrites != st.Writes {
		t.Fatalf("WT write accounting: %+v", st)
	}
	// Parity never delayed under WT.
	if s.array.StaleRows() != 0 {
		t.Fatal("WT left stale parity")
	}
}

func TestWTReadMissFillsAndHits(t *testing.T) {
	s := newStack(t, 256)
	// Pre-populate RAID directly.
	data := s.page(1)
	if _, err := s.array.WritePages(0, 7, 1, data); err != nil {
		t.Fatal(err)
	}
	s.oracle[7] = data
	p := cache.NewWT(s.ssd, s.array, 256, 0, 32)
	buf := make([]byte, blockdev.PageSize)
	if _, err := p.Read(0, 7, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadMisses != 1 || p.Stats().ReadFills != 1 {
		t.Fatalf("fill accounting: %+v", p.Stats())
	}
	if _, err := p.Read(0, 7, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadHits != 1 {
		t.Fatalf("second read not a hit: %+v", p.Stats())
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("hit served wrong data")
	}
}

func TestWAWritesBypassAndInvalidate(t *testing.T) {
	s := newStack(t, 256)
	p := cache.NewWA(s.ssd, s.array, 256, 0, 32)
	buf := make([]byte, blockdev.PageSize)

	s.write(t, p, 5)
	if p.Stats().SSDWrites() != 0 {
		t.Fatal("WA wrote to SSD on a write")
	}
	// Fill by reading, then overwrite: cached copy must be invalidated.
	if _, err := p.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if p.Stats().ReadFills != 1 {
		t.Fatal("read did not fill")
	}
	s.write(t, p, 5)
	if _, err := p.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.oracle[5]) {
		t.Fatal("stale cache served after write-around")
	}
	s.verify(t, p)
}

func TestLeavODelayedParityAndCleaning(t *testing.T) {
	s := newStack(t, 512)
	p := cache.NewLeavO(s.ssd, s.array, 256, 64, 32, 0, 64)
	// Admit pages, then update them (write hits -> old+new versions).
	for lba := int64(0); lba < 60; lba++ {
		s.write(t, p, lba)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("write misses should use full parity writes")
	}
	for lba := int64(0); lba < 60; lba++ {
		s.write(t, p, lba)
	}
	if p.Stats().WriteHits == 0 || p.Stats().SmallWritesSaved == 0 {
		t.Fatalf("no delayed-parity writes: %+v", p.Stats())
	}
	if s.array.StaleRows() == 0 {
		t.Fatal("no stale parity after no-parity writes")
	}
	s.verify(t, p)

	// Flush repairs all parity; a disk failure must then be survivable.
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("flush left stale rows")
	}
	s.verify(t, p)
	s.array.FailDisk(2)
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range s.oracle {
		if _, err := s.array.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("degraded read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("degraded data mismatch at %d", lba)
		}
	}
}

func TestLeavOSecondUpdateOverwritesNewVersion(t *testing.T) {
	s := newStack(t, 512)
	p := cache.NewLeavO(s.ssd, s.array, 256, 64, 32, 0, 64)
	s.write(t, p, 9) // miss
	s.write(t, p, 9) // hit: old+new
	s.write(t, p, 9) // hit on New: overwrite in place
	s.write(t, p, 9) // again
	s.verify(t, p)
	if p.Stats().VersionWrite < 3 {
		t.Fatalf("version writes = %d", p.Stats().VersionWrite)
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	s.verify(t, p)
}

func TestLeavOMetadataTraffic(t *testing.T) {
	s := newStack(t, 512)
	p := cache.NewLeavO(s.ssd, s.array, 256, 64, 32, 0, 64)
	// Enough mapping updates to force metadata page writes.
	for i := 0; i < 2000; i++ {
		s.write(t, p, int64(i%200))
	}
	if p.Stats().MetaWrites == 0 {
		t.Fatal("LeavO persisted no metadata")
	}
	s.verify(t, p)
}

func TestLeavOEvictionPressure(t *testing.T) {
	s := newStack(t, 2048)
	// Tiny cache: 64 pages, working set 300 pages.
	p := cache.NewLeavO(s.ssd, s.array, 64, 64, 16, 0, 64)
	rng := sim.NewRNG(3)
	for i := 0; i < 3000; i++ {
		s.write(t, p, int64(rng.Uint64n(300)))
	}
	s.verify(t, p)
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if _, err := p.Flush(0); err != nil {
		t.Fatal(err)
	}
	if s.array.StaleRows() != 0 {
		t.Fatal("stale rows survived flush")
	}
}

func TestPoliciesRandomOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := newStack(t, 1024)
		rng := sim.NewRNG(seed)
		policies := []cache.Policy{
			cache.NewWT(blockdev.NewNullDataDevice("s1", 1<<15), s.array, 128, 0, 16),
		}
		p := policies[0]
		oracle := map[int64][]byte{}
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 500; i++ {
			lba := int64(rng.Uint64n(400))
			if rng.Float64() < 0.5 {
				data := s.page(byte(i))
				if _, err := p.Write(0, lba, data); err != nil {
					return false
				}
				oracle[lba] = data
			} else if want, ok := oracle[lba]; ok {
				if _, err := p.Read(0, lba, buf); err != nil {
					return false
				}
				if !bytes.Equal(buf, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRatioOrderingWTvsLeavO(t *testing.T) {
	// With a constrained cache and an update-heavy workload, WT should
	// see hit ratios at least as high as LeavO (LeavO spends capacity on
	// redundant versions) — the Figure 5 relationship.
	mk := func() (*stack, *sim.RNG) { return newStack(t, 4096), sim.NewRNG(77) }

	s1, rng1 := mk()
	wt := cache.NewWT(s1.ssd, s1.array, 128, 0, 16)
	s2, rng2 := mk()
	lo := cache.NewLeavO(s2.ssd, s2.array, 128, 64, 16, 0, 64)

	run := func(p cache.Policy, s *stack, rng *sim.RNG) float64 {
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 6000; i++ {
			lba := int64(rng.Uint64n(600))
			if rng.Float64() < 0.7 {
				data := s.page(byte(i))
				if _, err := p.Write(0, lba, data); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Read(0, lba, buf) //nolint:errcheck // miss data irrelevant
			}
		}
		return p.Stats().HitRatio()
	}
	hrWT := run(wt, s1, rng1)
	hrLO := run(lo, s2, rng2)
	if hrLO > hrWT+0.02 {
		t.Fatalf("LeavO hit ratio %.3f exceeds WT %.3f", hrLO, hrWT)
	}
}
