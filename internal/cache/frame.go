// Package cache provides the set-associative SSD-cache frame shared by
// every policy, and the three baseline policies the paper compares KDD
// against: write-through (WT), write-around (WA), and LeavO (Lee et al.,
// SAC'15 — old+new versions with delayed parity).
//
// The cache space is divided into sets of a fixed number of page slots;
// data pages are mapped to sets by hashing their parity stripe so pages
// of one stripe land together and can be reclaimed together (§III-B).
// Replacement is LRU over evictable pages within the set.
package cache

import (
	"fmt"

	"kddcache/internal/blockdev"
)

// State is a cache slot state. Free/Clean/Old/Delta are the paper's page
// states (§III-B); New is used by LeavO for the redundant new version of
// an updated page.
type State uint8

// Slot states.
const (
	Free State = iota
	Clean
	Old
	Delta
	New
)

func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Clean:
		return "clean"
	case Old:
		return "old"
	case Delta:
		return "delta"
	case New:
		return "new"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// NoSlot marks the absence of a slot index.
const NoSlot = int32(-1)

// Slot is one cache page frame.
type Slot struct {
	State State
	// Recency-list links (NoSlot at the list ends and when unlinked),
	// kept beside LastUse so a list splice touches one line per slot.
	prev, next int32
	RaidLBA    int64 // storage page cached here (valid for Clean/Old/New)
	LastUse    int64 // LRU tick
}

// linked reports whether slots in state s sit on a recency list. Free
// and Delta slots do not: nothing reads their recency.
func linked(s State) bool { return s == Clean || s == Old || s == New }

// Frame is the set-associative slot array with an LBA lookup index.
// It tracks slot states only; what the bytes mean is up to the policy.
//
// Every Clean, Old and New slot sits on one intrusive doubly-linked list
// per (set, state), ordered by LastUse from head (least recent) to tail.
// Every tick goes to exactly one slot and slots enter a data state
// through Insert, which takes a fresh tick, so LastUse is unique among
// linked slots (CheckInvariants enforces it). List order is therefore
// the total order (LastUse, index), and eviction and the cleaner's
// victim scan read list heads instead of scanning slots.
type Frame struct {
	ways        int
	nsets       int
	dataSets    int // sets available to data pages (== nsets unless fixed-partition)
	stripePages int64
	slots       []Slot
	lookup      map[int64]int32 // RaidLBA -> slot holding its current data
	tick        int64

	// Per-state, per-set recency-list ends; nil for the unlinked states.
	head, tail [5][]int32
	// heap is OldestSlots' reusable merge scratch, one entry per set.
	heap []int32

	// Per-state population counts, for thresholds and zone stats.
	counts [5]int64
	// Per-set Delta-page counts, for KDD's least-loaded DEZ allocation.
	deltaPerSet []int32
	// Per-set Free-slot counts, so allocation scans can skip full sets.
	freePerSet []int32
}

// NewFrame builds a frame of totalPages slots grouped into sets of `ways`
// pages. stripePages controls set mapping: LBAs of one parity stripe map
// to one set. totalPages is rounded down to a multiple of ways.
func NewFrame(totalPages int64, ways int, stripePages int64) *Frame {
	if ways < 1 || totalPages < int64(ways) || stripePages < 1 {
		panic(fmt.Sprintf("cache: bad frame geometry pages=%d ways=%d stripe=%d",
			totalPages, ways, stripePages))
	}
	nsets := int(totalPages / int64(ways))
	f := &Frame{
		ways:        ways,
		nsets:       nsets,
		dataSets:    nsets,
		stripePages: stripePages,
		slots:       make([]Slot, nsets*ways),
		lookup:      make(map[int64]int32),
		deltaPerSet: make([]int32, nsets),
		freePerSet:  make([]int32, nsets),
		heap:        make([]int32, 0, nsets),
	}
	f.counts[Free] = int64(len(f.slots))
	for i := range f.freePerSet {
		f.freePerSet[i] = int32(ways)
	}
	for i := range f.slots {
		f.slots[i].prev, f.slots[i].next = NoSlot, NoSlot
	}
	for _, s := range []State{Clean, Old, New} {
		f.head[s] = make([]int32, nsets)
		f.tail[s] = make([]int32, nsets)
		for set := range f.head[s] {
			f.head[s][set], f.tail[s][set] = NoSlot, NoSlot
		}
	}
	return f
}

// Pages returns the usable cache capacity in pages.
func (f *Frame) Pages() int64 { return int64(len(f.slots)) }

// Sets returns the number of cache sets.
func (f *Frame) Sets() int { return f.nsets }

// Ways returns the set associativity.
func (f *Frame) Ways() int { return f.ways }

// Count returns the number of slots in the given state.
func (f *Frame) Count(s State) int64 { return f.counts[s] }

// SetOf maps a storage LBA to its cache set via Fibonacci hashing of the
// parity stripe number. Only the first DataSets sets receive data pages.
func (f *Frame) SetOf(lba int64) int {
	stripe := uint64(lba / f.stripePages)
	h := stripe * 0x9E3779B97F4A7C15
	return int(h % uint64(f.dataSets))
}

// SetDataSets restricts data pages to the first n sets, reserving the
// rest for delta pages — the fixed-partition ablation of §III-B. The
// default (n == Sets()) is the paper's dynamic mixing.
func (f *Frame) SetDataSets(n int) {
	if n < 1 || n > f.nsets {
		panic("cache: bad data-set count")
	}
	f.dataSets = n
}

// DataSets returns the number of sets data pages may occupy.
func (f *Frame) DataSets() int { return f.dataSets }

// SetRange returns the slot index range [lo, hi) of a set.
func (f *Frame) SetRange(set int) (int32, int32) {
	lo := int32(set * f.ways)
	return lo, lo + int32(f.ways)
}

// setOfSlot returns the set holding slot i.
func (f *Frame) setOfSlot(i int32) int { return int(uint32(i) / uint32(f.ways)) }

// Lookup returns the slot currently holding the storage page, or NoSlot.
func (f *Frame) Lookup(lba int64) int32 {
	if s, ok := f.lookup[lba]; ok {
		return s
	}
	return NoSlot
}

// Slot returns a pointer to slot i for inspection.
func (f *Frame) Slot(i int32) *Slot { return &f.slots[i] }

// Touch refreshes LRU recency for slot i, moving it to the tail of its
// list.
func (f *Frame) Touch(i int32) {
	f.tick++
	f.slots[i].LastUse = f.tick
	if f.slots[i].next != NoSlot { // linked and not already the tail
		f.unlink(i)
		f.link(i)
	}
}

// unlink takes slot i off its (set, state) list; a no-op for unlinked
// states.
func (f *Frame) unlink(i int32) {
	st := f.slots[i].State
	if !linked(st) {
		return
	}
	set := f.setOfSlot(i)
	p, n := f.slots[i].prev, f.slots[i].next
	if p != NoSlot {
		f.slots[p].next = n
	} else {
		f.head[st][set] = n
	}
	if n != NoSlot {
		f.slots[n].prev = p
	} else {
		f.tail[st][set] = p
	}
	f.slots[i].prev, f.slots[i].next = NoSlot, NoSlot
}

// link puts slot i on its (set, state) list at its LastUse position,
// walking back from the tail: O(1) for a just-touched slot, at most
// `ways` steps otherwise. A no-op for unlinked states.
func (f *Frame) link(i int32) {
	st := f.slots[i].State
	if !linked(st) {
		return
	}
	set := f.setOfSlot(i)
	use := f.slots[i].LastUse
	p := f.tail[st][set]
	for p != NoSlot && f.slots[p].LastUse > use {
		p = f.slots[p].prev
	}
	var n int32
	if p != NoSlot {
		n = f.slots[p].next
		f.slots[p].next = i
	} else {
		n = f.head[st][set]
		f.head[st][set] = i
	}
	if n != NoSlot {
		f.slots[n].prev = i
	} else {
		f.tail[st][set] = i
	}
	f.slots[i].prev, f.slots[i].next = p, n
}

// setState moves slot i to state s, maintaining counts and lists.
func (f *Frame) setState(i int32, s State) {
	if f.slots[i].State == s {
		return
	}
	f.unlink(i)
	f.recount(i, s)
	f.link(i)
}

// recount sets slot i's state to s, maintaining the population counts
// but not the lists.
func (f *Frame) recount(i int32, s State) {
	old := f.slots[i].State
	if old == s {
		return
	}
	f.counts[old]--
	f.counts[s]++
	set := f.setOfSlot(i)
	if old == Delta {
		f.deltaPerSet[set]--
	}
	if s == Delta {
		f.deltaPerSet[set]++
	}
	if old == Free {
		f.freePerSet[set]--
	}
	if s == Free {
		f.freePerSet[set]++
	}
	f.slots[i].State = s
}

// Insert binds storage page lba to slot i with the given state and
// freshens its recency. Any previous binding of the slot must have been
// released.
func (f *Frame) Insert(lba int64, i int32, s State) {
	if s == Free || s == Delta {
		panic("cache: Insert with non-data state")
	}
	f.slots[i].RaidLBA = lba
	f.unlink(i)
	f.recount(i, s)
	f.lookup[lba] = i
	f.tick++
	f.slots[i].LastUse = f.tick
	f.link(i)
}

// Rebind repoints the lookup entry for lba to slot i without touching
// slot states (LeavO's new-version promotion).
func (f *Frame) Rebind(lba int64, i int32) { f.lookup[lba] = i }

// Transition changes the state of slot i (e.g. Clean -> Old on a write
// hit), keeping the lookup intact.
func (f *Frame) Transition(i int32, s State) { f.setState(i, s) }

// MarkDelta claims slot i as a DEZ page (no lookup binding).
func (f *Frame) MarkDelta(i int32) {
	f.slots[i].RaidLBA = -1
	f.setState(i, Delta)
}

// Release frees slot i. If drop is true the lookup binding for its
// storage page is removed too (set drop=false when the lookup was already
// rebound elsewhere).
func (f *Frame) Release(i int32, drop bool) {
	if drop && f.slots[i].State != Free && f.slots[i].State != Delta {
		if cur, ok := f.lookup[f.slots[i].RaidLBA]; ok && cur == i {
			delete(f.lookup, f.slots[i].RaidLBA)
		}
	}
	f.slots[i].RaidLBA = -1
	f.setState(i, Free)
}

// AllocFree returns a Free slot in the set, or NoSlot.
func (f *Frame) AllocFree(set int) int32 {
	if f.freePerSet[set] == 0 {
		return NoSlot
	}
	lo, hi := f.SetRange(set)
	for i := lo; i < hi; i++ {
		if f.slots[i].State == Free {
			return i
		}
	}
	return NoSlot
}

// EvictLRU returns the least-recently-used Clean slot in the set, or
// NoSlot: the head of the set's Clean list. The caller releases it.
func (f *Frame) EvictLRU(set int) int32 { return f.head[Clean][set] }

// LeastDeltaSet returns the set with the fewest Delta pages that still
// has a Free slot, or -1 ("KDD always chooses a free page from the cache
// set which has the least number of DEZ pages", §III-B). Sets with no
// Free slot are skipped; cost is O(sets).
func (f *Frame) LeastDeltaSet() int {
	start := 0
	if f.dataSets < f.nsets {
		start = f.dataSets // fixed partition: deltas only in reserved sets
	}
	best := -1
	var bestDelta int32
	for s := start; s < f.nsets; s++ {
		if f.freePerSet[s] == 0 {
			continue
		}
		if best == -1 || f.deltaPerSet[s] < bestDelta {
			best = s
			bestDelta = f.deltaPerSet[s]
		}
	}
	return best
}

// OldestSlots returns up to n slot indices in the given data state
// (Clean, Old or New) across the whole cache, least recently used first
// (the cleaner's victim scan). It k-way merges the per-set list heads
// through a heap keyed by (LastUse, index): O(sets + n log sets).
func (f *Frame) OldestSlots(state State, n int) []int32 {
	if !linked(state) {
		panic(fmt.Sprintf("cache: OldestSlots over unlinked state %v", state))
	}
	if c := f.counts[state]; int64(n) > c {
		n = int(c)
	}
	out := make([]int32, 0, n)
	if n == 0 {
		return out
	}
	h := f.heap[:0]
	for _, hd := range f.head[state] {
		if hd != NoSlot {
			h = append(h, hd)
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		f.siftDown(h, k)
	}
	for len(out) < n {
		top := h[0]
		out = append(out, top)
		if nx := f.slots[top].next; nx != NoSlot {
			h[0] = nx
		} else {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		if len(h) > 0 {
			f.siftDown(h, 0)
		}
	}
	f.heap = h[:0]
	return out
}

// older orders slots by (LastUse, index).
func (f *Frame) older(a, b int32) bool {
	ua, ub := f.slots[a].LastUse, f.slots[b].LastUse
	return ua < ub || (ua == ub && a < b)
}

// siftDown restores the min-heap property of h below position k.
func (f *Frame) siftDown(h []int32, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && f.older(h[r], h[c]) {
			c = r
		}
		if !f.older(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// CheckInvariants validates internal consistency (used by tests and the
// property suite): counts match slot states, lookup is a bijection onto
// live data slots, delta counts match, and the recency lists hold
// exactly the data slots in strictly increasing LastUse order.
func (f *Frame) CheckInvariants() error {
	if err := f.checkLists(); err != nil {
		return err
	}
	var counts [5]int64
	deltas := make([]int32, f.nsets)
	frees := make([]int32, f.nsets)
	for i := range f.slots {
		st := f.slots[i].State
		counts[st]++
		if st == Delta {
			deltas[i/f.ways]++
		}
		if st == Free {
			frees[i/f.ways]++
		}
	}
	for s := range frees {
		if frees[s] != f.freePerSet[s] {
			return fmt.Errorf("cache: set %d free count %d, cached %d", s, frees[s], f.freePerSet[s])
		}
	}
	for s := State(0); s < 5; s++ {
		if counts[s] != f.counts[s] {
			return fmt.Errorf("cache: state %v count %d, cached %d", s, counts[s], f.counts[s])
		}
	}
	for s := range deltas {
		if deltas[s] != f.deltaPerSet[s] {
			return fmt.Errorf("cache: set %d delta count %d, cached %d", s, deltas[s], f.deltaPerSet[s])
		}
	}
	for lba, i := range f.lookup {
		st := f.slots[i].State
		if st == Free || st == Delta {
			return fmt.Errorf("cache: lookup %d points at %v slot", lba, st)
		}
		if f.slots[i].RaidLBA != lba {
			return fmt.Errorf("cache: lookup %d points at slot holding %d", lba, f.slots[i].RaidLBA)
		}
		if f.SetOf(lba) != int(i)/f.ways && st != New {
			return fmt.Errorf("cache: lba %d mapped outside its set", lba)
		}
	}
	return nil
}

// checkLists validates the recency lists: each Clean/Old/New slot sits
// exactly once on its own (set, state) list, LastUse strictly increases
// from head to tail, the links and list ends agree, list lengths sum to
// the state counts, and Free and Delta slots are unlinked.
func (f *Frame) checkLists() error {
	onList := make([]bool, len(f.slots))
	for _, st := range []State{Clean, Old, New} {
		var n int64
		for set := 0; set < f.nsets; set++ {
			lo, hi := f.SetRange(set)
			p := NoSlot
			for i := f.head[st][set]; i != NoSlot; p, i = i, f.slots[i].next {
				if i < lo || i >= hi {
					return fmt.Errorf("cache: %v list of set %d holds slot %d of another set", st, set, i)
				}
				if onList[i] {
					return fmt.Errorf("cache: slot %d linked twice (cycle in %v list of set %d)", i, st, set)
				}
				onList[i] = true
				if f.slots[i].State != st {
					return fmt.Errorf("cache: %v list of set %d holds %v slot %d", st, set, f.slots[i].State, i)
				}
				if f.slots[i].prev != p {
					return fmt.Errorf("cache: slot %d prev %d, want %d", i, f.slots[i].prev, p)
				}
				if p != NoSlot && f.slots[p].LastUse >= f.slots[i].LastUse {
					return fmt.Errorf("cache: %v list of set %d not strictly LRU-ordered at slot %d (LastUse %d after %d)",
						st, set, i, f.slots[i].LastUse, f.slots[p].LastUse)
				}
				n++
			}
			if f.tail[st][set] != p {
				return fmt.Errorf("cache: %v list of set %d tail %d, want %d", st, set, f.tail[st][set], p)
			}
		}
		if n != f.counts[st] {
			return fmt.Errorf("cache: %v lists hold %d slots, count %d", st, n, f.counts[st])
		}
	}
	for i := range f.slots {
		if st := f.slots[i].State; linked(st) && !onList[i] {
			return fmt.Errorf("cache: %v slot %d missing from its list", st, i)
		} else if !linked(st) && (f.slots[i].prev != NoSlot || f.slots[i].next != NoSlot) {
			return fmt.Errorf("cache: %v slot %d still linked", st, i)
		}
	}
	return nil
}

// PageSize re-exported for convenience of policy implementations.
const PageSize = blockdev.PageSize
