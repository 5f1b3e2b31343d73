// Package core implements KDD — Keeping Data and Deltas in SSD — the
// paper's primary contribution (§III).
//
// The SSD cache is logically split into a Data Zone (DAZ) holding pages
// as first admitted, and a Delta Zone (DEZ) holding compressed XORs of
// updated pages, dynamically mixed within the same set-associative frame.
// On a write hit KDD writes the data to RAID *without* updating parity
// (one disk I/O instead of four), stages the delta in NVRAM, and packs
// staged deltas into DEZ pages when the staging buffer fills. A
// background cleaner repairs stale parities — reconstruct-write when the
// whole row is cached, read-modify-write from decompressed deltas
// otherwise — and reclaims old/delta pages (reclaim scheme 2 by default).
// Cache metadata persists in a circular log on the SSD with NVRAM
// buffering, giving an RPO of zero across power failures.
package core

import (
	"errors"
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/delta"
	"kddcache/internal/metalog"
	"kddcache/internal/nvram"
	"kddcache/internal/obs"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// ErrNotCombinable reports a read of an Old page whose delta cannot be
// applied (would indicate a bookkeeping bug; surfaced for tests).
var ErrNotCombinable = errors.New("core: cannot combine old page with delta")

// Config assembles a KDD cache instance.
type Config struct {
	SSD     blockdev.Device // cache device (metadata partition + cache pages)
	Backend cache.Backend   // the RAID array

	CachePages int64 // data cache capacity in pages (DAZ+DEZ combined)
	Ways       int   // set associativity

	MetaStart int64 // first page of the metadata partition on the SSD
	MetaPages int64 // metadata partition size in pages (paper: 0.59% of SSD)

	Codec delta.Codec // delta codec (real or modelled)

	StagingBytes int // NVRAM staging buffer capacity in bytes

	// Cleaner thresholds: fractions of cache capacity held by old+delta
	// pages that start/stop background cleaning.
	HighWater float64
	LowWater  float64

	// MetaGCThreshold is the metadata log occupancy triggering its GC
	// (0 = default 0.9).
	MetaGCThreshold float64

	// FixedDEZSets reserves the last N sets exclusively for DEZ pages
	// (the static-partition ablation, §III-B); 0 = dynamic mixing.
	FixedDEZSets int

	// ReclaimMaterialize selects reclaim scheme 1 (§III-D): combine
	// old+delta into the latest version and keep it cached as Clean,
	// instead of dropping the old page (scheme 2, the paper's choice).
	ReclaimMaterialize bool

	// DisableMetaLog turns off metadata persistence entirely (ablation
	// baseline: what the cache write traffic looks like with no
	// durability; recovery is impossible in this mode).
	DisableMetaLog bool

	// SharedLog, when non-nil, attaches an externally-owned metadata log
	// instead of creating one over [MetaStart, MetaStart+MetaPages). The
	// shard plane uses this so all lanes share one circular partition and
	// one NVRAM buffer. The owner handles sizing and recovery sequencing;
	// this instance's Stats skip the (shared) log counters.
	SharedLog *metalog.Log

	// DataStart, when > 0, places the cache data partition at an explicit
	// SSD page instead of MetaStart+MetaPages. Required with SharedLog so
	// each lane addresses a disjoint SSD region.
	DataStart int64

	// Lane tags this instance's batched metadata appends (the shard tag
	// in the log's page headers). Only meaningful with BatchMeta.
	Lane uint8

	// BatchMeta defers metadata page flushes to FlushMetaBatch: entries
	// still enter the NVRAM buffer immediately (the durability point is
	// unchanged) but flash pages commit one barrier per batch instead of
	// one per entry. The caller owns the barrier cadence.
	BatchMeta bool

	// SelectiveAdmission enables a LARC-style ghost-LRU admission filter:
	// pages are cached only on their second miss within a window of
	// CachePages addresses. §V-C lists such filters as complementary to
	// KDD for further reducing allocation writes.
	SelectiveAdmission bool

	// Tracer, when non-nil, records a span for every phase of every
	// operation (obs package). Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// Circuit-breaker knobs for the cache health state machine
	// (failover.go). All are measured in operations, not virtual time:
	// the timing rigs drive every request at t=0, so op counts are the
	// only clock that always advances. Zero selects the default;
	// BreakerWindow < 0 disables the breaker (fail-stop failover still
	// works).
	BreakerWindow    int   // sliding window of SSD read outcomes (default 64)
	BreakerThreshold int   // persistent failures in window that trip (default 32)
	BreakerBackoff   int64 // ops before the first half-open probe (default 64, doubles)
	RebuildProbation int64 // clean ops in Rebuilding before Normal (default 16)

	// Online member-rebuild pacing (rebuild.go): member rows of rebuild
	// I/O released per foreground operation. Max applies when the op never
	// touched the array (served from cache), Min when it did — foreground
	// pressure throttles the rebuild rather than the other way round.
	// Zero selects the defaults; RebuildRateMax < 0 disables the pump
	// entirely (the harness then drives RebuildStep itself).
	RebuildRateMin int // rows/op under foreground RAID pressure (default 1)
	RebuildRateMax int // rows/op when the array is otherwise idle (default 8)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Ways == 0 {
		c.Ways = 256
	}
	if c.StagingBytes == 0 {
		c.StagingBytes = 4 * blockdev.PageSize
	}
	// Dirty (old+delta) pages may occupy a substantial share of the cache
	// before cleaning kicks in: keeping recently-updated pages resident
	// is where KDD's hit-ratio advantage over LeavO comes from (and the
	// reason it can beat WT on write-hot traces like Web0, §IV-A3).
	if c.HighWater == 0 {
		c.HighWater = 0.40
	}
	if c.LowWater == 0 {
		c.LowWater = 0.30
	}
	// Breaker defaults are deliberately conservative: half the window must
	// fail before tripping, so the background media-error rates the chaos
	// profiles inject (sub-percent per read) never trigger a failover —
	// only a genuinely sick device does.
	if c.BreakerWindow == 0 {
		c.BreakerWindow = 64
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 32
	}
	if c.BreakerBackoff == 0 {
		c.BreakerBackoff = 64
	}
	if c.RebuildProbation == 0 {
		c.RebuildProbation = 16
	}
	if c.RebuildRateMin == 0 {
		c.RebuildRateMin = 1
	}
	if c.RebuildRateMax == 0 {
		c.RebuildRateMax = 8
	}
	return c
}

// oldDelta locates the newest delta of an Old DAZ page.
type oldDelta struct {
	staged bool  // still in the NVRAM staging buffer
	dez    int32 // DEZ slot (when !staged)
	off    int
	length int
	raw    bool
}

// dezPage tracks a DEZ page's occupancy.
type dezPage struct {
	valid int // live deltas ("valid count", §III-C)
	used  int // bytes consumed
}

// KDD is the cache engine.
type KDD struct {
	cfg     Config
	frame   *cache.Frame
	ssd     blockdev.Device
	backend cache.Backend

	dataStart int64 // first SSD page of the cache data partition

	staging *nvram.Staging
	log     *metalog.Log
	codec   delta.Codec

	oldDeltas map[int32]oldDelta // old DAZ slot -> delta location
	dezPages  map[int32]*dezPage // DEZ slot -> occupancy

	ghost *ghostLRU // nil unless SelectiveAdmission

	// metaErr records a metadata-log failure from a path that cannot
	// return it (eviction, best-effort cleaning); the next top-level
	// operation surfaces and clears it, keeping the RPO-zero claim honest.
	metaErr error

	// Cache health state machine (failover.go).
	health      Health
	opSeq       int64  // top-level operations processed (the breaker's clock)
	breaker     []bool // ring of recent SSD read outcomes (true = failed)
	breakerPos  int
	breakerFill int
	breakerFail int
	tripPending bool  // breaker tripped mid-operation; fail over at next preOp
	deadSSD     bool  // SSD fail-stop observed on a swallowing path
	backoffOps  int64 // current half-open probe backoff (ops)
	probeAfter  int64 // opSeq at which the next probe may run
	rebuildLeft int64 // ops left in Rebuilding probation

	// Member-rebuild pump (rebuild.go) — the RAID rebuild, not the cache
	// health machine's Rebuilding probation above.
	rbTokens int   // accumulated rebuild-row budget
	fgMark   int64 // RAIDReads+RAIDWrites at preOp (foreground-pressure probe)

	st        stats.CacheStats
	dataMode  bool
	sharedLog bool // log belongs to the shard plane, not this instance
	cleaning  bool

	tr *obs.Tracer // nil = tracing disabled
}

// maxMetaAddressable is the page-address ceiling imposed by the metadata
// log's uint32 on-flash encoding (Entry.DazPage / Entry.RaidLBA): 2^32
// pages, i.e. 16 TiB at 4 KiB pages. Geometries beyond it would silently
// truncate recovery metadata.
const maxMetaAddressable = int64(1) << 32

// New builds a KDD cache.
func New(cfg Config) (*KDD, error) {
	cfg = cfg.withDefaults()
	if cfg.SSD == nil || cfg.Backend == nil || cfg.Codec == nil {
		return nil, fmt.Errorf("core: SSD, Backend and Codec are required")
	}
	if cfg.CachePages < int64(cfg.Ways) {
		return nil, fmt.Errorf("core: cache of %d pages below one set", cfg.CachePages)
	}
	if !cfg.DisableMetaLog && cfg.SharedLog == nil && cfg.MetaPages < 2 {
		return nil, fmt.Errorf("core: metadata partition needs >=2 pages")
	}
	if cfg.SharedLog != nil && cfg.DisableMetaLog {
		return nil, fmt.Errorf("core: SharedLog conflicts with DisableMetaLog")
	}
	dataStart := cfg.MetaStart + cfg.MetaPages
	if cfg.DataStart > 0 {
		dataStart = cfg.DataStart
	}
	if dataStart+cfg.CachePages > cfg.SSD.Pages() {
		return nil, fmt.Errorf("core: SSD too small: need %d pages, have %d",
			dataStart+cfg.CachePages, cfg.SSD.Pages())
	}
	if cfg.LowWater >= cfg.HighWater {
		return nil, fmt.Errorf("core: cleaner watermarks inverted")
	}
	if !cfg.DisableMetaLog {
		if end := dataStart + cfg.CachePages; end > maxMetaAddressable {
			return nil, fmt.Errorf("core: SSD cache end page %d exceeds the metadata log's uint32 address space (%d pages); shrink the cache or disable the metadata log", end, maxMetaAddressable)
		}
		if bp := cfg.Backend.Pages(); bp > maxMetaAddressable {
			return nil, fmt.Errorf("core: backend of %d pages exceeds the metadata log's uint32 address space (%d pages); shrink the array or disable the metadata log", bp, maxMetaAddressable)
		}
	}
	k := &KDD{
		cfg:       cfg,
		frame:     cache.NewFrame(cfg.CachePages, cfg.Ways, cfg.Backend.StripePages()),
		ssd:       cfg.SSD,
		backend:   cfg.Backend,
		dataStart: dataStart,
		sharedLog: cfg.SharedLog != nil,
		staging:   nvram.NewStaging(cfg.StagingBytes),
		codec:     cfg.Codec,
		oldDeltas: make(map[int32]oldDelta),
		dezPages:  make(map[int32]*dezPage),
		tr:        cfg.Tracer,
	}
	if cfg.FixedDEZSets > 0 {
		if cfg.FixedDEZSets >= k.frame.Sets() {
			return nil, fmt.Errorf("core: FixedDEZSets %d >= %d sets", cfg.FixedDEZSets, k.frame.Sets())
		}
		k.frame.SetDataSets(k.frame.Sets() - cfg.FixedDEZSets)
	}
	if cfg.SharedLog != nil {
		// Plane-owned log: the plane sets its tracer once for all lanes.
		k.log = cfg.SharedLog
	} else if !cfg.DisableMetaLog {
		k.log = metalog.New(cfg.SSD, cfg.MetaStart, cfg.MetaPages, cfg.MetaGCThreshold)
		k.log.SetTracer(cfg.Tracer)
	}
	if cfg.SelectiveAdmission {
		k.ghost = newGhostLRU(int(cfg.CachePages))
	}
	// Data mode (real pages and real deltas end to end) requires both a
	// byte-backed SSD and a real codec; a modelled codec produces sized
	// placeholders only, even if the SSD could persist bytes (the
	// crash-recovery timing stack uses exactly that combination: real
	// metadata-log bytes, modelled data path).
	if s, ok := cfg.SSD.(blockdev.Storer); ok {
		k.dataMode = s.Store() != nil
	}
	if _, modelled := cfg.Codec.(*delta.Modelled); modelled {
		k.dataMode = false
	}
	return k, nil
}

// Name implements cache.Policy.
func (k *KDD) Name() string {
	if m, ok := k.codec.(*delta.Modelled); ok {
		return fmt.Sprintf("KDD-%d%%", int(m.MeanRatio()*100+0.5))
	}
	return "KDD(" + k.codec.Name() + ")"
}

// Stats implements cache.Policy. Metadata traffic is pulled from the log
// at read time.
func (k *KDD) Stats() *stats.CacheStats {
	if k.log != nil && !k.sharedLog {
		ls := k.log.Stats()
		gc := ls.GCPageEquivalent()
		k.st.MetaWrites = ls.PagesWritten - gc
		k.st.MetaGCWrites = gc
	}
	return &k.st
}

// Frame exposes the slot frame for tests and the harness.
func (k *KDD) Frame() *cache.Frame { return k.frame }

// Staging exposes the NVRAM staging buffer (recovery and tests).
func (k *KDD) Staging() *nvram.Staging { return k.staging }

// Codec returns the delta codec in use (recovery reuses it).
func (k *KDD) Codec() delta.Codec { return k.codec }

// Log exposes the metadata log (recovery and tests); nil when disabled.
func (k *KDD) Log() *metalog.Log { return k.log }

// DirtyPages returns the old+delta page population (the cleaner's gauge).
func (k *KDD) DirtyPages() int64 {
	return k.frame.Count(cache.Old) + k.frame.Count(cache.Delta)
}

// cacheLBA maps a slot index to its SSD page.
func (k *KDD) cacheLBA(slot int32) int64 { return k.dataStart + int64(slot) }

// slotOf maps an SSD page back to a slot index (recovery).
func (k *KDD) slotOf(ssdPage int64) int32 { return int32(ssdPage - k.dataStart) }

// stick records a metadata failure for later surfacing; the first error
// wins (later ones are usually consequences of the first).
func (k *KDD) stick(err error) {
	if err != nil && k.metaErr == nil {
		k.metaErr = err
	}
}

// takeSticky returns and clears any recorded metadata failure. Entries
// stay buffered in NVRAM when a flush fails, so once the error has been
// surfaced the log is still coherent and the instance may continue.
func (k *KDD) takeSticky() error {
	err := k.metaErr
	k.metaErr = nil
	return err
}

// logPut appends a metadata entry unless the log is disabled. In batch
// mode the entry reaches NVRAM at once (durability point) and its page
// flush waits for FlushMetaBatch.
func (k *KDD) logPut(t sim.Time, e metalog.Entry) (sim.Time, error) {
	if k.log == nil {
		return t, nil
	}
	if k.cfg.BatchMeta {
		k.log.PutBuffered(e)
		return t, nil
	}
	return k.log.Put(t, e)
}

// FlushMetaBatch commits this lane's deferred metadata page flushes in
// one barrier (BatchMeta mode). No-op otherwise.
func (k *KDD) FlushMetaBatch(t sim.Time) (sim.Time, error) {
	if k.log == nil || !k.cfg.BatchMeta {
		return t, nil
	}
	return k.log.FlushBatch(t, k.cfg.Lane)
}

// cleanEntry builds the log record for a Clean DAZ page.
func (k *KDD) cleanEntry(slot int32, lba int64) metalog.Entry {
	return metalog.Entry{
		State:   metalog.StateClean,
		DazPage: uint32(k.cacheLBA(slot)),
		RaidLBA: uint32(lba),
		DezPage: metalog.NoDez,
	}
}

// freeEntry builds the log record for a reclaimed DAZ page.
func (k *KDD) freeEntry(slot int32) metalog.Entry {
	return metalog.Entry{
		State:   metalog.StateFree,
		DazPage: uint32(k.cacheLBA(slot)),
		DezPage: metalog.NoDez,
	}
}

// trimSlot hands a released cache page back to the FTL.
func (k *KDD) trimSlot(t sim.Time, slot int32) {
	if tr, ok := k.ssd.(blockdev.Trimmer); ok {
		tr.TrimPages(t, k.cacheLBA(slot), 1) //nolint:errcheck // advisory
	}
}

// evictClean frees the LRU Clean slot in the set (logging the free
// entry), or returns NoSlot if the set holds no evictable page.
func (k *KDD) evictClean(t sim.Time, set int) int32 {
	s := k.frame.EvictLRU(set)
	if s == cache.NoSlot {
		return cache.NoSlot
	}
	k.st.Evictions++
	k.frame.Release(s, true)
	k.trimSlot(t, s)
	if _, err := k.logPut(t, k.freeEntry(s)); err != nil {
		k.stick(fmt.Errorf("core: logging eviction of slot %d: %w", s, err))
	}
	return s
}

// allocDAZ finds a slot for a data page: free first, then LRU-clean
// eviction. May trigger the cleaner when the set is pinned solid.
func (k *KDD) allocDAZ(t sim.Time, lba int64) int32 {
	set := k.frame.SetOf(lba)
	if s := k.frame.AllocFree(set); s != cache.NoSlot {
		return s
	}
	if s := k.evictClean(t, set); s != cache.NoSlot {
		return s
	}
	// Set is all old/delta pages: a cleaning trigger ("when the SSD cache
	// is full", §III-B).
	if _, err := k.cleanPass(t, false); err != nil {
		k.stick(fmt.Errorf("core: cleaning on full set: %w", err))
	}
	if s := k.frame.AllocFree(set); s != cache.NoSlot {
		return s
	}
	return k.evictClean(t, set)
}

var _ cache.Policy = (*KDD)(nil)
