package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"kddcache/internal/blockdev"
	"kddcache/internal/harness"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
	"kddcache/internal/trace"
)

var epoch = time.Now()

// nanotime is host time since start-up in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// det is everything a pass produces that must not depend on the host:
// it repeats exactly across passes, runs and traced/untraced runs.
type det struct {
	cache      stats.CacheStats
	raid       raid.Stats
	digest     uint64
	virtHash   uint64 // FNV-1a over every served request's virtual latency
	virtCount  int64
	memberW    int64
	memberR    int64
	userWrites int64
	attempted  int64
	served     int64
	staleEnd   int
	metaPages  int64
	ssdHostW   int64
	ssdFlashW  int64
	ssdMaxE    int64
	qos        []qos.Counters
	rungMax    int
	coalesced  int64
	batches    int64
}

// pass is one replay of a workload's inputs through a fresh stack.
type pass struct {
	setupNs  int64
	stackNs  int64   // host time inside the stack: requests and background calls
	hostLat  []int64 // host ns per user request
	virt     []int64 // virtual ns per served request
	heapPeak uint64
	failed   int64 // operations the engine failed
	// Per-pass summaries; the raw hostLat and virt slices are dropped
	// once these are taken, so a run's memory does not grow with passes.
	hostP50, hostP99  float64 // us
	virtMean, virtP99 float64 // ms
	det               det
	ly                *layers
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

func (p *pass) sampleHeap() {
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > p.heapPeak {
		p.heapPeak = v
	}
}

// runPass synthesises the inputs, builds the stack (both timed as
// set-up), replays, quiesces and checks. A non-nil error is a failed
// correctness check or a broken stack; the returned pass then holds the
// counts of what was attempted before it.
func runPass(b *bench, seed uint64, traced bool) (*pass, error) {
	runtime.GC()
	p := &pass{}
	t0 := nanotime()
	reqs := b.synth(seed)
	s, err := b.build(seed, traced)
	if err != nil {
		return p, fmt.Errorf("%s: build: %w", b.name, err)
	}
	defer s.close()
	p.setupNs = nanotime() - t0
	p.ly = s.ly
	runtime.GC()
	if s.plane != nil {
		err = replayPlane(s, reqs, p)
	} else {
		var data *pageData
		if b.data {
			data = newPageData(seed)
		}
		err = replayKDD(s, reqs, data, p)
	}
	if err != nil {
		return p, fmt.Errorf("%s: %w", b.name, err)
	}
	p.finish(s)
	if err := checkQuiesced(s, b.data); err != nil {
		return p, fmt.Errorf("%s: %w", b.name, err)
	}
	return p, nil
}

// finish records the end-of-pass counters and hashes the virtual
// latency sequence.
func (p *pass) finish(s *stack) {
	d := &p.det
	if s.plane != nil {
		d.cache = *s.plane.Stats()
		d.digest = s.plane.StateDigest()
		d.metaPages = s.plane.Log().Stats().PagesWritten
		d.qos = s.ctl.Snapshot()
	} else {
		d.cache = *s.kdd.Stats()
		d.digest = s.kdd.StateDigest()
		d.metaPages = s.kdd.Log().Stats().PagesWritten
	}
	d.raid = s.array.Stats()
	d.memberW, d.memberR = s.ly.hdd.pagesW, s.ly.hdd.pagesR
	fs := s.flash.Stats()
	d.ssdHostW, d.ssdFlashW, d.ssdMaxE = fs.HostWrites, fs.FlashWrites, fs.MaxErase
	h := fnv.New64a()
	var w [8]byte
	for _, v := range p.virt {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		h.Write(w[:])
	}
	d.virtHash = h.Sum64()
	d.virtCount = int64(len(p.virt))
	p.hostP50 = float64(percentile(p.hostLat, 50)) / 1e3
	p.hostP99 = float64(percentile(p.hostLat, 99)) / 1e3
	p.virtMean = mean(p.virt) / 1e6
	p.virtP99 = float64(percentile(p.virt, 99)) / 1e6
	p.hostLat, p.virt = nil, nil
}

// background times a call the replay loop makes outside user requests (idle
// cleaning, the end-of-replay flush) against the core.clean seam.
func background(s *stack, p *pass, f func() error) error {
	t0 := nanotime()
	s.tr.enter(s.ly.coreClean)
	err := f()
	s.tr.exit()
	p.stackNs += nanotime() - t0
	return err
}

// replayKDD replays requests open-loop at their arrival times through a
// single KDD engine, as harness.RunTrace does: an idle gap longer than
// harness.IdleCleanGap wakes the cleaner, and the run ends with a Flush
// that repays every deferred parity. With data set, writes carry the
// next content version and every read is checked against it.
func replayKDD(s *stack, reqs []trace.Request, data *pageData, p *pass) error {
	k := s.kdd
	var buf []byte
	if data != nil {
		buf = make([]byte, blockdev.PageSize)
	}
	p.hostLat = make([]int64, 0, len(reqs))
	p.virt = make([]int64, 0, len(reqs))
	var prev, end sim.Time
	for i, req := range reqs {
		if i&1023 == 0 {
			p.sampleHeap()
		}
		if i > 0 && req.Time-prev > harness.IdleCleanGap {
			at := prev
			if err := background(s, p, func() error { _, err := k.Clean(at, false); return err }); err != nil {
				return fmt.Errorf("idle clean: %w", err)
			}
		}
		prev = req.Time
		p.det.attempted++
		done := req.Time
		var host int64
		for pg := 0; pg < req.Pages; pg++ {
			lba := req.LBA + int64(pg)
			var c sim.Time
			var err error
			if req.Op == trace.Read {
				t0 := nanotime()
				s.tr.enter(s.ly.coreRead)
				c, err = k.Read(req.Time, lba, buf)
				s.tr.exit()
				host += nanotime() - t0
				if err == nil && data != nil && !data.matches(lba, buf) {
					return fmt.Errorf("read lba %d returned stale or corrupt data", lba)
				}
			} else {
				if data != nil {
					data.next(lba, buf)
				}
				t0 := nanotime()
				s.tr.enter(s.ly.coreWrite)
				c, err = k.Write(req.Time, lba, buf)
				s.tr.exit()
				host += nanotime() - t0
				if err == nil && data != nil {
					data.commit(lba, buf)
				}
				p.det.userWrites++
			}
			if err != nil {
				p.failed++
				return fmt.Errorf("%s lba %d: %w", req.Op, lba, err)
			}
			if c > done {
				done = c
			}
		}
		p.det.served++
		p.stackNs += host
		p.hostLat = append(p.hostLat, host)
		p.virt = append(p.virt, int64(done-req.Time))
		if done > end {
			end = done
		}
	}
	p.sampleHeap()
	p.det.staleEnd = s.array.StaleRows()
	return background(s, p, func() error {
		_, err := k.Flush(end)
		if err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		return nil
	})
}

// replayPlane submits arrivals to the sharded plane in batches of
// planeBatch, each op stamped with its own arrival time and tenant. Every
// request is gated once by the QoS controller: throttled and shed
// requests are refusals the client does not retry. A served request's
// host latency is its batch's, since it completes at the batch barrier.
func replayPlane(s *stack, reqs []trace.Request, p *pass) error {
	n := s.ctl.Tenants()
	type tally struct{ served, throttled, shed, attempted int64 }
	tl := make([]tally, n)
	ops := make([]shard.Op, 0, planeBatch)
	p.hostLat = make([]int64, 0, len(reqs))
	p.virt = make([]int64, 0, len(reqs))
	var last sim.Time
	for start := 0; start < len(reqs); start += planeBatch {
		if (start/planeBatch)&31 == 0 {
			p.sampleHeap()
		}
		end := start + planeBatch
		if end > len(reqs) {
			end = len(reqs)
		}
		ops = ops[:0]
		for _, r := range reqs[start:end] {
			kind := shard.OpWrite
			if r.Op == trace.Read {
				kind = shard.OpRead
			}
			ops = append(ops, shard.Op{Kind: kind, LBA: r.LBA, Tenant: r.Tenant, At: r.Time})
		}
		last = reqs[end-1].Time
		t0 := nanotime()
		s.tr.enter(s.ly.batch)
		res := s.plane.RunBatch(last, ops)
		s.tr.exit()
		dt := nanotime() - t0
		p.stackNs += dt
		p.det.batches++
		for i, r := range res {
			rq := reqs[start+i]
			t := &tl[rq.Tenant]
			t.attempted++
			p.det.attempted++
			switch {
			case r.Err == nil:
				t.served++
				p.det.served++
				if rq.Op == trace.Write {
					p.det.userWrites++
				}
				if r.Coalesced {
					p.det.coalesced++
				}
				p.hostLat = append(p.hostLat, dt)
				p.virt = append(p.virt, int64(r.Done-rq.Time))
			case errors.Is(r.Err, qos.ErrThrottled):
				t.throttled++
			case errors.Is(r.Err, qos.ErrShed):
				t.shed++
			default:
				p.failed++
				return fmt.Errorf("tenant %d %s lba %d: %w", rq.Tenant, rq.Op, rq.LBA, r.Err)
			}
		}
		for t := 0; t < n; t++ {
			if r := s.ctl.Rung(t); r > p.det.rungMax {
				p.det.rungMax = r
			}
		}
	}
	p.sampleHeap()
	if !s.ctl.Conserved(last) {
		return fmt.Errorf("qos: token-bucket conservation violated")
	}
	for i, c := range s.ctl.Snapshot() {
		t := tl[i]
		if c.Offered != c.Admitted+c.Bypassed+c.Throttled+c.Shed {
			return fmt.Errorf("qos: tenant %d offered %d != admitted %d + bypassed %d + throttled %d + shed %d",
				i, c.Offered, c.Admitted, c.Bypassed, c.Throttled, c.Shed)
		}
		if c.Offered != t.attempted || c.Admitted+c.Bypassed != t.served ||
			c.Throttled != t.throttled || c.Shed != t.shed {
			return fmt.Errorf("qos: tenant %d controller counters %+v disagree with the replay loop's %+v", i, c, t)
		}
	}
	p.det.staleEnd = s.array.StaleRows()
	return background(s, p, func() error {
		_, err := s.plane.Quiesce(last)
		if err != nil {
			return fmt.Errorf("quiesce: %w", err)
		}
		return nil
	})
}

// checkQuiesced runs the post-replay invariant checks. Data workloads
// also require every parity repaid and a clean scrub.
func checkQuiesced(s *stack, data bool) error {
	if s.plane != nil {
		if err := s.plane.CheckInvariants(); err != nil {
			return fmt.Errorf("plane invariants: %w", err)
		}
	} else if err := s.kdd.CheckInvariants(); err != nil {
		return fmt.Errorf("core invariants: %w", err)
	}
	if s.ls != nil {
		if err := s.ls.CheckInvariants(); err != nil {
			return fmt.Errorf("lsraid invariants: %w", err)
		}
	}
	if !data {
		return nil
	}
	if n := s.array.StaleRows(); n != 0 {
		return fmt.Errorf("%d stale parity rows after flush", n)
	}
	_, rep, err := s.array.Scrub(0)
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	if rep.ParityFixed != 0 || len(rep.Unrecoverable) != 0 {
		return fmt.Errorf("scrub found %d bad parities and %d unrecoverable rows", rep.ParityFixed, len(rep.Unrecoverable))
	}
	return nil
}

// percentile returns the p-th percentile (nearest rank) of v, sorting a
// copy.
func percentile(v []int64, pct float64) int64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]int64(nil), v...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	idx := int(pct/100*float64(len(c))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c) {
		idx = len(c) - 1
	}
	return c[idx]
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return s / float64(len(v))
}
