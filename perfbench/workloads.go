package main

import (
	"bytes"
	"encoding/binary"

	"kddcache/internal/blockdev"
	"kddcache/internal/harness"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
	"kddcache/internal/trace"
	"kddcache/internal/workload"
)

// Workload shapes. The Fin1/Fin2 scales keep one replay pass near a
// second of host time on a 2-vCPU Xeon, so a ten-second run holds
// several passes whose medians are reported.
const (
	fin1Scale = 0.03
	fin2Scale = 0.03

	// Open-loop replay rates of the paper's Figure 9 prototype runs.
	fin1IOPS = 80
	fin2IOPS = 120

	// equivPrefix is how many requests the harness.Build equivalence
	// self-check replays through both assemblies.
	equivPrefix = 20000

	// planeBatch is how many arrivals the multi-tenant replay submits to
	// the plane per RunBatch.
	planeBatch = 32
)

// bench is one benchmark workload: how to synthesise its inputs, build
// its stack, and replay the inputs through it.
type bench struct {
	name string
	// synth generates the workload's requests from the seed.
	synth func(seed uint64) []trace.Request
	// build assembles a fresh stack for the seed.
	build func(seed uint64, traced bool) (*stack, error)
	// data is true when the workload carries real bytes checked against
	// a per-LBA reference.
	data bool
	// opts returns the harness options the stack is built from (nil for
	// the plane, which harness.Build does not assemble).
	opts func(seed uint64) *harness.StackOpts
}

// mix derives a non-zero stream seed from the workload seed and a salt.
func mix(seed, salt uint64) uint64 {
	z := seed + salt + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

func roundWays(pages int64, ways int) int64 {
	if pages < int64(ways) {
		return int64(ways)
	}
	return pages - pages%int64(ways)
}

// finOpts sets every stack option explicitly, so the benchmark's own
// assembly and harness.Build read the same values: Figure 9's geometry
// (5-disk RAID-5, 64KB chunks, members sized to the footprint) with the
// cache at cacheFrac of the footprint.
func finOpts(spec workload.Spec, cacheFrac float64, data bool) *harness.StackOpts {
	diskPages := spec.UniqueTotal/4 + 4096
	diskPages -= diskPages % 16
	return &harness.StackOpts{
		Policy:     harness.PolicyKDD,
		Backend:    "kdd",
		DeltaMean:  0.25,
		CachePages: roundWays(int64(cacheFrac*float64(spec.UniqueTotal)), 256),
		MetaFrac:   0.0059,
		Ways:       256,
		Timing:     true,
		DataMode:   data,
		Disks:      5,
		DiskPages:  diskPages,
		ChunkPages: 16,
		Level:      raid.Level5,
		Seed:       spec.Seed,
	}
}

func fin1Spec(seed uint64) workload.Spec {
	s := workload.Fin1.Scale(fin1Scale)
	s.MeanIOPS = fin1IOPS
	s.Seed = mix(seed, 1)
	return s
}

func fin2Spec(seed uint64) workload.Spec {
	s := workload.Fin2.Scale(fin2Scale)
	s.MeanIOPS = fin2IOPS
	s.Seed = mix(seed, 2)
	return s
}

// Tenant workload: two open-loop tenants, 80% writes, over disjoint
// footprints that together cover half of the log's logical space. The
// replay writes several times the log's physical capacity, so segment GC
// runs in steady state for most of it.
const (
	tenantDiskPages = 4096 // logical pages per member: 16384 exported
	tenantFootprint = 4000 // pages per tenant
	tenantRequests  = 80000
	steadyIOPS      = 100 // within its 150 IOPS budget
	floodIOPS       = 250 // about three times its 80 IOPS budget
)

var tenantSpecs = []qos.TenantSpec{
	{Name: "steady", RateIOPS: 150, Weight: 2, Burst: 32},
	{Name: "flood", RateIOPS: 80, Weight: 1, Burst: 32},
}

func tenantOpts(seed uint64) planeOpts {
	return planeOpts{
		stack: harness.StackOpts{
			DeltaMean:  0.25,
			CachePages: 4096,
			MetaFrac:   0.0059,
			Ways:       64,
			Disks:      5,
			DiskPages:  tenantDiskPages,
			ChunkPages: 16,
			Seed:       mix(seed, 3),
		},
		tenants: tenantSpecs,
		window:  100 * sim.Millisecond,
		segRows: 32,
	}
}

func tenantTrace(seed uint64) []trace.Request {
	rates := []float64{steadyIOPS, floodIOPS}
	var streams []*trace.Trace
	for i, spec := range tenantSpecs {
		streams = append(streams, workload.OpenLoop{
			Name:        spec.Name,
			Clients:     8,
			OfferedIOPS: rates[i],
			Requests:    int64(float64(tenantRequests) * rates[i] / steadyIOPS),
			Footprint:   tenantFootprint,
			LBABase:     int64(i) * tenantFootprint,
			ReadRatio:   0.2,
			Theta:       0.9,
			Seed:        mix(seed, 10+uint64(i)),
			Tenant:      i,
		}.Generate())
	}
	return workload.MergeTenants("tenants", streams...).Requests
}

var benches = []*bench{
	{
		name:  "fin1-evict",
		synth: func(seed uint64) []trace.Request { return workload.Synthesize(fin1Spec(seed)).Requests },
		opts:  func(seed uint64) *harness.StackOpts { return finOpts(fin1Spec(seed), 0.10, false) },
	},
	{
		name:  "fin2-data-fit",
		synth: func(seed uint64) []trace.Request { return workload.Synthesize(fin2Spec(seed)).Requests },
		opts:  func(seed uint64) *harness.StackOpts { return finOpts(fin2Spec(seed), 1.25, true) },
		data:  true,
	},
	{
		name:  "tenants-lsraid",
		synth: tenantTrace,
		build: func(seed uint64, traced bool) (*stack, error) { return buildPlane(tenantOpts(seed), traced) },
	},
}

func init() {
	for _, b := range benches {
		if b.build == nil {
			b := b
			b.build = func(seed uint64, traced bool) (*stack, error) { return buildKDD(*b.opts(seed), traced) }
		}
	}
}

func findBench(name string) *bench {
	for _, b := range benches {
		if b.name == name {
			return b
		}
	}
	return nil
}

// pageData is the fin2-data-fit content model and its reference. Each
// LBA has a fixed region, 512-1536 bytes long at a seeded offset (a
// quarter of the page on average), that every write to it rewrites with
// fresh seeded bytes; the rest of the page keeps its previous content.
// Any two versions of a page then differ only inside its region, which
// is the content locality the paper's KDD-25% setting models, however
// many writes the cache's old version is behind. ref holds the last
// write per LBA.
type pageData struct {
	salt uint64
	rng  *sim.RNG
	ref  [][]byte
}

func newPageData(seed uint64) *pageData {
	return &pageData{salt: mix(seed, 5), rng: sim.NewRNG(mix(seed, 4))}
}

var zeroPage = make([]byte, blockdev.PageSize)

func (g *pageData) current(lba int64) []byte {
	if lba < int64(len(g.ref)) && g.ref[lba] != nil {
		return g.ref[lba]
	}
	return zeroPage
}

// next fills buf with the next version of lba's page.
func (g *pageData) next(lba int64, buf []byte) {
	copy(buf, g.current(lba))
	h := mix(g.salt, uint64(lba))
	n := 512 + int(h%1025)
	off := int((h >> 16) % uint64(blockdev.PageSize-n+1))
	var w [8]byte
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(w[:], g.rng.Uint64())
		copy(buf[off+i:off+n], w[:])
	}
}

// commit records buf as lba's acknowledged content.
func (g *pageData) commit(lba int64, buf []byte) {
	for int64(len(g.ref)) <= lba {
		g.ref = append(g.ref, nil)
	}
	if g.ref[lba] == nil {
		g.ref[lba] = make([]byte, blockdev.PageSize)
	}
	copy(g.ref[lba], buf)
}

func (g *pageData) matches(lba int64, buf []byte) bool {
	return bytes.Equal(buf, g.current(lba))
}
