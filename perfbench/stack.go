package main

import (
	"fmt"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/harness"
	"kddcache/internal/hdd"
	"kddcache/internal/lsraid"
	"kddcache/internal/qos"
	"kddcache/internal/raid"
	"kddcache/internal/raidiface"
	"kddcache/internal/shard"
	"kddcache/internal/sim"
	"kddcache/internal/ssd"
)

// stack is one workload's assembled system plus the seams it was
// wrapped at. Exactly one of kdd and plane is set.
type stack struct {
	kdd   *core.KDD
	plane *shard.Plane
	ctl   *qos.Controller
	array raidiface.Array
	ls    *lsraid.Array // set when the backend is log-structured
	flash *ssd.Device
	tr    *tracer
	ly    *layers
}

// close releases the plane's scheduler workers.
func (s *stack) close() {
	if s.plane != nil {
		s.plane.Close()
	}
}

// metaPagesFor sizes the SSD metadata partition exactly as harness.Build
// does, so the two assemblies present the same device geometry.
func metaPagesFor(cachePages int64, metaFrac float64) int64 {
	m := int64(float64(cachePages) / (1 - metaFrac) * metaFrac)
	if m < 8 {
		m = 8
	}
	return m
}

// members builds the RAID member disks. Every member sits behind a
// counting seam, traced or not: member_write_amp is counted there so it
// means the same for both backends.
func members(o harness.StackOpts, pages int64, s *stack) []blockdev.Device {
	var out []blockdev.Device
	for i := 0; i < o.Disks; i++ {
		name := fmt.Sprintf("hdd%d", i)
		var d *hdd.Disk
		if o.DataMode {
			d = hdd.NewData(name, hdd.DefaultConfig(pages), o.Seed+uint64(i)*7)
		} else {
			d = hdd.New(name, hdd.DefaultConfig(pages), o.Seed+uint64(i)*7)
		}
		out = append(out, &timedDev{inner: d, tr: s.tr, l: s.ly.hdd})
	}
	return out
}

// cacheDevice builds the flash model behind its fault injector. Traced
// runs put a seam on each side of the injector.
func cacheDevice(o harness.StackOpts, pages int64, s *stack) blockdev.Device {
	if o.DataMode {
		s.flash = ssd.NewData("ssd", ssd.DefaultConfig(pages))
	} else {
		s.flash = ssd.New("ssd", ssd.DefaultConfig(pages))
	}
	var dev blockdev.Device = s.flash
	if s.tr.on {
		dev = &timedDev{inner: dev, tr: s.tr, l: s.ly.ssd}
	}
	dev = blockdev.NewFaultInjector(dev, o.Seed^0x55D)
	if s.tr.on {
		dev = &timedDev{inner: dev, tr: s.tr, l: s.ly.inject}
	}
	return dev
}

func (s *stack) wrapCodec(c delta.Codec) delta.Codec {
	if !s.tr.on {
		return c
	}
	return &timedCodec{inner: c, tr: s.tr, encode: s.ly.encode, decode: s.ly.decode}
}

func (s *stack) wrapBackend(b cache.Backend) cache.Backend {
	if !s.tr.on {
		return b
	}
	return &timedBackend{inner: b, tr: s.tr, l: s.ly.backend}
}

// buildKDD assembles the single-engine KDD stack over parity RAID from
// the packages' constructors, with the parameters harness.Build derives
// from the same options (every field the options leave to defaults is
// set explicitly by the workload, so both assemblies read one value).
func buildKDD(o harness.StackOpts, traced bool) (*stack, error) {
	s := &stack{tr: newTracer(traced), ly: newLayers("raid")}
	arr, err := raid.New(raid.Config{Level: o.Level, ChunkPages: o.ChunkPages}, members(o, o.DiskPages, s))
	if err != nil {
		return nil, err
	}
	s.array = arr
	metaPages := metaPagesFor(o.CachePages, o.MetaFrac)
	dev := cacheDevice(o, o.CachePages+metaPages, s)
	var codec delta.Codec = delta.NewModelled(o.Seed+99, o.DeltaMean)
	if o.DataMode {
		codec = delta.ZRLE{}
	}
	s.kdd, err = core.New(core.Config{
		SSD:        dev,
		Backend:    s.wrapBackend(arr),
		CachePages: o.CachePages,
		Ways:       o.Ways,
		MetaPages:  metaPages,
		Codec:      s.wrapCodec(codec),
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// planeOpts shapes the multi-tenant workload's plane.
type planeOpts struct {
	stack   harness.StackOpts // member, cache and seed geometry
	tenants []qos.TenantSpec
	window  sim.Time // QoS accounting window
	segRows int64
}

// buildPlane assembles the sharded plane (deterministic scheduler,
// coalescing on) with a QoS controller over log-structured RAID. The
// lsraid member sizing is harness.Build's: oversized members so the log
// exports (Disks-1)*DiskPages logical pages with GC headroom.
func buildPlane(p planeOpts, traced bool) (*stack, error) {
	o := p.stack
	s := &stack{tr: newTracer(traced), ly: newLayers("lsraid")}
	segPages := p.segRows * int64(o.Disks-1)
	target := int64(o.Disks-1) * o.DiskPages
	memberPages := ((target+segPages-1)/segPages + 16) * p.segRows
	ls, err := lsraid.New(lsraid.Config{
		ChunkPages:   o.ChunkPages,
		SegRows:      p.segRows,
		LogicalPages: target,
		Seed:         o.Seed ^ 0x15AA1D,
	}, members(o, memberPages, s))
	if err != nil {
		return nil, err
	}
	s.array, s.ls = ls, ls
	metaPages := metaPagesFor(o.CachePages, o.MetaFrac)
	dev := cacheDevice(o, o.CachePages+metaPages, s)
	s.ctl, err = qos.NewController(qos.Config{Tenants: p.tenants, Window: p.window})
	if err != nil {
		return nil, err
	}
	s.plane, err = shard.New(shard.Config{
		SSD:        dev,
		Backend:    s.wrapBackend(ls),
		CachePages: o.CachePages,
		Ways:       o.Ways,
		MetaPages:  metaPages,
		Codec: func(lane int) delta.Codec {
			return s.wrapCodec(delta.NewModelled(o.Seed+99+uint64(lane), o.DeltaMean))
		},
		Shards:   1,
		Coalesce: true,
		QoS:      s.ctl,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
