// Command perfbench is the repository's benchmark. It replays a seeded
// workload through the KDD stack, checks the outputs, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --workload fin1-evict --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// alternates untraced and traced passes and reports per-layer metrics
// from the traced ones: each seam (core calls, the SSD fault injector,
// the flash model, the array backend, the member disks, the delta codec,
// plane batches) is wrapped in a host-time decorator, and a layer's self
// time is the time inside its wrapper minus the time inside the wrappers
// it called. See README.md for the workloads and the metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"kddcache/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are one invocation's settings.
type opts struct {
	bench    *bench
	seed     uint64
	seconds  float64
	traced   bool
	requests int // replay only this many requests per pass; 0 = all
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fin1-evict, fin2-data-fit or tenants-lsraid")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds of replay to measure")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from traced passes")
	requests := fs.Int("requests", 0, "replay only the first N requests of each pass (0: all); for quick smoke runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := opts{bench: findBench(*name), seed: *seed, seconds: *seconds, traced: *traceMode == 1, requests: *requests}
	if o.bench == nil || (*traceMode != 0 && *traceMode != 1) || *seconds <= 0 || *requests < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --trace 0|1, --seconds > 0\n", strings.Join(benchNames(), ","))
		return 2
	}
	fmt.Fprintf(stdout, "host: %s\n", hostJSON())
	res := measure(o, stderr)
	if o.traced {
		printShares(stdout, res.Metrics)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func benchNames() []string {
	var n []string
	for _, b := range benches {
		n = append(n, b.name)
	}
	return n
}

// measure runs the passes for one invocation and computes its metrics.
// A failed check is reported on stderr and clears Correct; the metrics
// of the passes that did complete are still printed.
func measure(o opts, stderr io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: check failed: %v\n", err)
	}
	b := o.bench
	synth := b.synth
	if o.requests > 0 {
		b = &bench{name: b.name, build: b.build, data: b.data, opts: b.opts, synth: func(seed uint64) []trace.Request {
			reqs := synth(seed)
			if len(reqs) > o.requests {
				reqs = reqs[:o.requests]
			}
			return reqs
		}}
	}
	if err := checkHarnessEquiv(b, o.seed); err != nil {
		fail(fmt.Errorf("%s: equivalence with harness.Build: %w", b.name, err))
	}

	// Traced runs interleave untraced and traced passes, so both see the
	// same machine conditions and the overhead compares like with like.
	mode := []bool{false}
	if o.traced {
		mode = []bool{false, true}
	}
	var plain, traced []*pass
	deadline := nanotime() + int64(o.seconds*1e9)
	for {
		for _, tr := range mode {
			p, err := runPass(b, o.seed, tr)
			res.Attempted += p.det.attempted
			res.Failed += p.failed
			if err != nil {
				fail(err)
				break
			}
			if tr {
				traced = append(traced, p)
			} else {
				plain = append(plain, p)
			}
		}
		if !res.Correct {
			break
		}
		enough := len(plain) >= 3 || o.traced
		if enough && nanotime() >= deadline {
			break
		}
	}
	// Every pass of a seed must produce the same deterministic outputs,
	// traced or not: the decorators observe the program without changing
	// it.
	all := append(append([]*pass(nil), plain...), traced...)
	for i := 1; i < len(all); i++ {
		if err := sameDet(all[0].det, all[i].det); err != nil {
			fail(err)
			break
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract requires at least one; Correct is already false
	}
	if o.traced {
		layerMetrics(res.Metrics, plain, traced)
	} else {
		endToEnd(res.Metrics, plain)
	}
	return res
}

// sameDet compares two passes' deterministic outputs.
func sameDet(a, b det) error {
	switch {
	case a.cache != b.cache:
		return fmt.Errorf("cache stats differ between passes: %+v vs %+v", a.cache, b.cache)
	case a.raid != b.raid:
		return fmt.Errorf("raid stats differ between passes: %+v vs %+v", a.raid, b.raid)
	case a.digest != b.digest:
		return fmt.Errorf("state digest differs between passes: %x vs %x", a.digest, b.digest)
	case a.virtHash != b.virtHash || a.virtCount != b.virtCount:
		return fmt.Errorf("virtual latency sequence differs between passes")
	case a.memberW != b.memberW || a.memberR != b.memberR || a.ssdHostW != b.ssdHostW ||
		a.ssdFlashW != b.ssdFlashW || a.metaPages != b.metaPages || a.staleEnd != b.staleEnd:
		return fmt.Errorf("device counters differ between passes")
	case a.attempted != b.attempted || a.served != b.served || a.userWrites != b.userWrites ||
		a.rungMax != b.rungMax || a.coalesced != b.coalesced || fmt.Sprint(a.qos) != fmt.Sprint(b.qos):
		return fmt.Errorf("request outcomes differ between passes")
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// throughput is a pass's user requests per host second, in thousands.
func throughput(p *pass) float64 {
	return ratio(float64(p.det.attempted)*1e6, float64(p.stackNs))
}

// endToEnd computes the user-visible metrics: host-time ones as medians
// over passes, deterministic ones from the first pass (all passes agree).
func endToEnd(m map[string]metric, ps []*pass) {
	var setup, thr, p50, p99, heap []float64
	for _, p := range ps {
		setup = append(setup, float64(p.setupNs)/1e9)
		thr = append(thr, throughput(p))
		p50 = append(p50, p.hostP50)
		p99 = append(p99, p.hostP99)
		heap = append(heap, float64(p.heapPeak)/(1<<20))
	}
	first := &pass{}
	if len(ps) > 0 {
		first = ps[0]
	}
	d := first.det
	m["setup_s"] = metric{median(setup), "s"}
	m["throughput_kops"] = metric{median(thr), "kops/s"}
	m["host_p50_us"] = metric{median(p50), "us"}
	m["host_p99_us"] = metric{median(p99), "us"}
	m["virt_mean_ms"] = metric{first.virtMean, "ms"}
	m["virt_p99_ms"] = metric{first.virtP99, "ms"}
	m["hit_ratio"] = metric{d.cache.HitRatio(), "ratio"}
	m["ssd_writes_per_user_write"] = metric{ratio(float64(d.cache.SSDWrites()), float64(d.userWrites)), "ratio"}
	m["member_write_amp"] = metric{ratio(float64(d.memberW), float64(d.userWrites)), "ratio"}
	m["served_frac"] = metric{ratio(float64(d.served), float64(d.attempted)), "ratio"}
	m["heap_peak_mb"] = metric{median(heap), "MB"}
}

// layerMetrics computes the per-layer metrics: times pooled over the
// traced passes, counts from the first traced pass (all passes agree),
// and the tracing overhead from the interleaved untraced passes.
func layerMetrics(m map[string]metric, plain, traced []*pass) {
	ly := newLayers("")
	var ops float64
	for _, p := range traced {
		ops += float64(p.det.attempted)
		ly.backendName = p.ly.backendName
		pl := p.ly.all()
		for i, l := range ly.all() {
			l.add(pl[i])
		}
	}
	var d det
	if len(traced) > 0 {
		d = traced[0].det
	}
	// us converts pooled nanoseconds to microseconds.
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	kop := float64(d.attempted) / 1000
	perKop := func(n int64) float64 { return ratio(float64(n), kop) }
	perOp := func(l *layer) float64 { return ratio(us(l.selfNs), ops) }
	perCall := func(l *layer, ns int64) float64 { return ratio(us(ns), float64(l.calls)) }
	perPage := func(l *layer) float64 { return ratio(us(l.selfNs), float64(l.pagesR+l.pagesW)) }
	backendSelf := func(name string) float64 {
		if ly.backendName != name {
			return 0
		}
		return perOp(ly.backend)
	}

	m["core.write_self_us"] = metric{perCall(ly.coreWrite, ly.coreWrite.selfNs), "us/call"}
	m["core.read_self_us"] = metric{perCall(ly.coreRead, ly.coreRead.selfNs), "us/call"}
	m["core.idle_clean_us"] = metric{perOp(ly.coreClean), "us/op"}
	m["core.evictions_per_kop"] = metric{perKop(d.cache.Evictions), "1/kop"}
	m["core.cleaner_runs"] = metric{float64(d.cache.CleanerRuns), "count"}
	m["core.reclaims_per_kop"] = metric{perKop(d.cache.Reclaims), "1/kop"}
	m["metalog.pages_per_kop"] = metric{perKop(d.metaPages), "1/kop"}
	m["core.self_us"] = metric{ratio(us(ly.coreRead.selfNs+ly.coreWrite.selfNs+ly.coreClean.selfNs), ops), "us/op"}
	m["blockdev.inject_self_us"] = metric{perOp(ly.inject), "us/op"}
	m["ssd.self_us"] = metric{perOp(ly.ssd), "us/op"}
	m["hdd.self_us"] = metric{perOp(ly.hdd), "us/op"}
	m["delta.self_us"] = metric{ratio(us(ly.encode.selfNs+ly.decode.selfNs), ops), "us/op"}
	m["delta.encode_us"] = metric{perCall(ly.encode, ly.encode.selfNs), "us/call"}
	m["delta.decode_us"] = metric{perCall(ly.decode, ly.decode.selfNs), "us/call"}
	m["delta.ratio"] = metric{ratio(float64(ly.encode.encBytes), float64(ly.encode.calls)*4096), "ratio"}
	m["raid.self_us"] = metric{backendSelf("raid"), "us/op"}
	m["raid.parity_update_per_kop"] = metric{perKop(d.raid.ParityFixes), "1/kop"}
	m["raid.noparity_write_per_kop"] = metric{perKop(d.raid.NoParityWr), "1/kop"}
	m["raid.stale_rows_end"] = metric{float64(d.staleEnd), "count"}
	m["ssd.pages_written_per_kop"] = metric{perKop(d.ssdHostW), "1/kop"}
	m["ssd.host_us_per_page"] = metric{perPage(ly.ssd), "us/page"}
	m["ssd.ftl_write_amp"] = metric{ratio(float64(d.ssdFlashW), float64(d.ssdHostW)), "ratio"}
	m["ssd.max_erase"] = metric{float64(d.ssdMaxE), "count"}
	m["hdd.pages_written_per_kop"] = metric{perKop(d.memberW), "1/kop"}
	m["hdd.pages_read_per_kop"] = metric{perKop(d.memberR), "1/kop"}
	m["hdd.host_us_per_page"] = metric{perPage(ly.hdd), "us/page"}
	m["lsraid.self_us"] = metric{backendSelf("lsraid"), "us/op"}
	m["lsraid.gc_copies_per_kop"] = metric{perKop(d.raid.GCCopies), "1/kop"}
	m["lsraid.gc_segments"] = metric{float64(d.raid.GCSegments), "count"}
	m["shard.batch_us"] = metric{perCall(ly.batch, ly.batch.totNs), "us/batch"}
	m["shard.self_us_per_op"] = metric{perOp(ly.batch), "us/op"}
	m["shard.ops_per_batch"] = metric{ratio(float64(d.attempted), float64(d.batches)), "ops"}
	m["shard.coalesced_per_kop"] = metric{perKop(d.coalesced), "1/kop"}
	var q struct{ offered, admitted, throttled, shed, bypassed int64 }
	for _, c := range d.qos {
		q.offered += c.Offered
		q.admitted += c.Admitted
		q.throttled += c.Throttled
		q.shed += c.Shed
		q.bypassed += c.Bypassed
	}
	off := float64(q.offered)
	m["qos.admitted_frac"] = metric{ratio(float64(q.admitted), off), "ratio"}
	m["qos.throttled_frac"] = metric{ratio(float64(q.throttled), off), "ratio"}
	m["qos.shed_frac"] = metric{ratio(float64(q.shed), off), "ratio"}
	m["qos.bypassed_frac"] = metric{ratio(float64(q.bypassed), off), "ratio"}
	m["qos.rung_max"] = metric{float64(d.rungMax), "rung"}

	var thrPlain, thrTraced []float64
	for _, p := range plain {
		thrPlain = append(thrPlain, throughput(p))
	}
	for _, p := range traced {
		thrTraced = append(thrTraced, throughput(p))
	}
	m["trace.overhead_pct"] = metric{100 * (ratio(median(thrPlain), median(thrTraced)) - 1), "%"}
}

// selfMetrics are the per-layer self times in microseconds per user
// request; together they account for the stack's host time.
var selfMetrics = []string{
	"core.self_us", "blockdev.inject_self_us", "ssd.self_us", "raid.self_us",
	"lsraid.self_us", "hdd.self_us", "delta.self_us", "shard.self_us_per_op",
}

// printShares prints each layer's share of the traced host time, the
// split the per-layer metrics attribute.
func printShares(w io.Writer, m map[string]metric) {
	var total float64
	for _, n := range selfMetrics {
		total += m[n].Value
	}
	fmt.Fprintf(w, "self time per request, traced: %.3f us\n", total)
	for _, n := range selfMetrics {
		fmt.Fprintf(w, "  %-24s %8.3f us %6.1f%%\n", n, m[n].Value, 100*ratio(m[n].Value, total))
	}
}

func (l *layer) add(o *layer) {
	l.calls += o.calls
	l.selfNs += o.selfNs
	l.totNs += o.totNs
	l.pagesR += o.pagesR
	l.pagesW += o.pagesW
	l.encBytes += o.encBytes
}

// hostJSON records the machine a result was measured on; results
// compare only within one host class.
func hostJSON() string {
	h := map[string]interface{}{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(h) // a map of strings and ints always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
