package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs the benchmark on a short prefix of the workload and
// returns its parsed result line.
func runShort(t *testing.T, workload, traceMode string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.01",
		"--trace", traceMode, "--requests", "3000"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("%s: exit %d: %s", workload, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d: %s", workload, res.Correct, res.Failed, res.Attempted, errOut.String())
	}
	return res
}

// deterministic are the end-to-end metrics that depend only on the seed.
var deterministic = []string{
	"virt_mean_ms", "virt_p99_ms", "hit_ratio",
	"ssd_writes_per_user_write", "member_write_amp", "served_frac",
}

// TestSmoke runs every workload briefly: every metric BENCHMARK.json
// names is printed with its unit, and the deterministic metrics repeat
// exactly across two runs.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(benches))
	}
	for _, w := range s.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			a := runShort(t, w, "0")
			for _, m := range s.EndToEnd {
				got, ok := a.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (printed %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(a.Metrics) != len(s.EndToEnd) {
				t.Errorf("printed %d end-to-end metrics, BENCHMARK.json names %d", len(a.Metrics), len(s.EndToEnd))
			}
			b := runShort(t, w, "0")
			for _, n := range deterministic {
				if a.Metrics[n] != b.Metrics[n] {
					t.Errorf("%s differs across runs: %v vs %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
			}
			l := runShort(t, w, "1")
			for _, m := range s.PerLayer {
				got, ok := l.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (printed %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(l.Metrics) != len(s.PerLayer) {
				t.Errorf("printed %d per-layer metrics, BENCHMARK.json names %d", len(l.Metrics), len(s.PerLayer))
			}
		})
	}
}

// TestBadFlags checks that unusable arguments exit non-zero without a
// result line.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fin1-evict", "--trace", "2"},
		{"--workload", "fin1-evict", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
