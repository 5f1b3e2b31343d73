package harness

import (
	"strings"
	"testing"
)

// TestFigureGoldens pins the exact text of the figure and ablation
// sweeps that exercise the cache frame hardest (LRU eviction, the
// cleaner's oldest-first victim order, the fixed-partition DEZ). Any
// change to replacement order, cleaner batching or set mapping shows up
// here as a byte difference. Regenerate with
// `go test ./internal/harness -run TestFigureGoldens -update` only after
// an intended behaviour change.
func TestFigureGoldens(t *testing.T) {
	figures := []struct {
		name string
		run  func(float64) (string, error)
	}{
		{"Fig5", Fig5},
		{"Fig6", Fig6},
		{"Fig9", func(s float64) (string, error) {
			out, _, err := Fig9(s)
			return out, err
		}},
		{"AblationReclaim", AblationReclaim},
		{"AblationPartition", AblationPartition},
	}
	var b strings.Builder
	for _, fg := range figures {
		out, err := fg.run(tinyScale)
		if err != nil {
			t.Fatalf("%s: %v", fg.name, err)
		}
		b.WriteString("== " + fg.name + "\n")
		b.WriteString(out)
		if !strings.HasSuffix(out, "\n") {
			b.WriteString("\n")
		}
	}
	checkGolden(t, "figures.golden", []byte(b.String()))
}
