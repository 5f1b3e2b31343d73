package main

import (
	"fmt"

	"kddcache/internal/core"
	"kddcache/internal/harness"
)

// checkHarnessEquiv replays a prefix of the workload through the
// benchmark's own assembly and through harness.Build with the same
// options, and requires identical cache statistics, RAID statistics and
// engine state digests: the benchmark measures the stack the figures
// run. Workloads harness.Build does not assemble (the plane) are skipped.
func checkHarnessEquiv(b *bench, seed uint64) error {
	if b.opts == nil {
		return nil
	}
	reqs := b.synth(seed)
	if len(reqs) > equivPrefix {
		reqs = reqs[:equivPrefix]
	}
	mine, err := b.build(seed, false)
	if err != nil {
		return err
	}
	st, err := harness.Build(*b.opts(seed))
	if err != nil {
		return fmt.Errorf("harness.Build: %w", err)
	}
	k, ok := st.Policy.(*core.KDD)
	if !ok {
		return fmt.Errorf("harness.Build returned policy %s, want KDD", st.Policy.Name())
	}
	theirs := &stack{kdd: k, array: st.Array, flash: st.FlashModel, tr: newTracer(false), ly: newLayers("raid")}
	for _, s := range []*stack{mine, theirs} {
		var data *pageData
		if b.data {
			data = newPageData(seed)
		}
		if err := replayKDD(s, reqs, data, &pass{}); err != nil {
			return err
		}
	}
	switch {
	case *mine.kdd.Stats() != *theirs.kdd.Stats():
		return fmt.Errorf("cache stats differ from harness.Build:\n  bench   %+v\n  harness %+v", *mine.kdd.Stats(), *theirs.kdd.Stats())
	case mine.array.Stats() != theirs.array.Stats():
		return fmt.Errorf("raid stats differ from harness.Build:\n  bench   %+v\n  harness %+v", mine.array.Stats(), theirs.array.Stats())
	case mine.kdd.StateDigest() != theirs.kdd.StateDigest():
		return fmt.Errorf("state digest %x differs from harness.Build's %x", mine.kdd.StateDigest(), theirs.kdd.StateDigest())
	}
	return nil
}
