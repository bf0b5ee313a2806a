package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedBaselinesParse loads every committed BENCH_<n>.json at
// the repository root. Reports written before the engine lost its
// alternative scan and data-plane paths still carry fields recording
// which path produced them; the reader must keep accepting them, and
// each report must hold the full 8-algorithm × 2-mode × 2-size sweep.
func TestCommittedBaselinesParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("found %d committed baselines, want BENCH_0 through BENCH_2 at least", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rep, err := ReadBaseline(f)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Schema != 1 || rep.Scale != 13 || rep.Seed != 42 {
				t.Fatalf("header schema=%d scale=%d seed=%d", rep.Schema, rep.Scale, rep.Seed)
			}
			seen := map[string]bool{}
			for _, c := range rep.Cells {
				if c.Supersteps <= 0 || c.AllocsPerOp <= 0 || c.BytesMoved <= 0 {
					t.Fatalf("cell %s has empty counters: %+v", c.Key(), c)
				}
				seen[c.Key()] = true
			}
			for _, algo := range BaselineAlgos {
				for _, mode := range []string{"symplegraph", "gemini"} {
					for _, nodes := range []int{2, 4} {
						if key := fmt.Sprintf("%s/%s/n%d", algo, mode, nodes); !seen[key] {
							t.Fatalf("missing cell %s", key)
						}
					}
				}
			}
			if regs := CompareBaselines(rep, rep, 0.10); len(regs) != 0 {
				t.Fatalf("a report regresses against itself: %v", regs)
			}
		})
	}
}
