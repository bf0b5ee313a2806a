package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// The committed perf baseline (BENCH_<n>.json). Each harness run sweeps
// all eight algorithms across both engine modes and two cluster sizes on
// a fixed deterministic workload, recording per-cell engine seconds,
// bytes moved, allocations per superstep and messages per superstep.
// Successive BENCH files form the repo's performance trajectory;
// bench-check compares the working tree against the newest committed
// file and fails on regressions.

// BaselineAlgos lists the eight benchmarked algorithms in report order.
var BaselineAlgos = []string{
	"bfs", "sssp", "kcore", "mis", "kmeans", "sampling", "pagerank", "cc",
}

// BaselineCell is one (algorithm, mode, nodes) measurement.
type BaselineCell struct {
	Algo  string `json:"algo"`
	Mode  string `json:"mode"`
	Nodes int    `json:"nodes"`

	// EngineSeconds is engine wall time (RunStats.Elapsed) summed over
	// the cell's runs.
	EngineSeconds float64 `json:"engine_seconds"`
	// BytesMoved is all sent traffic (update + dependency + control).
	BytesMoved int64 `json:"bytes_moved"`
	// Supersteps counts edge-processing passes summed over machines.
	Supersteps int64 `json:"supersteps"`
	// Messages counts update + dependency messages sent.
	Messages int64 `json:"messages"`
	// AllocsPerOp is the heap-allocation count (runtime Mallocs delta
	// across the cell) divided by Supersteps — the data-plane cost the
	// zero-copy path attacks.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// MessagesPerSuperstep is Messages / Supersteps.
	MessagesPerSuperstep float64 `json:"messages_per_superstep"`
	// FramesPerSuperstep is the wire-frame count per superstep. The
	// data plane sends one frame per Send/SendBufs call, so this equals
	// MessagesPerSuperstep; it is recorded under its own name because
	// frame batching is what the binned scan optimizes.
	FramesPerSuperstep float64 `json:"frames_per_superstep"`
	// BytesPerFrame is BytesMoved / Messages — how much payload each
	// frame carries. Binning should push this up as frame counts drop.
	BytesPerFrame float64 `json:"bytes_per_frame"`
	// DenseStepSeconds is the summed PhaseDenseStep span time across
	// nodes, measured on one extra traced run (not the timed repeats,
	// so EngineSeconds stays comparable to untraced baselines).
	DenseStepSeconds float64 `json:"dense_step_seconds"`
}

// Key identifies the cell within a report.
func (c BaselineCell) Key() string {
	return fmt.Sprintf("%s/%s/n%d", c.Algo, c.Mode, c.Nodes)
}

// BaselineReport is the schema of a BENCH_<n>.json artifact.
type BaselineReport struct {
	Schema int            `json:"schema"`
	Scale  int            `json:"scale"`
	Seed   uint64         `json:"seed"`
	Cells  []BaselineCell `json:"cells"`
}

// BaselineConfig are the harness knobs. The zero value selects the
// committed-artifact defaults; every field is deterministic.
type BaselineConfig struct {
	// Scale is the R-MAT scale of the workload graph.
	Scale int
	// Seed drives graph generation and every algorithm draw.
	Seed uint64
	// NodeCounts are the simulated cluster sizes swept.
	NodeCounts []int
	// Repeats re-runs each cell and keeps the fastest run (work,
	// traffic and allocation counts are deterministic across repeats;
	// only wall time is noisy).
	Repeats int
}

func (c BaselineConfig) defaults() BaselineConfig {
	if c.Scale == 0 {
		c.Scale = 13
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if len(c.NodeCounts) == 0 {
		c.NodeCounts = []int{2, 4}
	}
	if c.Repeats == 0 {
		c.Repeats = 5
	}
	return c
}

// baselineModes are the engine modes swept, with their standard knobs.
var baselineModes = []Variant{VariantSympleGraph, VariantGemini}

// RunBaseline runs the full sweep and returns the report. The workload
// is a fixed R-MAT graph (symmetrized for the undirected algorithms,
// weighted for SSSP) on the in-memory transport with instant links, so
// engine seconds measure compute and copying rather than simulated
// wire delay.
func RunBaseline(cfg BaselineConfig) (*BaselineReport, error) {
	cfg = cfg.defaults()
	p := graph.Graph500Params()
	base := graph.RMAT(cfg.Scale, 16, p, int64(cfg.Seed))
	sym := graph.Symmetrize(base)
	weighted := graph.RandomWeights(sym, int64(cfg.Seed)+1)

	rep := &BaselineReport{Schema: 1, Scale: cfg.Scale, Seed: cfg.Seed}
	for _, v := range baselineModes {
		for _, nodes := range cfg.NodeCounts {
			for _, algo := range BaselineAlgos {
				var best BaselineCell
				for r := 0; r < cfg.Repeats; r++ {
					cell, err := runBaselineCell(algo, v, nodes, cfg, base, sym, weighted, nil)
					if err != nil {
						return nil, fmt.Errorf("bench: baseline %s: %w", cell.Key(), err)
					}
					if r == 0 || cell.EngineSeconds < best.EngineSeconds {
						best = cell
					}
				}
				// One extra traced run for the phase-time column; the
				// tracer's span overhead stays out of the timed repeats.
				tr := obs.NewTracer()
				traced, err := runBaselineCell(algo, v, nodes, cfg, base, sym, weighted, tr)
				if err != nil {
					return nil, fmt.Errorf("bench: baseline %s (traced): %w", traced.Key(), err)
				}
				best.DenseStepSeconds = traced.DenseStepSeconds
				rep.Cells = append(rep.Cells, best)
			}
		}
	}
	return rep, nil
}

func runBaselineCell(algo string, v Variant, nodes int, cfg BaselineConfig,
	base, sym, weighted *graph.Graph, tr *obs.Tracer) (BaselineCell, error) {
	cell := BaselineCell{Algo: algo, Mode: v.Mode.String(), Nodes: nodes}
	g := base
	switch algo {
	case "sssp":
		g = weighted
	case "kcore", "mis", "kmeans", "cc":
		g = sym
	}
	c, err := core.NewCluster(g, core.Options{
		NumNodes:     nodes,
		Mode:         v.Mode,
		DepThreshold: v.DepThreshold,
		NumBuffers:   v.NumBuffers,
		Link:         &comm.LinkModel{}, // instant: measure compute, not simulated wire
		Tracer:       tr,
	})
	if err != nil {
		return cell, err
	}
	defer c.Close()

	run := func() error {
		switch algo {
		case "bfs":
			for _, root := range bfsRoots(g, cfg.Seed, 4) {
				if _, err := algorithms.BFS(c, root); err != nil {
					return err
				}
			}
			return nil
		case "sssp":
			roots := bfsRoots(g, cfg.Seed, 4)
			for _, root := range roots {
				if _, err := algorithms.SSSP(c, root); err != nil {
					return err
				}
			}
			return nil
		case "kcore":
			_, err := algorithms.KCore(c, 8)
			return err
		case "mis":
			_, err := algorithms.MIS(c, cfg.Seed)
			return err
		case "kmeans":
			_, err := algorithms.KMeans(c, 16, 3, cfg.Seed)
			return err
		case "sampling":
			_, err := algorithms.Sample(c, cfg.Seed, 4)
			return err
		case "pagerank":
			_, err := algorithms.PageRank(c, 5, 0.85)
			return err
		case "cc":
			_, err := algorithms.ConnectedComponents(c)
			return err
		default:
			return fmt.Errorf("unknown algorithm %q", algo)
		}
	}

	// Mallocs is cumulative across the process; the delta over the cell
	// (after a settling GC) is the engine's allocation bill for the run.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := run(); err != nil {
		return cell, err
	}
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs - before.Mallocs)

	s := c.Stats().Totals
	cell.EngineSeconds = s.Elapsed.Seconds()
	cell.BytesMoved = s.TotalBytes()
	cell.Supersteps = s.Supersteps
	cell.Messages = s.UpdateMessages + s.DependencyMessages
	if s.Supersteps > 0 {
		cell.AllocsPerOp = float64(allocs) / float64(s.Supersteps)
		cell.MessagesPerSuperstep = float64(cell.Messages) / float64(s.Supersteps)
		cell.FramesPerSuperstep = cell.MessagesPerSuperstep
	}
	if cell.Messages > 0 {
		cell.BytesPerFrame = float64(cell.BytesMoved) / float64(cell.Messages)
	}
	if tr != nil {
		var dense time.Duration
		for _, ps := range c.Stats().Phases {
			if ps.Phase == obs.PhaseDenseStep {
				dense += ps.Hist.Sum
			}
		}
		cell.DenseStepSeconds = dense.Seconds()
	}
	return cell, nil
}

// WriteJSON writes the report, stable-sorted by cell key.
func (r *BaselineReport) WriteJSON(w io.Writer) error {
	sort.SliceStable(r.Cells, func(i, j int) bool { return r.Cells[i].Key() < r.Cells[j].Key() })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBaseline parses a BENCH_<n>.json artifact.
func ReadBaseline(rd io.Reader) (*BaselineReport, error) {
	var r BaselineReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parse baseline: %w", err)
	}
	return &r, nil
}

// minCheckSeconds is the timing-noise floor: cells where both sides run
// faster than this are not compared on engine seconds (sub-50ms cells
// swing far more than 10% run to run on a loaded machine).
const minCheckSeconds = 0.05

// CompareBaselines reports regressions of next against prev: cells whose
// engine seconds (above the noise floor) or allocs/op worsened by more
// than tolerance (e.g. 0.10 = 10%). Cells present on only one side are
// ignored — adding or retiring an algorithm is not a regression.
func CompareBaselines(prev, next *BaselineReport, tolerance float64) []string {
	old := map[string]BaselineCell{}
	for _, c := range prev.Cells {
		old[c.Key()] = c
	}
	var regressions []string
	for _, c := range next.Cells {
		p, ok := old[c.Key()]
		if !ok {
			continue
		}
		if p.EngineSeconds > minCheckSeconds || c.EngineSeconds > minCheckSeconds {
			if worsened(p.EngineSeconds, c.EngineSeconds, tolerance) {
				regressions = append(regressions,
					fmt.Sprintf("%s: engine seconds %.4f -> %.4f (+%.1f%%)",
						c.Key(), p.EngineSeconds, c.EngineSeconds, pctWorse(p.EngineSeconds, c.EngineSeconds)))
			}
		}
		if worsened(p.AllocsPerOp, c.AllocsPerOp, tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %.1f -> %.1f (+%.1f%%)",
					c.Key(), p.AllocsPerOp, c.AllocsPerOp, pctWorse(p.AllocsPerOp, c.AllocsPerOp)))
		}
	}
	sort.Strings(regressions)
	return regressions
}

func worsened(prev, next, tolerance float64) bool {
	return prev > 0 && next > prev*(1+tolerance)
}

func pctWorse(prev, next float64) float64 {
	if prev <= 0 {
		return 0
	}
	return (next/prev - 1) * 100
}
