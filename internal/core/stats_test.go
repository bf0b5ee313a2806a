package core

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// denseCountProgram is a representative workload for stats tests: one
// dense in-degree pass with a break (so SympleGraph mode emits
// dependency traffic), a sparse push, and a barrier.
func denseCountProgram(breakEarly bool) func(w *Worker) error {
	return func(w *Worker) error {
		_, err := ProcessEdgesDense(w, DenseParams[uint32]{
			Codec: U32Codec{},
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
					if breakEarly {
						ctx.Emit(1)
						ctx.EmitDep()
						return
					}
				}
				ctx.Emit(uint32(len(srcs)))
			},
			Slot: func(dst graph.VertexID, msg uint32) int64 { return int64(msg) },
		})
		if err != nil {
			return err
		}
		lo, hi := w.MasterRange()
		frontier := make([]graph.VertexID, 0, hi-lo)
		for v := lo; v < hi; v++ {
			frontier = append(frontier, graph.VertexID(v))
		}
		if _, err := ProcessEdgesSparse(w, SparseParams[uint32]{
			Codec:    U32Codec{},
			Frontier: frontier,
			Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
				for _, d := range dsts {
					ctx.Edge()
					ctx.EmitTo(d, 1)
				}
			},
			Slot: func(dst graph.VertexID, msg uint32) int64 { return int64(msg) },
		}); err != nil {
			return err
		}
		return w.Barrier()
	}
}

// TestStatsNodeSharesSumToTotals is the snapshot API's core invariant:
// per-node byte/message/work shares sum exactly to the aggregate
// counters, across modes and transports.
func TestStatsNodeSharesSumToTotals(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 11)
	for _, mode := range []Mode{ModeSympleGraph, ModeGemini} {
		for _, transport := range []string{"mem", "tcp"} {
			t.Run(mode.String()+"/"+transport, func(t *testing.T) {
				opts := Options{NumNodes: 4, Mode: mode, DepThreshold: 8, NumBuffers: 2}
				if transport == "tcp" {
					eps, err := comm.NewTCPClusterLoopback(4)
					if err != nil {
						t.Fatal(err)
					}
					opts.Endpoints = make([]comm.Endpoint, len(eps))
					for i, e := range eps {
						opts.Endpoints[i] = e
						defer e.Close()
					}
				}
				c := mustCluster(t, g, opts)
				if err := c.Run(denseCountProgram(mode == ModeSympleGraph)); err != nil {
					t.Fatal(err)
				}
				s := c.Stats()
				if len(s.Nodes) != 4 {
					t.Fatalf("%d node entries", len(s.Nodes))
				}
				var sum NodeRunStats
				for i, n := range s.Nodes {
					if n.Node != i {
						t.Fatalf("node entry %d has ID %d", i, n.Node)
					}
					sum.EdgesTraversed += n.EdgesTraversed
					sum.VerticesSkipped += n.VerticesSkipped
					sum.UpdateBytes += n.UpdateBytes
					sum.DependencyBytes += n.DependencyBytes
					sum.ControlBytes += n.ControlBytes
					sum.UpdateMessages += n.UpdateMessages
					sum.DependencyMessages += n.DependencyMessages
					sum.DependencyWait += n.DependencyWait
					sum.UpdateWait += n.UpdateWait
				}
				tot := s.Totals
				if sum.UpdateBytes != tot.UpdateBytes ||
					sum.DependencyBytes != tot.DependencyBytes ||
					sum.ControlBytes != tot.ControlBytes {
					t.Fatalf("byte shares %+v do not sum to totals %+v", sum, tot)
				}
				if sum.UpdateBytes+sum.DependencyBytes+sum.ControlBytes != tot.TotalBytes() {
					t.Fatalf("per-node TotalBytes mismatch")
				}
				if sum.EdgesTraversed != tot.EdgesTraversed ||
					sum.VerticesSkipped != tot.VerticesSkipped ||
					sum.UpdateMessages != tot.UpdateMessages ||
					sum.DependencyMessages != tot.DependencyMessages ||
					sum.DependencyWait != tot.DependencyWait ||
					sum.UpdateWait != tot.UpdateWait {
					t.Fatalf("work shares %+v do not sum to totals %+v", sum, tot)
				}
				if mode == ModeSympleGraph && tot.DependencyBytes == 0 {
					t.Fatal("no dependency traffic in SympleGraph mode")
				}
				if mode == ModeGemini && tot.DependencyBytes != 0 {
					t.Fatalf("Gemini sent %d dependency bytes", tot.DependencyBytes)
				}
			})
		}
	}
}

// TestStatsTracerPhases checks that an attached tracer yields per-phase
// histograms in the snapshot, covering dense steps, waits and barriers,
// with exact span counts for the pipelined dependency groups: every
// non-empty group of a step receives one frame (DepWait) unless the
// step is the first, and assembles (DenseBin) and forwards
// (BufferFlush) one unless the step is the last. The one-lane dense
// pass makes some steps' frames large enough to split. The subtest is
// named for the binned scan, the one dense scan path.
func TestStatsTracerPhases(t *testing.T) {
	t.Run("binned", func(t *testing.T) {
		g := graph.RMAT(10, 8, graph.Graph500Params(), 11)
		const p, B = 4, 4
		tr := obs.NewTracer()
		c := mustCluster(t, g, Options{NumNodes: p, Mode: ModeSympleGraph, DepThreshold: 0, NumBuffers: B, Tracer: tr})
		err := c.Run(func(w *Worker) error {
			if _, err := ProcessEdgesDense(w, DenseParams[uint32]{
				Codec: U32Codec{},
				Lanes: 1,
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.SetDepFloat(0, ctx.DepFloat(0)+float64(len(srcs)))
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(dst graph.VertexID, msg uint32) int64 { return int64(msg) },
			}); err != nil {
				return err
			}
			return denseCountProgram(true)(w)
		})
		if err != nil {
			t.Fatal(err)
		}
		byPhase := map[obs.Phase]int64{}
		nodesSeen := map[int]bool{}
		for _, ps := range c.Stats().Phases {
			byPhase[ps.Phase] += ps.Hist.Count
			nodesSeen[ps.Node] = true
		}
		if len(nodesSeen) != p {
			t.Fatalf("phases cover %d nodes", len(nodesSeen))
		}

		// Expected spans, walking every (node, step, group) of both passes.
		var depWait, depSend, scans, split int64
		for _, lanes := range []int{1, 0} {
			for m := 0; m < p; m++ {
				for j := 0; j < p; j++ {
					d := (m + 1 + j) % p
					T := len(c.class.Highs[d])
					groups := depGroups(T, lanes, B)
					if groups > 1 {
						split++
					}
					scans++ // the low-degree scan
					for k := 0; k < groups; k++ {
						lo, hi := groupBound(T, groups, k), groupBound(T, groups, k+1)
						if len(c.layouts[m].Blocks[d].TrackedSlice(lo, hi)) > 0 {
							scans++
						}
						if lo == hi {
							continue
						}
						if j > 0 {
							depWait++
						}
						if j < p-1 {
							depSend++
						}
					}
				}
			}
		}
		if split == 0 {
			t.Fatal("no step split its dependency frame; the test does not exercise pipelining")
		}
		want := map[obs.Phase]int64{
			obs.PhaseDenseStep:   2 * p * p,
			obs.PhaseDenseScan:   scans,
			obs.PhaseDepWait:     depWait,
			obs.PhaseDenseBin:    depSend,
			obs.PhaseBufferFlush: depSend,
			obs.PhaseDenseFlush:  2 * p * (p - 1), // one update frame per remote step
			obs.PhaseSparsePush:  p,
			obs.PhaseUpdateWait:  3 * p * (p - 1),
		}
		for ph, n := range want {
			if byPhase[ph] != n {
				t.Errorf("%v count %d, want %d", ph, byPhase[ph], n)
			}
		}
		if byPhase[obs.PhaseBarrier] == 0 {
			t.Fatalf("missing barrier spans: %v", byPhase)
		}
		if got := c.Stats().Totals.DependencyMessages; got != depSend {
			t.Fatalf("%d dependency frames, want %d", got, depSend)
		}
	})
}

// TestStatsWarningsReportClamps checks that explicitly out-of-range
// NumBuffers/Workers are clamped loudly, while the zero default stays
// silent.
func TestStatsWarningsReportClamps(t *testing.T) {
	g := graph.Ring(64)
	c := mustCluster(t, g, Options{NumNodes: 2, NumBuffers: -3, Workers: -1})
	warns := c.Stats().Warnings
	if len(warns) != 2 {
		t.Fatalf("warnings %v, want 2 entries", warns)
	}
	joined := strings.Join(warns, "\n")
	for _, want := range []string{"NumBuffers clamped from -3", "-buffers", "Workers clamped from -1", "-workers"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("warnings %v missing %q", warns, want)
		}
	}
	if c.Options().NumBuffers != 1 || c.Options().Workers != 1 {
		t.Fatalf("clamp not applied: %+v", c.Options())
	}

	quiet := mustCluster(t, g, Options{NumNodes: 2})
	if w := quiet.Stats().Warnings; len(w) != 0 {
		t.Fatalf("default options produced warnings %v", w)
	}
}

// TestOptionErrorsNameFlags checks validation errors carry the CLI flag
// vocabulary.
func TestOptionErrorsNameFlags(t *testing.T) {
	g := graph.Ring(8)
	cases := []struct {
		opts Options
		flag string
	}{
		{Options{NumNodes: 0}, "-nodes"},
		{Options{NumNodes: 2, DepThreshold: -1}, "-threshold"},
		{Options{NumNodes: 2, Mode: Mode(99)}, "-mode"},
	}
	for _, tc := range cases {
		_, err := NewCluster(g, tc.opts)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("opts %+v: error %v does not name %s", tc.opts, err, tc.flag)
		}
	}
}

// TestClusterRegisterMetrics checks the live-gauge registration against
// a run's actual counters.
func TestClusterRegisterMetrics(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 5)
	c := mustCluster(t, g, Options{NumNodes: 2, Mode: ModeSympleGraph, DepThreshold: 0})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	if err := c.Run(denseCountProgram(false)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["config.mode"] != "symplegraph" {
		t.Fatalf("config.mode = %v", snap["config.mode"])
	}
	sent, ok := snap["comm.node0.update.sent_bytes"].(int64)
	if !ok || sent <= 0 {
		t.Fatalf("comm.node0.update.sent_bytes = %v", snap["comm.node0.update.sent_bytes"])
	}
	if _, ok := snap["comm.link.0-1.sent_bytes"].(int64); !ok {
		t.Fatalf("missing per-link gauge: %v", snap["comm.link.0-1.sent_bytes"])
	}
}
