package core

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/partition"
)

// sweep runs fn under a representative grid of engine configurations.
func sweep(t *testing.T, fn func(t *testing.T, opts Options)) {
	t.Helper()
	for _, p := range []int{1, 2, 4} {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			for _, cfg := range []struct {
				buffers, threshold, workers int
			}{
				{1, 0, 1},
				{2, 8, 2},
				{3, 0, 1},
			} {
				opts := Options{
					NumNodes:     p,
					Mode:         mode,
					DepThreshold: cfg.threshold,
					NumBuffers:   cfg.buffers,
					Workers:      cfg.workers,
				}
				name := fmt.Sprintf("p=%d/%v/B=%d/thr=%d/w=%d", p, mode, cfg.buffers, cfg.threshold, cfg.workers)
				t.Run(name, func(t *testing.T) { fn(t, opts) })
			}
		}
	}
}

// TestDenseInDegreeCount exercises a dense pass with no break: every
// source is scanned and partial counts are aggregated at the master. The
// result must equal the in-degree under every configuration.
func TestDenseInDegreeCount(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 21)
	sweep(t, func(t *testing.T, opts Options) {
		c := mustCluster(t, g, opts)
		counts := make([]uint32, g.NumVertices())
		err := c.Run(func(w *Worker) error {
			_, err := ProcessEdgesDense(w, DenseParams[uint32]{
				Codec: U32Codec{},
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(dst graph.VertexID, msg uint32) int64 {
					counts[dst] += msg // masters own disjoint ranges
					return int64(msg)
				},
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := counts[v], uint32(g.InDegree(graph.VertexID(v))); got != want {
				t.Fatalf("vertex %d: count %d, want %d", v, got, want)
			}
		}
		if got, want := c.Stats().Totals.EdgesTraversed, g.NumEdges(); got != want {
			t.Fatalf("edges traversed %d, want %d", got, want)
		}
	})
}

// ringOrderInNeighbors returns dst's incoming neighbors in the exact
// order the circulant schedule visits them: machine (owner-1), then
// (owner-2), ... then owner itself, ascending source ID within a machine.
func ringOrderInNeighbors(g *graph.Graph, pt *partition.Partition, dst graph.VertexID) []graph.VertexID {
	d := pt.Owner(dst)
	var out []graph.VertexID
	for j := 0; j < pt.P; j++ {
		m := ((d-1-j)%pt.P + pt.P) % pt.P
		lo, hi := pt.Range(m)
		for _, u := range g.InNeighbors(dst) {
			if int(u) >= lo && int(u) < hi {
				out = append(out, u)
			}
		}
	}
	return out
}

// TestDenseBreakFirstMatch is the bottom-up-BFS skeleton: the signal
// emits the first frontier neighbor and breaks. Under every mode and
// configuration the winner must be the first frontier neighbor in ring
// order (updates are applied in step order, so first-wins is
// deterministic), and SympleGraph must traverse no more edges than
// Gemini.
func TestDenseBreakFirstMatch(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 33)
	n := g.NumVertices()
	frontier := bitset.New(n)
	for v := 0; v < n; v += 3 {
		frontier.Set(v)
	}

	traversed := map[string]int64{}
	sweep(t, func(t *testing.T, opts Options) {
		c := mustCluster(t, g, opts)
		const none = ^uint32(0)
		parent := make([]uint32, n)
		for i := range parent {
			parent[i] = none
		}
		err := c.Run(func(w *Worker) error {
			_, err := ProcessEdgesDense(w, DenseParams[uint32]{
				Codec: U32Codec{},
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for _, u := range srcs {
						ctx.Edge()
						if frontier.Get(int(u)) {
							ctx.Emit(uint32(u))
							ctx.EmitDep()
							break
						}
					}
				},
				Slot: func(dst graph.VertexID, msg uint32) int64 {
					if parent[dst] == none {
						parent[dst] = msg
						return 1
					}
					return 0
				},
			})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			want := none
			for _, u := range ringOrderInNeighbors(g, c.Partition(), graph.VertexID(v)) {
				if frontier.Get(int(u)) {
					want = uint32(u)
					break
				}
			}
			if parent[v] != want {
				t.Fatalf("vertex %d: parent %d, want %d", v, parent[v], want)
			}
		}

		s := c.Stats().Totals
		key := fmt.Sprintf("p=%d", opts.NumNodes)
		if opts.Mode == ModeGemini {
			traversed[key] = s.EdgesTraversed
			if s.DependencyBytes != 0 {
				t.Fatalf("Gemini mode sent %d dependency bytes", s.DependencyBytes)
			}
		} else if gem, ok := traversed[key]; ok {
			if s.EdgesTraversed > gem {
				t.Fatalf("SympleGraph traversed %d edges, Gemini %d", s.EdgesTraversed, gem)
			}
			if opts.NumNodes > 1 && s.DependencyBytes == 0 {
				t.Fatal("SympleGraph sent no dependency bytes")
			}
		}
	})
}

// TestDenseDepPruningExactness: with full dependency tracking
// (threshold 0) every destination produces at most one update across the
// whole cluster — the loop-carried semantics is enforced precisely, so
// later machines do not even emit.
func TestDenseDepPruningExactness(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(8, 8, graph.Graph500Params(), 5))
	n := g.NumVertices()
	frontier := bitset.New(n)
	frontier.Fill()
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 0, NumBuffers: 2})
	emitted := make([]int, n)
	err := c.Run(func(w *Worker) error {
		_, err := ProcessEdgesDense(w, DenseParams[uint32]{
			Codec: U32Codec{},
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep()
						break
					}
				}
			},
			Slot: func(dst graph.VertexID, msg uint32) int64 {
				emitted[dst]++ // master-only, disjoint
				return 1
			},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		want := 0
		if g.InDegree(graph.VertexID(v)) > 0 {
			want = 1
		}
		if emitted[v] != want {
			t.Fatalf("vertex %d received %d updates, want %d", v, emitted[v], want)
		}
	}
	// With every vertex in the frontier, each non-isolated destination
	// should cost exactly one edge traversal.
	var nonIsolated int64
	for v := 0; v < n; v++ {
		if g.InDegree(graph.VertexID(v)) > 0 {
			nonIsolated++
		}
	}
	if got := c.Stats().Totals.EdgesTraversed; got != nonIsolated {
		t.Fatalf("edges traversed %d, want %d", got, nonIsolated)
	}
}

// TestDenseDataLane verifies float64 data-dependency propagation: each
// machine accumulates its local source count into the carried lane, and
// the master's Finalize sees the full in-degree for tracked vertices
// while untracked vertices fall back to partial-count updates.
func TestDenseDataLane(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 77)
	n := g.NumVertices()
	for _, threshold := range []int{0, 8} {
		for _, mode := range []Mode{ModeGemini, ModeSympleGraph} {
			for _, p := range []int{1, 3, 4} {
				t.Run(fmt.Sprintf("thr=%d/%v/p=%d", threshold, mode, p), func(t *testing.T) {
					c := mustCluster(t, g, Options{
						NumNodes:     p,
						Mode:         mode,
						DepThreshold: threshold,
						NumBuffers:   2,
					})
					counts := make([]int64, n)
					err := c.Run(func(w *Worker) error {
						_, err := ProcessEdgesDense(w, DenseParams[int64]{
							Codec: I64Codec{},
							Signal: func(ctx *DenseCtx[int64], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
								if ctx.Tracked() {
									acc := ctx.DepFloat(0)
									for range srcs {
										ctx.Edge()
										acc++
									}
									ctx.SetDepFloat(0, acc)
								} else {
									for range srcs {
										ctx.Edge()
									}
									ctx.Emit(int64(len(srcs)))
								}
							},
							Slot: func(dst graph.VertexID, msg int64) int64 {
								counts[dst] += msg
								return 0
							},
							Finalize: func(dst graph.VertexID, skip bool, data []float64) int64 {
								counts[dst] += int64(data[0])
								return 0
							},
							Lanes: 1,
						})
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					for v := 0; v < n; v++ {
						if got, want := counts[v], int64(g.InDegree(graph.VertexID(v))); got != want {
							t.Fatalf("vertex %d: %d, want %d", v, got, want)
						}
					}
				})
			}
		}
	}
}

// TestDenseActiveDstFilter ensures filtered destinations are neither
// signaled nor slotted.
func TestDenseActiveDstFilter(t *testing.T) {
	g := graph.Complete(32)
	c := mustCluster(t, g, Options{NumNodes: 3, Mode: ModeSympleGraph})
	touched := make([]bool, 32)
	err := c.Run(func(w *Worker) error {
		_, err := ProcessEdgesDense(w, DenseParams[uint32]{
			Codec:     U32Codec{},
			ActiveDst: func(dst graph.VertexID) bool { return dst%2 == 0 },
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				if dst%2 != 0 {
					t.Errorf("signal ran for filtered vertex %d", dst)
				}
				ctx.Emit(1)
			},
			Slot: func(dst graph.VertexID, msg uint32) int64 {
				touched[dst] = true
				return 1
			},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v++ {
		if touched[v] != (v%2 == 0) {
			t.Fatalf("vertex %d touched=%v", v, touched[v])
		}
	}
}

// TestDenseSkippedVerticesCounted checks that the VerticesSkipped stat
// moves when dependency bits prune whole mirror signal executions.
func TestDenseSkippedVerticesCounted(t *testing.T) {
	// A star's hub has in-edges from every partition; with the whole
	// frontier set, the first ring machine breaks and all later machines
	// skip the hub.
	g := graph.Star(1 << 10)
	frontier := bitset.New(g.NumVertices())
	frontier.Fill()
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, DepThreshold: 32})
	err := c.Run(func(w *Worker) error {
		_, err := ProcessEdgesDense(w, DenseParams[uint32]{
			Codec: U32Codec{},
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for _, u := range srcs {
					ctx.Edge()
					if frontier.Get(int(u)) {
						ctx.Emit(uint32(u))
						ctx.EmitDep()
						break
					}
				}
			},
			Slot: func(graph.VertexID, uint32) int64 { return 1 },
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats().Totals
	if s.VerticesSkipped == 0 {
		t.Fatalf("no skipped vertices recorded: %+v", s)
	}
}

func TestGroupBounds(t *testing.T) {
	for _, tc := range []struct{ T, B int }{{0, 1}, {0, 3}, {1, 1}, {64, 2}, {100, 3}, {1000, 4}, {63, 8}} {
		if groupBound(tc.T, tc.B, 0) != 0 || groupBound(tc.T, tc.B, tc.B) != tc.T {
			t.Fatalf("T=%d B=%d: outer bounds %d, %d", tc.T, tc.B, groupBound(tc.T, tc.B, 0), groupBound(tc.T, tc.B, tc.B))
		}
		for g := 1; g <= tc.B; g++ {
			b, prev := groupBound(tc.T, tc.B, g), groupBound(tc.T, tc.B, g-1)
			if b < prev {
				t.Fatalf("T=%d B=%d: bounds not monotone at %d", tc.T, tc.B, g)
			}
			// Interior bounds are word-aligned unless clamped to T
			// (which makes the following groups empty).
			if g < tc.B && b%64 != 0 && b != tc.T {
				t.Fatalf("T=%d B=%d: interior bound %d unaligned", tc.T, tc.B, b)
			}
		}
	}
}

// TestDepGroupsRule checks the group-count rule: a step's dependency
// frame splits into min(NumBuffers, frameBytes / 1 KiB) groups, so a
// frame of 2 KiB or more is pipelined while a frame under 1 KiB — or
// any frame with NumBuffers 1 — stays whole.
func TestDepGroupsRule(t *testing.T) {
	for _, tc := range []struct {
		T, lanes, buffers, want int
		frameBytes              int
	}{
		{T: 0, lanes: 1, buffers: 4, want: 1, frameBytes: 0},
		{T: 1000, lanes: 0, buffers: 4, want: 1, frameBytes: 128},         // control-only frame
		{T: 120, lanes: 1, buffers: 4, want: 1, frameBytes: 976},          // just under 1 KiB
		{T: 200, lanes: 1, buffers: 4, want: 1, frameBytes: 1632},         // 1–2 KiB: one group
		{T: 256, lanes: 1, buffers: 4, want: 2, frameBytes: 2080},         // ≥ 2 KiB splits
		{T: 256, lanes: 1, buffers: 1, want: 1, frameBytes: 2080},         // double buffering off
		{T: 512, lanes: 1, buffers: 2, want: 2, frameBytes: 4160},         // capped by NumBuffers
		{T: 512, lanes: 1, buffers: 8, want: 4, frameBytes: 4160},         // capped by the floor
		{T: 1 << 16, lanes: 0, buffers: 8, want: 8, frameBytes: 8192},     // a large bitmap alone
		{T: 1500, lanes: 2, buffers: 3, want: 3, frameBytes: 192 + 24000}, // several lanes
	} {
		if got := bitset.SegmentWordBytes(0, tc.T) + tc.lanes*tc.T*8; got != tc.frameBytes {
			t.Fatalf("T=%d lanes=%d: frame %d bytes, table says %d", tc.T, tc.lanes, got, tc.frameBytes)
		}
		if got := depGroups(tc.T, tc.lanes, tc.buffers); got != tc.want {
			t.Errorf("T=%d lanes=%d B=%d (%d-byte frame): %d groups, want %d",
				tc.T, tc.lanes, tc.buffers, tc.frameBytes, got, tc.want)
		}
	}
}

// TestCirculantScheduleIsPermutation validates the paper's Figure 7
// properties of the schedule formula the engine uses: in each step the
// machines process distinct partitions, and over all steps every (machine,
// partition) pair occurs exactly once.
func TestCirculantScheduleIsPermutation(t *testing.T) {
	for p := 1; p <= 8; p++ {
		pairSeen := map[[2]int]int{}
		for j := 0; j < p; j++ {
			partSeen := map[int]bool{}
			for m := 0; m < p; m++ {
				d := (m + 1 + j) % p
				if partSeen[d] {
					t.Fatalf("p=%d step %d: partition %d processed twice", p, j, d)
				}
				partSeen[d] = true
				pairSeen[[2]int{m, d}]++
			}
		}
		if len(pairSeen) != p*p {
			t.Fatalf("p=%d: %d pairs covered, want %d", p, len(pairSeen), p*p)
		}
		// The master's own block is processed in the final step.
		for m := 0; m < p; m++ {
			if d := (m + 1 + (p - 1)) % p; d != m {
				t.Fatalf("p=%d: machine %d processes %d in last step", p, m, d)
			}
		}
	}
}
