package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
)

// TestSparsePushCounts pushes one message along every out-edge of a
// frontier and checks each destination master accumulates exactly its
// frontier in-neighbor count.
func TestSparsePushCounts(t *testing.T) {
	g := graph.RMAT(9, 8, graph.Graph500Params(), 13)
	n := g.NumVertices()
	inFrontier := func(v int) bool { return v%4 == 0 }
	for _, p := range []int{1, 2, 5} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("p=%d/w=%d", p, workers), func(t *testing.T) {
				c := mustCluster(t, g, Options{NumNodes: p, Workers: workers})
				counts := make([]int64, n)
				var sent int64
				err := c.Run(func(w *Worker) error {
					lo, hi := w.MasterRange()
					var frontier []graph.VertexID
					for v := lo; v < hi; v++ {
						if inFrontier(v) {
							frontier = append(frontier, graph.VertexID(v))
						}
					}
					red, err := ProcessEdgesSparse(w, SparseParams[uint32]{
						Codec:    U32Codec{},
						Frontier: frontier,
						Signal: func(ctx *SparseCtx[uint32], src graph.VertexID, dsts []graph.VertexID, _ []float32) {
							for _, d := range dsts {
								ctx.Edge()
								ctx.EmitTo(d, uint32(src))
							}
						},
						Slot: func(dst graph.VertexID, msg uint32) int64 {
							counts[dst]++
							return 1
						},
					})
					if w.ID() == 0 {
						sent = red
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				for v := 0; v < n; v++ {
					wantV := int64(0)
					for _, u := range g.InNeighbors(graph.VertexID(v)) {
						if inFrontier(int(u)) {
							wantV++
						}
					}
					want += wantV
					if counts[v] != wantV {
						t.Fatalf("vertex %d: %d messages, want %d", v, counts[v], wantV)
					}
				}
				if sent != want {
					t.Fatalf("reduced %d, want %d", sent, want)
				}
				// Edge traversals equal the frontier's out-degree sum.
				var frontierEdges int64
				for v := 0; v < n; v++ {
					if inFrontier(v) {
						frontierEdges += int64(g.OutDegree(graph.VertexID(v)))
					}
				}
				if got := c.Stats().Totals.EdgesTraversed; got != frontierEdges {
					t.Fatalf("edges traversed %d, want %d", got, frontierEdges)
				}
			})
		}
	}
}

// TestSparseEmptyFrontier completes without traffic problems and reduces
// to zero.
func TestSparseEmptyFrontier(t *testing.T) {
	g := graph.Ring(128)
	c := mustCluster(t, g, Options{NumNodes: 3})
	err := c.Run(func(w *Worker) error {
		red, err := ProcessEdgesSparse(w, SparseParams[uint32]{
			Codec:    U32Codec{},
			Frontier: nil,
			Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {
				t.Error("signal ran with empty frontier")
			},
			Slot: func(graph.VertexID, uint32) int64 { return 1 },
		})
		if red != 0 {
			t.Errorf("reduced %d", red)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSparseRejectsUnorderedFrontier checks that ascending frontier
// order is part of ProcessEdgesSparse's contract: a descending or
// repeating frontier fails the pass with an error instead of producing
// an order-dependent result.
func TestSparseRejectsUnorderedFrontier(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 3)
	for name, order := range map[string]func(lo, hi int) []graph.VertexID{
		"descending": func(lo, hi int) []graph.VertexID {
			return []graph.VertexID{graph.VertexID(hi - 1), graph.VertexID(lo)}
		},
		"repeated": func(lo, hi int) []graph.VertexID {
			return []graph.VertexID{graph.VertexID(lo), graph.VertexID(lo)}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := mustCluster(t, g, Options{NumNodes: 2})
			err := c.Run(func(w *Worker) error {
				_, err := ProcessEdgesSparse(w, SparseParams[uint32]{
					Codec:    U32Codec{},
					Frontier: order(w.MasterRange()),
					Signal: func(*SparseCtx[uint32], graph.VertexID, []graph.VertexID, []float32) {
						t.Error("signal ran on an unordered frontier")
					},
					Slot: func(graph.VertexID, uint32) int64 { return 1 },
				})
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "not strictly ascending") {
				t.Fatalf("Run error %v, want a frontier-order error", err)
			}
		})
	}
}

// TestSparseThenDenseInterleaved ensures tag bookkeeping stays aligned
// when passes alternate (as direction-optimizing BFS does).
func TestSparseThenDenseInterleaved(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 3)
	c := mustCluster(t, g, Options{NumNodes: 4, Mode: ModeSympleGraph, NumBuffers: 2})
	err := c.Run(func(w *Worker) error {
		for round := 0; round < 3; round++ {
			lo, hi := w.MasterRange()
			var frontier []graph.VertexID
			for v := lo; v < hi; v += 2 {
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
				Slot: func(graph.VertexID, uint32) int64 { return 1 },
			}); err != nil {
				return err
			}
			if _, err := ProcessEdgesDense(w, DenseParams[uint32]{
				Codec: U32Codec{},
				Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
					for range srcs {
						ctx.Edge()
					}
					ctx.Emit(uint32(len(srcs)))
				},
				Slot: func(graph.VertexID, uint32) int64 { return 1 },
			}); err != nil {
				return err
			}
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPBackedCluster runs a dense pass over real TCP loopback endpoints
// to prove transport interchangeability.
func TestTCPBackedCluster(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 9)
	tcps, err := comm.NewTCPClusterLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]comm.Endpoint, len(tcps))
	for i, e := range tcps {
		eps[i] = e
	}
	t.Cleanup(func() {
		for _, e := range tcps {
			e.Close()
		}
	})
	c := mustCluster(t, g, Options{NumNodes: 3, Mode: ModeSympleGraph, Endpoints: eps})
	counts := make([]uint32, g.NumVertices())
	err = c.Run(func(w *Worker) error {
		_, err := ProcessEdgesDense(w, DenseParams[uint32]{
			Codec: U32Codec{},
			Signal: func(ctx *DenseCtx[uint32], dst graph.VertexID, srcs []graph.VertexID, _ []float32) {
				for range srcs {
					ctx.Edge()
				}
				ctx.Emit(uint32(len(srcs)))
			},
			Slot: func(dst graph.VertexID, msg uint32) int64 {
				counts[dst] += msg
				return 0
			},
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got, want := counts[v], uint32(g.InDegree(graph.VertexID(v))); got != want {
			t.Fatalf("vertex %d: %d, want %d", v, got, want)
		}
	}
}
