package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Block holds the edges whose sources are one machine's masters and whose
// destinations are masters of one (possibly the same) partition — the
// subgraph "[i,j]" of the paper's Figure 7 — grouped by destination for
// pull-mode processing. Dsts is ascending; Srcs within a destination's
// segment are ascending too, so a dependency-respecting scan visits
// neighbors in a deterministic global order fixed by the circulant ring.
type Block struct {
	Dsts    []graph.VertexID // destinations with ≥1 edge in this block, ascending
	Offsets []int64          // len(Dsts)+1 prefix offsets into Srcs
	Srcs    []graph.VertexID // source masters (global IDs)
	Weights []float32        // parallel to Srcs; nil when unweighted

	// TrackedPos/LowPos split positions into Dsts by dependency class:
	// TrackedPos lists positions whose destination participates in
	// dependency propagation (ascending tracked index), LowPos the rest.
	TrackedPos []int32
	LowPos     []int32

	// trackedCuts[w] counts the TrackedPos entries whose tracked index
	// is below 64·w, for w up to the destination partition's tracked
	// word count; TrackedSlice reads group boundaries from it.
	trackedCuts []int32
}

// TrackedSlice returns the TrackedPos entries whose tracked index lies
// in [lo, hi) — one dependency group's share of the block. Each bound
// must be a multiple of 64 or the destination partition's tracked
// count, as the engine's word-aligned group boundaries are. It never
// allocates.
func (b *Block) TrackedSlice(lo, hi int) []int32 {
	return b.TrackedPos[b.trackedCuts[(lo+63)/64]:b.trackedCuts[(hi+63)/64]]
}

// NumEdges returns the edge count of the block.
func (b *Block) NumEdges() int64 { return int64(len(b.Srcs)) }

// Sources returns the source list of the i-th destination in Dsts.
func (b *Block) Sources(i int) []graph.VertexID {
	return b.Srcs[b.Offsets[i]:b.Offsets[i+1]]
}

// SourceWeights returns the weights parallel to Sources(i), or nil.
func (b *Block) SourceWeights(i int) []float32 {
	if b.Weights == nil {
		return nil
	}
	return b.Weights[b.Offsets[i]:b.Offsets[i+1]]
}

// DegreeClass classifies vertices for differentiated dependency
// propagation (paper §5.2): vertices with in-degree ≥ Threshold are
// "tracked" (dependency bits circulate for them); the rest fall back to
// the plain schedule. Threshold ≤ 0 tracks every vertex, which disables
// the differentiation (but not dependency propagation itself).
//
// Tracked vertices of each partition get dense indices 0..len(Highs[d])-1
// in ascending vertex order; dependency frames cover exactly that index
// space, so their size is |tracked(d)| bits (plus any data lanes). The
// classification depends only on global in-degrees and the partition, so
// every machine computes identical tables.
type DegreeClass struct {
	Threshold int
	// TrackIndex maps a vertex to its dense index within its
	// partition's tracked set, or -1 if untracked.
	TrackIndex []int32
	// Highs lists each partition's tracked vertices in ascending order.
	Highs [][]graph.VertexID
}

// BuildDegreeClass computes the tracked-vertex tables for threshold.
func BuildDegreeClass(g *graph.Graph, pt *Partition, threshold int) *DegreeClass {
	dc := &DegreeClass{
		Threshold:  threshold,
		TrackIndex: make([]int32, g.NumVertices()),
		Highs:      make([][]graph.VertexID, pt.P),
	}
	for d := 0; d < pt.P; d++ {
		lo, hi := pt.Range(d)
		var highs []graph.VertexID
		for v := lo; v < hi; v++ {
			if threshold <= 0 || g.InDegree(graph.VertexID(v)) >= threshold {
				dc.TrackIndex[v] = int32(len(highs))
				highs = append(highs, graph.VertexID(v))
			} else {
				dc.TrackIndex[v] = -1
			}
		}
		dc.Highs[d] = highs
	}
	return dc
}

// Tracked reports whether v participates in dependency propagation.
func (dc *DegreeClass) Tracked(v graph.VertexID) bool { return dc.TrackIndex[v] >= 0 }

// Layout is machine `Machine`'s share of the graph: one Block per
// destination partition (covering all out-edges of its masters), plus the
// shared partition and degree-class tables. Pull mode reads Blocks; push
// mode reads the global CSR rows of the machine's own vertex range, which
// are exactly its out-edges under outgoing edge-cut.
type Layout struct {
	Machine int
	Part    *Partition
	Class   *DegreeClass
	Blocks  []*Block // indexed by destination partition

	// Blocked is the partition-blocked view of the machine's out-CSR
	// (push mode's source-blocked, destination-partitioned scan order),
	// built by AttachBlocked. Pull mode needs no analogue: Blocks
	// already group edges by (machine block, destination partition).
	Blocked *graph.BlockedCSR
}

// BuildLayout constructs machine m's layout.
func BuildLayout(g *graph.Graph, pt *Partition, dc *DegreeClass, m int) *Layout {
	lo, hi := pt.Range(m)
	type rec struct {
		src, dst graph.VertexID
		w        float32
	}
	perPart := make([][]rec, pt.P)
	for u := lo; u < hi; u++ {
		nbrs := g.OutNeighbors(graph.VertexID(u))
		ws := g.OutWeights(graph.VertexID(u))
		for i, v := range nbrs {
			d := pt.Owner(v)
			w := float32(1)
			if ws != nil {
				w = ws[i]
			}
			perPart[d] = append(perPart[d], rec{src: graph.VertexID(u), dst: v, w: w})
		}
	}
	lay := &Layout{Machine: m, Part: pt, Class: dc, Blocks: make([]*Block, pt.P)}
	for d := 0; d < pt.P; d++ {
		recs := perPart[d]
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].dst != recs[j].dst {
				return recs[i].dst < recs[j].dst
			}
			return recs[i].src < recs[j].src
		})
		b := &Block{}
		if g.Weighted() {
			b.Weights = make([]float32, 0, len(recs))
		}
		for _, r := range recs {
			if len(b.Dsts) == 0 || b.Dsts[len(b.Dsts)-1] != r.dst {
				b.Dsts = append(b.Dsts, r.dst)
				b.Offsets = append(b.Offsets, int64(len(b.Srcs)))
			}
			b.Srcs = append(b.Srcs, r.src)
			if b.Weights != nil {
				b.Weights = append(b.Weights, r.w)
			}
		}
		b.Offsets = append(b.Offsets, int64(len(b.Srcs)))
		for pos, dst := range b.Dsts {
			if dc.Tracked(dst) {
				b.TrackedPos = append(b.TrackedPos, int32(pos))
			} else {
				b.LowPos = append(b.LowPos, int32(pos))
			}
		}
		words := (len(dc.Highs[d]) + 63) / 64
		b.trackedCuts = make([]int32, words+1)
		for w, i := 1, 0; w <= words; w++ {
			for i < len(b.TrackedPos) && int(dc.TrackIndex[b.Dsts[b.TrackedPos[i]]]) < 64*w {
				i++
			}
			b.trackedCuts[w] = int32(i)
		}
		lay.Blocks[d] = b
	}
	return lay
}

// AttachBlocked builds the machine's partition-blocked CSR view over
// its master source range, with blockVerts source vertices per block
// (≤ 0 selects graph.DefaultBlockVerts). The derivation reads only the
// graph and the partition boundaries, so it is deterministic across
// machines and epochs: a rebuilt engine over the same snapshot always
// sees identical blocking, and fingerprints (computed over the graph)
// never observe it.
func (lay *Layout) AttachBlocked(g *graph.Graph, blockVerts int) error {
	if blockVerts <= 0 {
		blockVerts = graph.DefaultBlockVerts
	}
	lo, hi := lay.Part.Range(lay.Machine)
	bc, err := graph.BuildBlockedCSR(g, lo, hi, blockVerts, lay.Part.Starts)
	if err != nil {
		return fmt.Errorf("layout: machine %d blocked CSR: %w", lay.Machine, err)
	}
	lay.Blocked = bc
	return nil
}

// Validate checks layout invariants against the source graph, for tests:
// every out-edge of the machine's masters appears in exactly one block,
// destinations route to the right partition, and orderings hold.
func (lay *Layout) Validate(g *graph.Graph) error {
	lo, hi := lay.Part.Range(lay.Machine)
	var want int64
	for u := lo; u < hi; u++ {
		want += int64(g.OutDegree(graph.VertexID(u)))
	}
	var got int64
	for d, b := range lay.Blocks {
		got += b.NumEdges()
		if len(b.Offsets) != len(b.Dsts)+1 {
			return fmt.Errorf("layout: block %d has %d offsets for %d dsts", d, len(b.Offsets), len(b.Dsts))
		}
		if len(b.TrackedPos)+len(b.LowPos) != len(b.Dsts) {
			return fmt.Errorf("layout: block %d tracked+low != dsts", d)
		}
		plo, phi := lay.Part.Range(d)
		for i, dst := range b.Dsts {
			if int(dst) < plo || int(dst) >= phi {
				return fmt.Errorf("layout: block %d dst %d outside partition [%d,%d)", d, dst, plo, phi)
			}
			if i > 0 && b.Dsts[i-1] >= dst {
				return fmt.Errorf("layout: block %d dsts not strictly ascending", d)
			}
			srcs := b.Sources(i)
			if len(srcs) == 0 {
				return fmt.Errorf("layout: block %d dst %d has no sources", d, dst)
			}
			for j, src := range srcs {
				if int(src) < lo || int(src) >= hi {
					return fmt.Errorf("layout: block %d src %d not a local master", d, src)
				}
				if !g.HasEdge(src, dst) {
					return fmt.Errorf("layout: phantom edge (%d,%d)", src, dst)
				}
				if j > 0 && srcs[j-1] >= src {
					return fmt.Errorf("layout: block %d dst %d sources not ascending", d, dst)
				}
			}
		}
		last := int32(-1)
		for _, pos := range b.TrackedPos {
			idx := lay.Class.TrackIndex[b.Dsts[pos]]
			if idx < 0 {
				return fmt.Errorf("layout: low vertex in TrackedPos")
			}
			if idx <= last {
				return fmt.Errorf("layout: TrackedPos not ascending by tracked index")
			}
			last = idx
		}
	}
	if got != want {
		return fmt.Errorf("layout: machine %d has %d edges across blocks, owns %d", lay.Machine, got, want)
	}
	if lay.Blocked != nil {
		blo, bhi := lay.Blocked.SrcRange()
		if blo != lo || bhi != hi {
			return fmt.Errorf("layout: blocked CSR covers [%d,%d), machine owns [%d,%d)", blo, bhi, lo, hi)
		}
		if lay.Blocked.NumParts() != lay.Part.P {
			return fmt.Errorf("layout: blocked CSR has %d partitions, partition has %d", lay.Blocked.NumParts(), lay.Part.P)
		}
		if err := lay.Blocked.Validate(); err != nil {
			return fmt.Errorf("layout: machine %d: %w", lay.Machine, err)
		}
	}
	return nil
}
