package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
)

// SparseParams configure one sparse (push-mode) edge-processing pass:
// each machine scans the out-edges of its frontier masters (all local
// under outgoing edge-cut) and routes messages to the destinations'
// masters. Sparse mode has no cross-machine loop-carried dependency — the
// paper's optimization targets pull mode (§2.2: "SympleGraph optimization
// focuses on pull mode") — but it is required by direction-optimizing BFS
// and general Gemini programs.
type SparseParams[M any] struct {
	// Codec serializes update messages.
	Codec Codec[M]
	// Frontier lists the local master vertices to process, in strictly
	// ascending order (ProcessEdgesSparse rejects any other order).
	// Ascending sources are what make each peer's byte stream, and so
	// first-wins slots, deterministic.
	Frontier []graph.VertexID
	// Signal is the sparse-signal UDF: it scans src's outgoing
	// neighbors, calling ctx.Edge per neighbor examined and ctx.EmitTo
	// to send a message to a destination's master.
	//
	// The scan invokes Signal once per (src, destination partition) —
	// with the adjacency subrange (still in adjacency order) owned by
	// that partition. Sparse UDFs must therefore be per-edge
	// decomposable: decide per destination in the supplied slice, and
	// EmitTo only those destinations. There is no sparse analogue of
	// the dense loop-carried break, so this costs no expressiveness.
	Signal func(ctx *SparseCtx[M], src graph.VertexID, dsts []graph.VertexID, weights []float32)
	// Slot aggregates one message at the destination's master and
	// returns a contribution to the pass's reduced value.
	Slot func(dst graph.VertexID, msg M) int64
}

// SparseCtx is the per-worker sparse signal context. The scan fixes the
// destination partition before invoking Signal, so EmitTo appends to
// the current bin directly — no per-emit owner lookup. curLo/curHi
// bound the current partition's vertex range; emitting outside it is a
// UDF contract violation.
type SparseCtx[M any] struct {
	w     *Worker
	codec Codec[M]
	size  int
	edges int64

	// bins holds each destination partition's open slab chunk; full
	// chunks retire into the shared per-peer lists under chunksMu.
	bins     [][]byte
	chunks   [][][]byte
	chunksMu *sync.Mutex

	cur          []byte
	curQ         int
	curLo, curHi graph.VertexID
}

// Edge records one neighbor traversal.
func (ctx *SparseCtx[M]) Edge() { ctx.edges++ }

// EmitTo sends msg to dst's master slot.
func (ctx *SparseCtx[M]) EmitTo(dst graph.VertexID, msg M) {
	if dst < ctx.curLo || dst >= ctx.curHi {
		panic(fmt.Sprintf("core: sparse signal emitted to vertex %d outside partition %d [%d,%d)",
			dst, ctx.curQ, ctx.curLo, ctx.curHi))
	}
	rec := 4 + ctx.size
	buf := ctx.cur
	if cap(buf)-len(buf) < rec {
		if len(buf) > 0 {
			ctx.chunksMu.Lock()
			ctx.chunks[ctx.curQ] = append(ctx.chunks[ctx.curQ], buf)
			ctx.chunksMu.Unlock()
		} else if buf != nil {
			bufpool.Put(buf)
		}
		buf = bufpool.Get(emitChunkBytes)[:0]
	}
	off := len(buf)
	buf = append(buf, make([]byte, rec)...)
	binary.LittleEndian.PutUint32(buf[off:], uint32(dst))
	ctx.codec.Encode(buf[off+4:], msg)
	ctx.cur = buf
}

// beginPart switches the context's current bin to destination partition
// q, saving the open bin of the previous partition for later.
func (ctx *SparseCtx[M]) beginPart(q int) {
	ctx.bins[ctx.curQ] = ctx.cur
	ctx.cur = ctx.bins[q]
	ctx.curQ = q
	lo, hi := ctx.w.cluster.part.Range(q)
	ctx.curLo, ctx.curHi = graph.VertexID(lo), graph.VertexID(hi)
}

// ProcessEdgesSparse runs one sparse pass and returns the global sum of
// slot contributions. Every frontier vertex must be a local master, and
// the frontier must be strictly ascending.
//
// The frontier is split into source blocks of the partition-blocked
// CSR; for each (block, destination partition) range the scan fixes the
// bin once and signals every frontier source's partition-restricted
// adjacency row into it, confining the scan's writes to one
// cache-resident bin at a time. Per destination peer the emitted byte
// stream follows ascending sources, adjacency order within a row, so
// results — including first-wins slots — are deterministic under the
// engine's determinism contract (Workers == 1). Scan work stays
// frontier-proportional: rows are offset lookups, never block-wide edge
// sweeps. Each peer's bins leave as one vectored frame.
func ProcessEdgesSparse[M any](w *Worker, params SparseParams[M]) (int64, error) {
	p := w.N()
	base := w.nextTags(1)
	bc := w.layout.Blocked
	w.observeStep()
	pass := w.sparsePass
	w.sparsePass++
	pushStart := w.spanStart()

	// Group the ascending frontier into per-source-block subslices.
	srcLo, _ := bc.SrcRange()
	bv := bc.BlockVerts()
	f := params.Frontier
	var groups [][]graph.VertexID
	for i := 0; i < len(f); {
		b := (int(f[i]) - srcLo) / bv
		j := i
		for ; j < len(f) && (int(f[j])-srcLo)/bv == b; j++ {
			if !w.Owns(f[j]) {
				panic(fmt.Sprintf("core: node %d asked to push from vertex %d it does not own", w.id, f[j]))
			}
			if j > 0 && f[j-1] >= f[j] {
				return 0, fmt.Errorf("core: sparse frontier not strictly ascending at index %d (%d after %d)", j, f[j], f[j-1])
			}
		}
		groups = append(groups, f[i:j])
		i = j
	}

	chunks := make([][][]byte, p) // per-peer bin lists (whole records per bin)
	var mu sync.Mutex
	w.parallelRange(len(groups), func(_, start, end int) {
		ctx := &SparseCtx[M]{
			w:        w,
			codec:    params.Codec,
			size:     params.Codec.Size(),
			bins:     make([][]byte, p),
			chunks:   chunks,
			chunksMu: &mu,
		}
		for _, srcs := range groups[start:end] {
			for q := 0; q < p; q++ {
				ctx.beginPart(q)
				for _, src := range srcs {
					dsts, ws := bc.Row(src, q)
					if len(dsts) == 0 {
						continue
					}
					params.Signal(ctx, src, dsts, ws)
				}
			}
		}
		ctx.bins[ctx.curQ] = ctx.cur
		w.addEdges(ctx.edges)
		mu.Lock()
		for peer, b := range ctx.bins {
			if len(b) > 0 {
				chunks[peer] = append(chunks[peer], b)
			} else if b != nil {
				bufpool.Put(b)
			}
		}
		mu.Unlock()
	})

	// Ship each peer's bins, apply the local share, then receive and
	// apply each peer's frame.
	var reduced int64
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			for _, b := range chunks[peer] {
				reduced += applySparseUpdates(w, &params, b)
				bufpool.Put(b)
			}
			continue
		}
		if err := w.ep.SendBufs(comm.NodeID(peer), comm.KindUpdate, base, comm.Buffers(chunks[peer])); err != nil {
			return 0, err
		}
	}
	w.endSpan(obs.PhaseSparsePush, pass, -1, -1, pushStart)
	for peer := 0; peer < p; peer++ {
		if peer == w.id {
			continue
		}
		m, err := w.recvTimed(&w.updWait, comm.NodeID(peer), comm.KindUpdate, base,
			obs.PhaseUpdateWait, pass, -1, -1)
		if err != nil {
			return 0, err
		}
		reduced += applySparseUpdates(w, &params, m.Payload)
		m.Release()
	}
	return w.AllReduceSum(reduced)
}

func applySparseUpdates[M any](w *Worker, params *SparseParams[M], payload []byte) int64 {
	rec := 4 + params.Codec.Size()
	var reduced int64
	for off := 0; off+rec <= len(payload); off += rec {
		dst := graph.VertexID(binary.LittleEndian.Uint32(payload[off:]))
		if !w.Owns(dst) {
			panic(fmt.Sprintf("core: node %d received sparse update for vertex %d it does not own", w.id, dst))
		}
		reduced += params.Slot(dst, params.Codec.Decode(payload[off+4:]))
	}
	return reduced
}
