package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/bitset"
	"repro/internal/bufpool"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// DenseParams configure one dense (pull-mode) edge-processing pass — the
// paper's signal/slot in pull mode (Figure 4), with dependency enforcement
// when the cluster runs in ModeSympleGraph.
type DenseParams[M any] struct {
	// Codec serializes update messages.
	Codec Codec[M]
	// ActiveDst filters destination vertices; it is evaluated on the
	// processing machine against replicated state (e.g. "not yet
	// visited"). nil processes every destination.
	ActiveDst func(dst graph.VertexID) bool
	// Signal is the dense-signal UDF, executed once per (destination,
	// block): it scans the destination's incoming neighbors local to
	// the machine, calling ctx.Edge per neighbor examined, ctx.Emit to
	// send a partial result to the master, and ctx.EmitDep when the
	// loop-carried break condition fires.
	Signal func(ctx *DenseCtx[M], dst graph.VertexID, srcs []graph.VertexID, weights []float32)
	// Slot aggregates one update at the destination's master (it runs
	// only there) and returns a contribution to the pass's global
	// reduced value. It must be commutative and associative across
	// messages for the same destination.
	Slot func(dst graph.VertexID, msg M) int64
	// Finalize, when non-nil, is called at the master for every tracked
	// destination of its own partition after the circulant ring
	// completes, with the final carried dependency state (skip bit and
	// data lanes). This is where algorithms with data dependency decide
	// from the fully accumulated value — e.g. K-core compares the
	// carried neighbor count against K. It is invoked only when
	// dependency propagation is active (ModeSympleGraph, p > 1); UDFs
	// must emit ordinary updates for untracked vertices instead, which
	// also covers ModeGemini and single-machine runs where ctx.Tracked
	// reports false.
	Finalize func(dst graph.VertexID, skip bool, data []float64) int64
	// Lanes is the number of float64 data-dependency lanes carried per
	// tracked vertex in this pass's dependency frames, for algorithms
	// whose loop-carried state is data (K-core counts, sampling prefix
	// sums). 0 for control-only dependency (BFS, MIS, K-means).
	Lanes int
}

// emitChunkBytes is the slab chunk size for update assembly: signal
// contexts fill fixed-capacity chunks from internal/bufpool and flush
// them into the step's bin list when full, so a superstep's update
// traffic is assembled with zero garbage-collected allocations and sent
// vectored (no concatenation) through comm.SendBufs.
const emitChunkBytes = 64 << 10

// minDepGroupBytes is the smallest dependency frame a step splits off as
// a group of its own. A frame pays a fixed cost (header, link latency, a
// receive) that overlapping it with the next group's scan cannot
// recover when there is little to transfer, so small frames stay whole.
const minDepGroupBytes = 1 << 10

// DenseCtx is the per-worker signal context. It carries the update bin,
// traversal counters, and — in SympleGraph mode — the dependency state of
// the destination being processed (the engine-side realization of the
// paper's receive_dep/emit_dep primitives, Figure 5).
type DenseCtx[M any] struct {
	codec Codec[M]
	size  int
	// buf is the open emit chunk, a fixed-capacity slab buffer retired
	// into the step's bins when full and at the end of the step.
	buf    []byte
	bins   *[][]byte
	binsMu *sync.Mutex

	edges   int64
	skipped int64

	depOn    bool
	tracked  bool
	trackIdx int32
	curDst   graph.VertexID
	depBreak bool
	depSkip  *bitset.Bitmap
	depData  [][]float64
}

// Edge records one neighbor traversal (the paper's computation metric).
// Instrumented UDFs call it once per neighbor examined.
func (ctx *DenseCtx[M]) Edge() { ctx.edges++ }

// Emit sends msg for the current destination to its master's slot.
func (ctx *DenseCtx[M]) Emit(msg M) {
	rec := 4 + ctx.size
	if cap(ctx.buf)-len(ctx.buf) < rec {
		ctx.flushChunk()
	}
	off := len(ctx.buf)
	ctx.buf = append(ctx.buf, make([]byte, rec)...)
	binary.LittleEndian.PutUint32(ctx.buf[off:], uint32(ctx.curDst))
	ctx.codec.Encode(ctx.buf[off+4:], msg)
}

// flushChunk retires the current emit chunk — into the step's bins when
// it holds records, back to the slab when untouched — and starts a fresh
// one. Chunks hold whole records only, so the eventual vectored frame
// decodes identically to a concatenated payload.
func (ctx *DenseCtx[M]) flushChunk() {
	if len(ctx.buf) > 0 {
		ctx.binsMu.Lock()
		*ctx.bins = append(*ctx.bins, ctx.buf)
		ctx.binsMu.Unlock()
	} else if ctx.buf != nil {
		bufpool.Put(ctx.buf)
	}
	ctx.buf = bufpool.Get(emitChunkBytes)[:0]
}

// EmitDep marks the loop-carried break: all following neighbors of the
// current destination — on this machine (the UDF breaks) and on machines
// later in the circulant ring (the engine propagates the bit) — are
// skipped. It has no cross-machine effect for untracked vertices or in
// ModeGemini; the UDF's local break still applies.
func (ctx *DenseCtx[M]) EmitDep() { ctx.depBreak = true }

// Tracked reports whether dependency state propagates across machines for
// the current destination. UDFs with data dependency use it to fall back
// to a parallel-decomposable path (e.g. hierarchical sampling) when the
// carried state is unavailable.
func (ctx *DenseCtx[M]) Tracked() bool { return ctx.depOn && ctx.tracked }

// DepFloat returns the carried data-dependency value of lane for the
// current destination, accumulated by machines earlier in the ring; 0 for
// untracked destinations and at the ring head.
func (ctx *DenseCtx[M]) DepFloat(lane int) float64 {
	if !ctx.Tracked() {
		return 0
	}
	return ctx.depData[lane][ctx.trackIdx]
}

// SetDepFloat stores the data-dependency value handed to machines later
// in the ring. A no-op for untracked destinations.
func (ctx *DenseCtx[M]) SetDepFloat(lane int, v float64) {
	if !ctx.Tracked() {
		return
	}
	ctx.depData[lane][ctx.trackIdx] = v
}

// ProcessEdgesDense runs one dense pass under the cluster's mode and
// returns the global sum of slot contributions.
//
// The pass executes the circulant schedule (paper §5.1): in step j this
// machine processes the block destined to partition d = (id+1+j) mod p.
//
//   - Untracked (low-degree) destinations are processed at step start:
//     they need no dependency input, so their computation overlaps the
//     predecessor's work (§5.3's low/high overlap).
//   - Tracked destinations are processed in depGroups pipelined groups
//     of the tracked index space (double buffering, §5.3): group k's
//     dependency frame is received from the right neighbor just before
//     the group is scanned and forwarded to the left neighbor right
//     after, so the neighbor scans group k while this machine scans
//     group k+1. Group state is index-disjoint and the word-aligned
//     group frames concatenate byte-exactly into the whole step's
//     frame, so the group count changes framing only, never results.
//   - A step's update records accumulate into slab bins and leave as one
//     vectored frame to d's master at the end of the step; bin ownership
//     passes to the transport at SendBufs. The update destined to this
//     machine is applied, in ring order, once every step has run.
func ProcessEdgesDense[M any](w *Worker, params DenseParams[M]) (int64, error) {
	p := w.N()
	B := w.cluster.opts.NumBuffers
	lanes := params.Lanes
	if lanes < 0 {
		return 0, fmt.Errorf("core: negative Lanes %d", lanes)
	}
	depOn := w.cluster.opts.Mode == ModeSympleGraph && p > 1
	base := w.nextTags(int32(p*B + p)) // ≤ B dependency frames per step + p update rounds
	rn := (w.id + 1) % p
	ln := (w.id - 1 + p) % p
	w.observeStep()
	pass := w.densePass
	w.densePass++
	scan := newDenseScan(w, &params)

	var reduced int64
	var localBins [][]byte     // our own block's updates, applied in ring order below
	var depSkip *bitset.Bitmap // state for the step in flight; after the
	var depData [][]float64    // loop, the final state of our own partition
	for j := 0; j < p; j++ {
		stepStart := w.spanStart()
		d := (w.id + 1 + j) % p
		block := w.layout.Blocks[d]
		tracked := len(w.cluster.class.Highs[d])
		groups := 1
		if depOn {
			groups = depGroups(tracked, lanes, B)
			depSkip = bitset.New(tracked)
			depData = make([][]float64, lanes)
			for l := range depData {
				depData[l] = make([]float64, tracked)
			}
		}

		scanStart := w.spanStart()
		scan.run(block, block.LowPos, false, nil, nil)
		w.endSpan(obs.PhaseDenseScan, pass, j, -1, scanStart)

		for k := 0; k < groups; k++ {
			lo, hi := groupBound(tracked, groups, k), groupBound(tracked, groups, k+1)
			if depOn && lo < hi && j > 0 {
				m, err := w.recvTimed(&w.depWait, comm.NodeID(rn), comm.KindDependency, base+int32((j-1)*B+k),
					obs.PhaseDepWait, pass, j, k)
				if err != nil {
					return 0, err
				}
				if err := applyDepFrame(m.Payload, depSkip, depData, lo, hi); err != nil {
					return 0, err
				}
				m.Release()
			}
			if positions := block.TrackedSlice(lo, hi); len(positions) > 0 {
				scanStart = w.spanStart()
				scan.run(block, positions, depOn, depSkip, depData)
				w.endSpan(obs.PhaseDenseScan, pass, j, k, scanStart)
			}
			if depOn && lo < hi && j < p-1 {
				binStart := w.spanStart()
				frame := encodeDepFrame(depSkip, depData, lo, hi)
				w.endSpan(obs.PhaseDenseBin, pass, j, k, binStart)
				flushStart := w.spanStart()
				if err := w.ep.SendBufs(comm.NodeID(ln), comm.KindDependency, base+int32(j*B+k), comm.Buffers{frame}); err != nil {
					return 0, err
				}
				w.endSpan(obs.PhaseBufferFlush, pass, j, k, flushStart)
			}
		}

		bins := scan.retire()
		if d != w.id {
			flushStart := w.spanStart()
			if err := w.ep.SendBufs(comm.NodeID(d), comm.KindUpdate, base+int32(p*B+j), comm.Buffers(bins)); err != nil {
				return 0, err
			}
			w.endSpan(obs.PhaseDenseFlush, pass, j, -1, flushStart)
		} else {
			localBins = bins
		}
		w.endSpan(obs.PhaseDenseStep, pass, j, -1, stepStart)
	}
	scan.close()
	// Update communication overlaps with computation (§5.1: "the
	// computation and update communication of each step can be largely
	// overlapped"): the per-step frames were sent as each block
	// finished; collect and slot them only now that all steps are done,
	// in ring order so first-wins slots stay deterministic.
	for j := 0; j < p; j++ {
		src := ((w.id-1-j)%p + p) % p
		if src == w.id {
			// Bins hold whole records, so per-bin application equals
			// applying the concatenation.
			for _, b := range localBins {
				reduced += applyDenseUpdates(w, &params, b)
				bufpool.Put(b)
			}
			continue
		}
		m, err := w.recvTimed(&w.updWait, comm.NodeID(src), comm.KindUpdate, base+int32(p*B+j),
			obs.PhaseUpdateWait, pass, j, -1)
		if err != nil {
			return 0, err
		}
		reduced += applyDenseUpdates(w, &params, m.Payload)
		m.Release()
	}
	if depOn && params.Finalize != nil {
		// depSkip/depData now hold the fully circulated state of our
		// own partition (processed in the final step).
		lane := make([]float64, lanes)
		for idx, dst := range w.cluster.class.Highs[w.id] {
			if params.ActiveDst != nil && !params.ActiveDst(dst) {
				continue
			}
			for l := range lane {
				lane[l] = depData[l][idx]
			}
			reduced += params.Finalize(dst, depSkip.Get(idx), lane)
		}
	}
	return w.AllReduceSum(reduced)
}

// denseScan drives the signal UDF over block positions for one dense
// pass. It is built once per pass: the chunk function and the per-chunk
// signal contexts are reused by every step and group, so pipelining a
// step in groups allocates nothing per group, and a context's open emit
// chunk carries across the groups of a step.
type denseScan[M any] struct {
	w         *Worker
	params    *DenseParams[M]
	block     *partition.Block
	positions []int32
	ctxs      []DenseCtx[M] // one per parallelRange chunk
	bins      [][]byte      // the step's retired emit chunks
	binsMu    sync.Mutex
	chunk     func(i, start, end int)
}

func newDenseScan[M any](w *Worker, params *DenseParams[M]) *denseScan[M] {
	s := &denseScan[M]{w: w, params: params, ctxs: make([]DenseCtx[M], w.cluster.opts.Workers)}
	for i := range s.ctxs {
		s.ctxs[i] = DenseCtx[M]{codec: params.Codec, size: params.Codec.Size(), bins: &s.bins, binsMu: &s.binsMu}
	}
	s.chunk = s.runChunk
	return s
}

// run signals the destinations of block at the given positions, in
// parallel chunks. depOn enables the dependency state for tracked
// destinations.
func (s *denseScan[M]) run(block *partition.Block, positions []int32,
	depOn bool, depSkip *bitset.Bitmap, depData [][]float64) {
	s.block, s.positions = block, positions
	for i := range s.ctxs {
		ctx := &s.ctxs[i]
		ctx.depOn, ctx.depSkip, ctx.depData = depOn, depSkip, depData
	}
	s.w.parallelRange(len(positions), s.chunk)
}

func (s *denseScan[M]) runChunk(i, start, end int) {
	ctx := &s.ctxs[i]
	params, block, class := s.params, s.block, s.w.cluster.class
	for _, pos := range s.positions[start:end] {
		dst := block.Dsts[pos]
		if params.ActiveDst != nil && !params.ActiveDst(dst) {
			continue
		}
		idx := class.TrackIndex[dst]
		ctx.tracked = idx >= 0
		ctx.trackIdx = idx
		if ctx.depOn && ctx.tracked && ctx.depSkip.GetAtomic(int(idx)) {
			ctx.skipped++
			continue
		}
		ctx.curDst = dst
		ctx.depBreak = false
		params.Signal(ctx, dst, block.Sources(int(pos)), block.SourceWeights(int(pos)))
		if ctx.depOn && ctx.tracked && ctx.depBreak {
			ctx.depSkip.SetAtomic(int(idx))
		}
	}
}

// retire ends a step: every context's open chunk joins the step's bins
// (untouched chunks stay open for the next step), the traversal counters
// are accounted, and the bins are handed to the caller.
func (s *denseScan[M]) retire() [][]byte {
	for i := range s.ctxs {
		ctx := &s.ctxs[i]
		if len(ctx.buf) > 0 {
			s.bins = append(s.bins, ctx.buf)
			ctx.buf = nil
		}
		s.w.addEdges(ctx.edges)
		s.w.addSkipped(ctx.skipped)
		ctx.edges, ctx.skipped = 0, 0
	}
	bins := s.bins
	s.bins = nil
	return bins
}

// close returns the contexts' idle chunks to the slab.
func (s *denseScan[M]) close() {
	for i := range s.ctxs {
		if buf := s.ctxs[i].buf; buf != nil {
			bufpool.Put(buf)
			s.ctxs[i].buf = nil
		}
	}
}

// applyDenseUpdates decodes (dst, msg) records and applies the slot at
// the master, returning the summed slot contributions.
func applyDenseUpdates[M any](w *Worker, params *DenseParams[M], payload []byte) int64 {
	rec := 4 + params.Codec.Size()
	var reduced int64
	for off := 0; off+rec <= len(payload); off += rec {
		dst := graph.VertexID(binary.LittleEndian.Uint32(payload[off:]))
		if !w.Owns(dst) {
			panic(fmt.Sprintf("core: node %d received update for vertex %d it does not own", w.id, dst))
		}
		reduced += params.Slot(dst, params.Codec.Decode(payload[off+4:]))
	}
	return reduced
}

// depGroups is the number of pipelined dependency groups for a step
// whose destination partition tracks T vertices with lanes data lanes:
// NumBuffers, capped so that each group's frame carries at least
// minDepGroupBytes of the step's whole frame, and at least 1. Every
// machine derives it from the same static inputs, so sender and
// receiver agree on the framing without negotiation.
func depGroups(T, lanes, buffers int) int {
	frameBytes := bitset.SegmentWordBytes(0, T) + lanes*T*8
	return max(1, min(buffers, frameBytes/minDepGroupBytes))
}

// groupBound returns boundary k (0 ≤ k ≤ groups) of the tracked index
// space [0, T) cut into groups contiguous groups. Interior boundaries
// are rounded up to a multiple of 64, so group frames exchange whole
// bitmap words; rounding can leave trailing groups empty.
func groupBound(T, groups, k int) int {
	return min(T, (T*k/groups+63)&^63)
}

// encodeDepFrame serializes the dependency state for tracked indices
// [gLo, gHi): the skip bitmap words followed by each data lane's values —
// the paper's DepMessage in struct-of-arrays form (§6). The frame lives
// in a slab buffer whose ownership passes to the transport via SendBufs.
func encodeDepFrame(depSkip *bitset.Bitmap, depData [][]float64, gLo, gHi int) []byte {
	if gLo >= gHi {
		return nil
	}
	if gLo%64 != 0 {
		panic("core: dependency frame start not word-aligned")
	}
	n := bitset.SegmentWordBytes(gLo, gHi) + len(depData)*(gHi-gLo)*8
	out := depSkip.AppendSegmentLE(bufpool.Get(n)[:0], gLo, gHi)
	for _, lane := range depData {
		off := len(out)
		out = out[:off+(gHi-gLo)*8]
		for i, v := range lane[gLo:gHi] {
			binary.LittleEndian.PutUint64(out[off+i*8:], math.Float64bits(v))
		}
	}
	return out
}

// applyDepFrame merges a received dependency frame: skip bits are OR-ed
// (a break anywhere earlier in the ring holds), data lanes are
// overwritten (the predecessor's value is the accumulated state). The
// caller Releases the payload afterwards.
func applyDepFrame(payload []byte, depSkip *bitset.Bitmap, depData [][]float64, gLo, gHi int) error {
	if gLo >= gHi {
		if len(payload) != 0 {
			return fmt.Errorf("core: non-empty dependency frame for empty group")
		}
		return nil
	}
	wb := bitset.SegmentWordBytes(gLo, gHi)
	want := wb + len(depData)*(gHi-gLo)*8
	if len(payload) != want {
		return fmt.Errorf("core: dependency frame is %d bytes, want %d", len(payload), want)
	}
	if err := depSkip.OrSegmentLE(payload[:wb], gLo, gHi); err != nil {
		return fmt.Errorf("core: dependency frame: %w", err)
	}
	off := wb
	for _, lane := range depData {
		for i := gLo; i < gHi; i++ {
			lane[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	return nil
}
