package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// engineWorkload describes one engine-only workload: the R-MAT input
// and the simulated interconnect.
type engineWorkload struct {
	scale, edgeFactor int
	nodes             int
	// graphSeed fixes the R-MAT instance, as the paper fixes its
	// datasets; --seed draws the op sequence over it.
	graphSeed    int64
	link         *comm.LinkModel
	setups       int // set-ups per run; setup_s is their median
	sampleRounds int
}

var engineWorkloads = map[string]engineWorkload{
	// A nil link hands frames over directly: wall time is the scan,
	// bin, encode and decode kernels plus the vertex-local driver code.
	// One simulated machine per CPU, so a machine never waits for a
	// neighbour that is not scheduled.
	"engine-cpu": {
		scale: 15, edgeFactor: 16, nodes: 2, graphSeed: 1, setups: 3, sampleRounds: 4,
	},
	// Figure 11's dependency-bound interconnect: dependency frames sit
	// on the critical path, so waits dominate node time.
	"engine-link": {
		scale: 11, edgeFactor: 16, nodes: 4, graphSeed: 2, setups: 9, sampleRounds: 2,
		link: &comm.LinkModel{Latency: 100 * time.Microsecond, BytesPerSecond: 1e6},
	},
}

// serverLayers are the per-layer metrics of the query service and its
// mutation path, which the engine workloads bypass.
var serverLayers = []string{
	"serve.query_p99_ms", "serve.mutate_p50_ms", "serve.qps",
	"server.engine_ms_p50", "server.queue_wait_ms_p99", "server.overhead_ms_p50", "server.hit_p50_ms",
	"server.cache_hit_frac", "server.coalesced_frac", "server.rejected", "server.errors_5xx", "server.pool_builds",
	"mutate.inc_ms_p50", "mutate.cache_promoted_frac", "mutate.pool_retired_per_commit", "mutate.epoch_lag_mean",
}

// engineOptions is the measured configuration: the full SympleGraph
// system (circulant scheduling, differentiated propagation at threshold
// 32, double buffering) on the given number of simulated machines.
func engineOptions(nodes int, link *comm.LinkModel) core.Options {
	return core.Options{
		NumNodes:     nodes,
		Mode:         core.ModeSympleGraph,
		DepThreshold: core.DefaultDepThreshold,
		NumBuffers:   2,
		Link:         link,
	}
}

// op is one algorithm call of the sequence.
type op struct {
	algo string
	root graph.VertexID // bfs
	k    int            // kcore
	seed uint64         // mis, kmeans, sampling
}

const (
	kcoreK      = 8
	kmeansIters = 3
)

func (o op) undirected() bool { return o.algo == "kcore" || o.algo == "mis" || o.algo == "kmeans" }

func (o op) String() string {
	switch o.algo {
	case "bfs":
		return fmt.Sprintf("bfs(root=%d)", o.root)
	case "kcore":
		return fmt.Sprintf("kcore(k=%d)", o.k)
	default:
		return fmt.Sprintf("%s(seed=%d)", o.algo, o.seed)
	}
}

// paperAlgos are the paper's five algorithms, each with a loop-carried
// dependency. The paper runs each once per dataset, so one round of the
// op sequence runs each once: equal weights. The pooled latency
// distribution is then one block per algorithm, so op_p50_ms measures
// whichever algorithm ranks third by cost and op_p90_ms the slowest one
// (NOTES.md names them per workload); ops_per_s moves with every
// algorithm by its share of a round's time, and the per-layer
// algorithms.*_p50_ms show each one on its own.
var paperAlgos = []string{"bfs", "kcore", "mis", "kmeans", "sampling"}

// distinctRounds is how many different rounds a run draws and cycles
// through. An op's cost depends on its root or seed (MIS's number of
// rounds does), so with one round a latency percentile measured one
// seed's op and moved with --seed; over several rounds it is the
// median over several seeds. Every round still repeats, so exact
// counters are compared on every op.
const distinctRounds = 8

// makeRound draws one round of the op sequence from the seed: a BFS
// root among g's non-isolated vertices and fresh seeds for the seeded
// algorithms, in a seeded order.
func makeRound(rng *rand.Rand, g *graph.Graph) []op {
	roots := graph.NonIsolatedVertices(g)
	var round []op
	for _, a := range paperAlgos {
		o := op{algo: a}
		switch a {
		case "bfs":
			o.root = roots[rng.Intn(len(roots))]
		case "kcore":
			o.k = kcoreK
		default:
			o.seed = rng.Uint64()>>1 + 1
		}
		round = append(round, o)
	}
	rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// counters are the engine's deterministic work and traffic counts for
// one op. They must repeat exactly every time the op runs.
type counters struct {
	Edges, Skipped                      int64
	UpdateBytes, DepBytes, ControlBytes int64
	UpdateMsgs, DepMsgs, Supersteps     int64
}

func countersOf(s core.RunStats) counters {
	return counters{s.EdgesTraversed, s.VerticesSkipped, s.UpdateBytes, s.DependencyBytes,
		s.ControlBytes, s.UpdateMessages, s.DependencyMessages, s.Supersteps}
}

// opRecord is one executed op.
type opRecord struct {
	op        op
	wall      time.Duration
	stats     core.RunStats
	bfsTD     int
	bfsBU     int
	err       error
	traced    bool
	phases    [obs.NumPhases]time.Duration // traced ops only: summed over nodes
	unattribs []time.Duration              // traced ops only: per node
}

type engineBench struct {
	w        engineWorkload
	opts     core.Options
	g, gs    *graph.Graph
	dir, sym *core.Cluster
	regs     [2]*obs.Registry
	rounds   [][]op          // the distinct rounds, run in turn
	first    map[op]counters // exact counters of each distinct op's first run
	diverged []string
}

func (b *engineBench) cluster(o op) *core.Cluster {
	if o.undirected() {
		return b.sym
	}
	return b.dir
}

// exec runs one op and returns its result.
func (b *engineBench) exec(o op) (any, error) {
	c := b.cluster(o)
	switch o.algo {
	case "bfs":
		return algorithms.BFS(c, o.root)
	case "kcore":
		return algorithms.KCore(c, o.k)
	case "mis":
		return algorithms.MIS(c, o.seed)
	case "kmeans":
		return algorithms.KMeans(c, kmeansCenters(b.gs), kmeansIters, o.seed)
	case "sampling":
		return algorithms.Sample(c, o.seed, b.w.sampleRounds)
	}
	return nil, fmt.Errorf("unknown algorithm %q", o.algo)
}

func kmeansCenters(g *graph.Graph) int { return int(math.Sqrt(float64(g.NumVertices()))) }

// setup builds the system from the edge list: CSR, symmetrized CSR and
// one cluster per orientation. It returns the graph-layer and
// cluster-build durations.
func (b *engineBench) setup(n int, edges []graph.Edge) (time.Duration, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{Dedupe: true, DropSelfLoops: true})
	if err != nil {
		return 0, 0, fmt.Errorf("build CSR: %w", err)
	}
	gs := graph.Symmetrize(g)
	t1 := time.Now()
	dir, err := core.NewCluster(g, b.opts)
	if err != nil {
		return 0, 0, fmt.Errorf("build directed cluster: %w", err)
	}
	sym, err := core.NewCluster(gs, b.opts)
	if err != nil {
		dir.Close()
		return 0, 0, fmt.Errorf("build undirected cluster: %w", err)
	}
	t2 := time.Now()
	b.close()
	b.g, b.gs, b.dir, b.sym = g, gs, dir, sym
	return t1.Sub(t0), t2.Sub(t1), nil
}

func (b *engineBench) close() {
	if b.dir != nil {
		b.dir.Close()
		b.sym.Close()
	}
}

// queueDelay sums the simulated links' queueing delay over both
// clusters' nodes.
func (b *engineBench) queueDelay() time.Duration {
	var total int64
	for _, r := range b.regs {
		for k, v := range r.Snapshot() {
			if strings.HasSuffix(k, ".link_queue_delay_ns") {
				total += v.(int64)
			}
		}
	}
	return time.Duration(total)
}

// pass runs whole rounds of the sequence, cycling through the distinct
// rounds, until d has elapsed (at least minRounds). With traceOdd set,
// every op of the odd cycles records into a fresh tracer and its
// per-node phase breakdown is reconciled with its engine time; the even
// cycles between them are the untraced baseline for the tracing
// overhead, measured under the same host conditions. keep receives
// every result of the pass's first cycle.
func (b *engineBench) pass(d time.Duration, minRounds int, traceOdd bool, keep func(o op, res any)) ([]opRecord, error) {
	var recs []opRecord
	runtime.GC()
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start) < d; r++ {
		cycle := r / len(b.rounds)
		traced := traceOdd && cycle%2 == 1
		for _, o := range b.rounds[r%len(b.rounds)] {
			c := b.cluster(o)
			var tr *obs.Tracer
			if traced {
				tr = obs.NewTracer()
				c.SetTracer(tr)
			}
			t0 := time.Now()
			res, err := b.exec(o)
			rec := opRecord{op: o, wall: time.Since(t0), err: err, traced: traced}
			c.SetTracer(nil)
			if err != nil {
				if rerr := c.Reset(); rerr != nil {
					return recs, fmt.Errorf("%v failed (%v) and the cluster could not be reset: %w", o, err, rerr)
				}
				recs = append(recs, rec)
				continue
			}
			rec.stats = c.Stats().Totals
			b.checkCounters(o, countersOf(rec.stats))
			if br, ok := res.(*algorithms.BFSResult); ok {
				rec.bfsTD, rec.bfsBU = br.TopDownSteps, br.BottomUpSteps
			}
			if traced {
				if err := reconcile(&rec, tr.Summaries(), b.opts.NumNodes); err != nil {
					return recs, fmt.Errorf("%v: %w", o, err)
				}
			}
			if cycle == 0 && keep != nil {
				keep(o, res)
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

func (b *engineBench) checkCounters(o op, got counters) {
	want, ok := b.first[o]
	if !ok {
		b.first[o] = got
		return
	}
	if got != want {
		b.diverged = append(b.diverged, fmt.Sprintf("%v: counters %+v, first run %+v", o, got, want))
	}
}

// topLevel lists the phases that never nest inside another span; the
// remaining phases (dense scan, bin and flush, dependency wait, buffer
// flush) run inside a DenseStep span.
var topLevel = []obs.Phase{obs.PhaseSparsePush, obs.PhaseDenseStep, obs.PhaseUpdateWait,
	obs.PhaseBarrier, obs.PhaseCheckpoint, obs.PhaseRecovery}

// reconcile folds one traced op's per-(node, phase) span sums into rec
// and checks that, on every node, the top-level spans fit inside the
// engine's elapsed time and DenseStep's children fit inside it. The
// remainder of the elapsed time is the node's unattributed time.
func reconcile(rec *opRecord, sums []obs.PhaseSummary, nodes int) error {
	per := make([][obs.NumPhases]time.Duration, nodes)
	for _, s := range sums {
		if s.Node < 0 || s.Node >= nodes {
			return fmt.Errorf("span on node %d of %d", s.Node, nodes)
		}
		per[s.Node][s.Phase] += s.Hist.Sum
	}
	rec.unattribs = make([]time.Duration, nodes)
	for n := range per {
		var top time.Duration
		for _, ph := range topLevel {
			top += per[n][ph]
		}
		if top > rec.stats.Elapsed {
			return fmt.Errorf("node %d: top-level spans %v exceed engine time %v", n, top, rec.stats.Elapsed)
		}
		if c := children(per[n]); c > per[n][obs.PhaseDenseStep] {
			return fmt.Errorf("node %d: DenseStep children %v exceed DenseStep %v", n, c, per[n][obs.PhaseDenseStep])
		}
		rec.unattribs[n] = rec.stats.Elapsed - top
		for ph := range per[n] {
			rec.phases[ph] += per[n][ph]
		}
	}
	return nil
}

func children(p [obs.NumPhases]time.Duration) time.Duration {
	return p[obs.PhaseDenseScan] + p[obs.PhaseDenseBin] + p[obs.PhaseDenseFlush] +
		p[obs.PhaseDepWait] + p[obs.PhaseBufferFlush]
}

// runEngine runs one engine workload and returns its metrics.
func runEngine(w engineWorkload, a args) (result, error) {
	var res result
	// Input generation (not timed): the workload's R-MAT edge list in a
	// shuffled order, as a loader would hand it over.
	input := graph.RMAT(w.scale, w.edgeFactor, graph.Graph500Params(), w.graphSeed)
	n, edges := input.NumVertices(), input.Edges()
	input = nil
	rand.New(rand.NewSource(w.graphSeed)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	b := &engineBench{w: w, opts: engineOptions(w.nodes, w.link), first: map[op]counters{}}
	defer b.close()
	var setupS, buildS, clusterS []float64
	for i := 0; i < w.setups; i++ {
		gb, cb, err := b.setup(n, edges)
		if err != nil {
			return res, err
		}
		buildS = append(buildS, gb.Seconds())
		clusterS = append(clusterS, cb.Seconds())
		setupS = append(setupS, (gb + cb).Seconds())
	}
	edges = nil
	rng := rand.New(rand.NewSource(a.seed))
	for i := 0; i < distinctRounds; i++ {
		b.rounds = append(b.rounds, makeRound(rng, b.g))
	}
	for i, c := range []*core.Cluster{b.dir, b.sym} {
		b.regs[i] = obs.NewRegistry()
		c.RegisterMetrics(b.regs[i])
	}
	// Warm-up: one untimed round fills the slab pools and lazy state.
	if _, err := b.pass(0, 1, false, nil); err != nil {
		return res, err
	}

	// Untraced pass: every end-to-end figure and the untraced layer
	// counters come from here.
	results := map[op]any{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	q0 := b.queueDelay()
	// At least every distinct round once, and enough rounds for a p90
	// with minBeyond samples beyond it (and a margin), however slow the
	// ops get.
	minRounds := max(distinctRounds, (12*minBeyond+len(paperAlgos)-1)/len(paperAlgos))
	recs, err := b.pass(a.seconds, minRounds, false, func(o op, r any) { results[o] = r })
	if err != nil {
		return res, err
	}
	q1 := b.queueDelay()
	runtime.ReadMemStats(&ms1)

	// Correctness: each distinct op once, against the sequential oracles.
	for o, r := range results {
		if msg := checkOp(b.g, b.gs, o, w.sampleRounds, r); msg != "" {
			res.mismatches = append(res.mismatches, fmt.Sprintf("%v: %s", o, msg))
		}
	}
	results = nil
	heapLive := liveHeapMB()

	var t tally
	var wall []float64
	byAlgo := map[string][]float64{}
	var sum core.RunStats
	var driver time.Duration
	var td, bu int
	for _, r := range recs {
		t.add(r.err)
		wall = append(wall, ms(r.wall))
		if r.err != nil {
			continue
		}
		byAlgo[r.op.algo] = append(byAlgo[r.op.algo], ms(r.wall))
		sum.Add(r.stats)
		driver += r.wall - r.stats.Elapsed
		td += r.bfsTD
		bu += r.bfsBU
	}
	res.tally = t
	m := metrics{}
	_, p50, _ := tail(wall, 50)
	pTail, p90, ok := tail(wall, 90)
	if !ok || pTail != 90 {
		return res, fmt.Errorf("only %d ops: too few for a p90 with %d samples beyond it", len(wall), minBeyond)
	}
	var total time.Duration
	for _, r := range recs {
		total += r.wall
	}
	m.set("setup_s", "s", median(setupS))
	m.set("op_p50_ms", "ms", p50)
	m.set("op_p90_ms", "ms", p90)
	m.set("ops_per_s", "1/s", float64(len(recs))/total.Seconds())
	m.set("heap_live_mb", "MB", heapLive)
	m.set("ok_frac", "frac", 1-t.failFrac())
	res.notes = append(res.notes,
		fmt.Sprintf("%d ops in %d rounds of %d, cycling through %d distinct rounds; op_p90_ms has %d samples beyond it",
			len(recs), len(recs)/len(paperAlgos), len(paperAlgos), distinctRounds, int(float64(len(wall))*0.1)))

	if a.trace {
		ops := float64(t.attempted - t.failed)
		nodes := float64(b.opts.NumNodes)
		perOpNode := func(d time.Duration) float64 { return ms(d) / ops / nodes }
		l := metrics{}
		l.set("fail_frac", "frac", t.failFrac())
		l.set("graph.build_s", "s", median(buildS))
		l.set("core.cluster_build_s", "s", median(clusterS))
		l.set("core.engine_ms_per_op", "ms", ms(sum.Elapsed)/ops)
		l.set("core.dep_wait_ms_per_op", "ms", perOpNode(sum.DependencyWait))
		l.set("core.update_wait_ms_per_op", "ms", perOpNode(sum.UpdateWait))
		l.set("core.dep_wait_frac", "frac", frac(float64(sum.DependencyWait)/nodes, float64(sum.Elapsed)))
		l.set("core.edges_per_op", "count", float64(sum.EdgesTraversed)/ops)
		l.set("core.skipped_per_op", "count", float64(sum.VerticesSkipped)/ops)
		l.set("core.skip_frac", "frac", frac(float64(sum.VerticesSkipped), float64(sum.VerticesSkipped+sum.EdgesTraversed)))
		l.set("core.supersteps_per_op", "count", float64(sum.Supersteps)/nodes/ops)
		l.set("comm.update_bytes_per_op", "B", float64(sum.UpdateBytes)/ops)
		l.set("comm.dep_bytes_per_op", "B", float64(sum.DependencyBytes)/ops)
		l.set("comm.control_bytes_per_op", "B", float64(sum.ControlBytes)/ops)
		l.set("comm.update_msgs_per_op", "count", float64(sum.UpdateMessages)/ops)
		l.set("comm.dep_msgs_per_op", "count", float64(sum.DependencyMessages)/ops)
		frames := float64(sum.UpdateMessages + sum.DependencyMessages)
		l.set("comm.frames_per_superstep", "count", frac(frames, float64(sum.Supersteps)))
		l.set("comm.bytes_per_frame", "B", frac(float64(sum.UpdateBytes+sum.DependencyBytes), frames))
		res.unmeasured = map[string]string{}
		for _, name := range serverLayers {
			res.unmeasured[name] = "the engine workloads bypass the query service"
		}
		if w.link == nil {
			res.unmeasured["comm.link_queue_ms_per_op"] = "nil link: frames are handed over directly, with no link queue"
		} else {
			l.set("comm.link_queue_ms_per_op", "ms", perOpNode(q1-q0))
		}
		l.set("runtime.alloc_mb_per_op", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/ops)
		l.set("runtime.mallocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/ops)
		l.set("runtime.gc_cycles_per_op", "count", float64(ms1.NumGC-ms0.NumGC)/ops)
		for _, algo := range paperAlgos {
			l.set("algorithms."+algo+"_p50_ms", "ms", median(byAlgo[algo]))
		}
		l.set("algorithms.driver_ms_per_op", "ms", ms(driver)/ops)
		l.set("algorithms.bfs_bottom_up_frac", "frac", frac(float64(bu), float64(td+bu)))
		if err := b.tracedPass(a, l); err != nil {
			return res, err
		}
		res.layers = l
	}
	for _, d := range b.diverged {
		res.mismatches = append(res.mismatches, "exact counters diverged: "+d)
	}
	res.endToEnd = m
	res.notes = append(res.notes, "counters digest "+digest(b.first, b.rounds))
	return res, nil
}

// tracedPass reruns the sequence for another --seconds, tracing every
// other cycle of rounds, and sets the per-node phase breakdown of the
// traced ops and the tracing overhead against the untraced cycles
// between them.
func (b *engineBench) tracedPass(a args, l metrics) error {
	recs, err := b.pass(a.seconds, 2*distinctRounds, true, nil)
	if err != nil {
		return err
	}
	var phases [obs.NumPhases]time.Duration
	var unattr, elapsed time.Duration
	var nops float64
	engineMs := map[bool]map[op][]float64{false: {}, true: {}} // by traced, then op
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if r.traced {
			nops++
			for ph, d := range r.phases {
				phases[ph] += d
			}
			for _, u := range r.unattribs {
				unattr += u
			}
			elapsed += r.stats.Elapsed
		}
		engineMs[r.traced][r.op] = append(engineMs[r.traced][r.op], ms(r.stats.Elapsed))
	}
	var untracedMed, tracedMed float64
	for o, untraced := range engineMs[false] {
		untracedMed += median(untraced)
		tracedMed += median(engineMs[true][o])
	}
	setPhases(l, phases, unattr, elapsed, nops, b.opts.NumNodes)
	l.set("obs.trace_overhead_frac", "frac", tracedMed/untracedMed-1)
	return nil
}

// setPhases reports a traced pass's phase times (summed over its ops and
// nodes) per op and per node, with DenseStep as its self time, so the
// phases plus the unattributed time add up to traced_engine_ms.
func setPhases(l metrics, phases [obs.NumPhases]time.Duration, unattr, engine time.Duration, ops float64, nodes int) {
	per := func(d time.Duration) float64 { return frac(ms(d), ops*float64(nodes)) }
	l.set("core.phase.sparse_push_ms", "ms", per(phases[obs.PhaseSparsePush]))
	l.set("core.phase.dense_step_ms", "ms", per(phases[obs.PhaseDenseStep]-children(phases)))
	l.set("core.phase.dense_scan_ms", "ms", per(phases[obs.PhaseDenseScan]))
	l.set("core.phase.dense_bin_ms", "ms", per(phases[obs.PhaseDenseBin]))
	l.set("core.phase.dense_flush_ms", "ms", per(phases[obs.PhaseDenseFlush]))
	l.set("core.phase.dep_wait_ms", "ms", per(phases[obs.PhaseDepWait]))
	l.set("core.phase.buffer_flush_ms", "ms", per(phases[obs.PhaseBufferFlush]))
	l.set("core.phase.update_wait_ms", "ms", per(phases[obs.PhaseUpdateWait]))
	l.set("core.phase.barrier_ms", "ms", per(phases[obs.PhaseBarrier]))
	l.set("core.phase.unattributed_ms", "ms", per(unattr))
	l.set("core.phase.traced_engine_ms", "ms", frac(ms(engine), ops))
}
