package main

import (
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/server"
)

func seqN(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// The tail rule reports the highest percentile at or below the one
// asked for that leaves at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n       int
		want    float64
		p       float64
		ok      bool
		comment string
	}{
		{1000, 99, 99, true, "10 samples beyond p99"},
		{999, 99, 95, true, "9.99 beyond p99 is too few"},
		{500, 99, 95, true, "25 beyond p95"},
		{100, 90, 90, true, "10 beyond p90"},
		{60, 90, 75, true, "6 beyond p90, 15 beyond p75"},
		{20, 90, 50, true, "10 beyond the median"},
		{19, 90, 0, false, "not even the median has 10 beyond"},
		{1000, 50, 50, true, "never above the percentile asked for"},
	} {
		p, v, ok := tail(seqN(c.n), c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("%s: tail(n=%d, %v) = p%v ok=%v, want p%v ok=%v", c.comment, c.n, c.want, p, ok, c.p, c.ok)
		}
		if ok && v != quantile(seqN(c.n), p/100) {
			t.Errorf("%s: value %v is not the p%v", c.comment, v, p)
		}
	}
}

func TestFailuresCountAgainstAttempts(t *testing.T) {
	var tl tally
	for _, err := range []error{nil, errors.New("500"), nil, nil} {
		tl.add(err)
	}
	if tl.attempted != 4 || tl.failed != 1 || tl.failFrac() != 0.25 {
		t.Fatalf("tally = %+v (fail_frac %v), want 4 attempted, 1 failed, 0.25", tl, tl.failFrac())
	}
	if (tally{}).failFrac() != 0 {
		t.Fatal("fail_frac of nothing attempted must be 0")
	}
}

// Every non-2xx answer and every transport error is a failed request,
// whatever the body says.
func TestNon2xxAndTransportErrorsFail(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("graph") {
		case "ok":
			_, _ = w.Write([]byte(`{"graph":"ok","result":{"reached":3}}`))
		case "busy":
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		default:
			http.Error(w, "cluster poisoned", http.StatusInternalServerError)
		}
	}))
	s := &service{base: ts.URL, client: ts.Client()}
	resp, status, err := s.get(query{graph: "ok", algo: "bfs"})
	if err != nil || status != 200 || resp.Result.Reached != 3 {
		t.Fatalf("ok query: %v %d %+v", err, status, resp)
	}
	for _, g := range []string{"busy", "poisoned"} {
		if _, status, err := s.get(query{graph: g, algo: "bfs"}); err == nil {
			t.Errorf("%s: status %d counted as success", g, status)
		}
	}
	ts.Close()
	if _, _, err := s.get(query{graph: "ok", algo: "bfs"}); err == nil {
		t.Error("transport error counted as success")
	}
}

func TestMetricsRejectBadNamesAndValues(t *testing.T) {
	for _, c := range []struct{ name, unit string }{
		{"bad name", "ms"}, {"_lead", "ms"}, {"ok", ""}, {"ok", "m s"}, {"x.y", "waytoolongunit12345"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("set(%q, %q) accepted", c.name, c.unit)
				}
			}()
			metrics{}.set(c.name, c.unit, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-finite value accepted")
			}
		}()
		metrics{}.set("x", "ms", math.NaN())
	}()
}

// Every metric the benchmark declares has a valid name and unit, and
// the program refuses to print one it does not declare.
func TestDeclaredMetricsAreValid(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, list := range [][]struct{ Name, Unit string }{def.EndToEnd, def.PerLayer} {
		for _, m := range list {
			if !nameRe.MatchString(m.Name) || !unitRe.MatchString(m.Unit) {
				t.Errorf("metric %q unit %q is malformed", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric %q declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(def.Workloads) < 2 {
		t.Errorf("%d workloads declared", len(def.Workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := engineWorkloads[w.Name]; !ok && w.Name != "serve-rw" {
			t.Errorf("declared workload %q has no implementation", w.Name)
		}
	}
	got := metrics{}
	for _, m := range def.EndToEnd {
		got.set(m.Name, m.Unit, 1)
	}
	if err := conform(got, def.EndToEnd, nil); err != nil {
		t.Errorf("complete end-to-end set rejected: %v", err)
	}
	got.set("undeclared", "ms", 1)
	if err := conform(got, def.EndToEnd, nil); err == nil {
		t.Error("undeclared metric accepted")
	}
	if err := conform(metrics{}, def.EndToEnd, nil); err == nil {
		t.Error("missing end-to-end metrics accepted")
	}
}

// A per-layer metric a workload neither measures nor lists as not
// measured fails the run; a listed one reads 0; one that is both
// measured and listed, or listed but not declared, is an error.
func TestUnmeasuredLayersMustBeDeclared(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	first, rest := def.PerLayer[0], def.PerLayer[1:]
	all := map[string]string{}
	for _, m := range rest {
		all[m.Name] = "not exercised"
	}
	got := metrics{}
	got.set(first.Name, first.Unit, 1)
	if err := conform(got, def.PerLayer, all); err != nil || len(got) != len(def.PerLayer) || got[rest[0].Name].Value != 0 {
		t.Errorf("listed metrics not filled: %v, %d of %d", err, len(got), len(def.PerLayer))
	}
	delete(all, rest[0].Name)
	got = metrics{}
	got.set(first.Name, first.Unit, 1)
	if err := conform(got, def.PerLayer, all); err == nil {
		t.Errorf("unlisted missing metric %s accepted", rest[0].Name)
	}
	got = metrics{}
	got.set(first.Name, first.Unit, 1)
	got.set(rest[0].Name, rest[0].Unit, 1)
	all[first.Name] = "not exercised"
	if err := conform(got, def.PerLayer, all); err == nil {
		t.Error("metric both measured and listed as not measured accepted")
	}
	if err := conform(metrics{}, def.PerLayer, map[string]string{"undeclared": "x"}); err == nil {
		t.Error("undeclared unmeasured metric accepted")
	}
	declared := map[string]bool{}
	for _, m := range def.PerLayer {
		declared[m.Name] = true
	}
	for _, name := range serverLayers {
		if !declared[name] {
			t.Errorf("engine workloads list undeclared metric %s as not measured", name)
		}
	}
	for name := range serveUnmeasured {
		if !declared[name] {
			t.Errorf("serve-rw lists undeclared metric %s as not measured", name)
		}
	}
}

// smallEngine runs the five algorithms on a small R-MAT graph.
func smallEngine(t *testing.T) (*graph.Graph, *graph.Graph, map[op]any) {
	t.Helper()
	g := graph.RMAT(8, 8, graph.Graph500Params(), 5)
	gs := graph.Symmetrize(g)
	opts := engineOptions(4, nil)
	b := &engineBench{w: engineWorkloads["engine-cpu"], opts: opts, g: g, gs: gs}
	var err error
	if b.dir, err = core.NewCluster(g, opts); err != nil {
		t.Fatal(err)
	}
	if b.sym, err = core.NewCluster(gs, opts); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	root, _ := graph.LargestOutDegreeVertex(g)
	out := map[op]any{}
	for _, o := range []op{{algo: "bfs", root: root}, {algo: "kcore", k: 3}, {algo: "mis", seed: 9},
		{algo: "kmeans", seed: 9}, {algo: "sampling", seed: 9}} {
		res, err := b.exec(o)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		out[o] = res
	}
	return g, gs, out
}

func TestOracleAcceptsEngineAndTripsOnCorruption(t *testing.T) {
	g, gs, results := smallEngine(t)
	rounds := engineWorkloads["engine-cpu"].sampleRounds
	for o, r := range results {
		if msg := checkOp(g, gs, o, rounds, r); msg != "" {
			t.Errorf("%v: correct result rejected: %s", o, msg)
		}
	}
	for o, r := range results {
		switch r := r.(type) {
		case *algorithms.BFSResult:
			for v, d := range r.Depth {
				if d > 0 {
					r.Depth[v]++
					break
				}
			}
		case *algorithms.KCoreResult:
			r.InCore[0] = !r.InCore[0]
		case *algorithms.MISResult:
			r.InMIS[0] = !r.InMIS[0]
		case *seq.KMeansResult:
			for v, c := range r.Cluster {
				if c != seq.NoCluster {
					r.Cluster[v] = seq.NoCluster
					break
				}
			}
		case *algorithms.SampleResult:
			for v, p := range r.Picks[1] {
				if p != seq.NotSampled {
					r.Picks[1][v] = seq.NotSampled
					break
				}
			}
		}
		if msg := checkOp(g, gs, o, rounds, r); msg == "" {
			t.Errorf("%v: corrupted result accepted", o)
		}
	}
}

// The serving check replays commits to rebuild each epoch and trips on
// an answer that does not match the oracle at the answer's epoch.
func TestServeCheckReplaysEpochs(t *testing.T) {
	base := map[string]*graph.Graph{"g0": graph.RMAT(7, 8, graph.Graph500Params(), 1)}
	b := mutate.Batch{Ops: []mutate.Mutation{{Op: mutate.OpRemoveEdge, Src: base["g0"].Edges()[0].Src, Dst: base["g0"].Edges()[0].Dst},
		{Op: mutate.OpAddEdge, Src: 1, Dst: 2, Weight: 1}}}
	g1, err := mutate.Apply(base["g0"], b)
	if err != nil {
		t.Fatal(err)
	}
	muts := []mutateRec{{graph: "g0", batch: b,
		resp: server.MutateResponse{Epoch: 2, ParentEpoch: 1, Vertices: g1.NumVertices(), Edges: g1.NumEdges()}}}
	symOf := func(g *graph.Graph) *graph.Graph { return graph.Symmetrize(g) }
	var queries []queryRec
	for _, q := range []query{{graph: "g0", algo: "bfs", root: 1}, {graph: "g0", algo: "kcore", k: 2}, {graph: "g0", algo: "mis", seed: 3}} {
		for epoch, g := range map[uint64]*graph.Graph{1: base["g0"], 2: g1} {
			r := queryRec{q: q, resp: server.Response{Epoch: epoch}}
			want := serveOracle(g, symOf, q)
			if q.algo == "bfs" {
				r.resp.Result.Reached = want
			} else {
				r.resp.Result.Size = want
			}
			queries = append(queries, r)
		}
	}
	if bad, checked := checkServe(base, map[string]uint64{"g0": 1}, muts, queries); len(bad) != 0 || checked != len(queries) {
		t.Fatalf("correct answers: %d checked, mismatches %v", checked, bad)
	}
	queries[3].resp.Result.Size++
	if bad, _ := checkServe(base, map[string]uint64{"g0": 1}, muts, queries); len(bad) != 1 {
		t.Fatalf("one wrong answer gave mismatches %v", bad)
	}
	muts[0].resp.Edges++
	if bad, _ := checkServe(base, map[string]uint64{"g0": 1}, muts, queries[:1]); len(bad) != 1 {
		t.Fatalf("a commit whose edge count disagrees with the replay gave %v", bad)
	}
}

func TestExactCounterDivergenceIsReported(t *testing.T) {
	b := &engineBench{first: map[op]counters{}}
	o := op{algo: "kcore", k: 8}
	b.checkCounters(o, counters{Edges: 10, Supersteps: 3})
	b.checkCounters(o, counters{Edges: 10, Supersteps: 3})
	if len(b.diverged) != 0 {
		t.Fatalf("identical counters reported: %v", b.diverged)
	}
	b.checkCounters(o, counters{Edges: 11, Supersteps: 3})
	if len(b.diverged) != 1 {
		t.Fatalf("diverged counters not reported: %v", b.diverged)
	}
}

func TestReconcileSplitsEngineTime(t *testing.T) {
	ms := time.Millisecond
	sums := []obs.PhaseSummary{
		{Node: 0, Phase: obs.PhaseDenseStep, Hist: obs.HistSnapshot{Sum: 6 * ms}},
		{Node: 0, Phase: obs.PhaseDenseScan, Hist: obs.HistSnapshot{Sum: 3 * ms}},
		{Node: 0, Phase: obs.PhaseDepWait, Hist: obs.HistSnapshot{Sum: 2 * ms}},
		{Node: 0, Phase: obs.PhaseUpdateWait, Hist: obs.HistSnapshot{Sum: 1 * ms}},
		{Node: 1, Phase: obs.PhaseSparsePush, Hist: obs.HistSnapshot{Sum: 4 * ms}},
	}
	rec := opRecord{stats: core.RunStats{Elapsed: 10 * ms}}
	if err := reconcile(&rec, sums, 2); err != nil {
		t.Fatal(err)
	}
	if rec.unattribs[0] != 3*ms || rec.unattribs[1] != 6*ms {
		t.Fatalf("unattributed = %v, want [3ms 6ms]", rec.unattribs)
	}
	// Top-level spans plus unattributed time give back the engine time
	// on every node.
	var total time.Duration
	for _, ph := range topLevel {
		total += rec.phases[ph]
	}
	for _, u := range rec.unattribs {
		total += u
	}
	if total != 2*rec.stats.Elapsed {
		t.Fatalf("layers sum to %v over 2 nodes, want %v", total, 2*rec.stats.Elapsed)
	}
	over := append(sums, obs.PhaseSummary{Node: 1, Phase: obs.PhaseBarrier, Hist: obs.HistSnapshot{Sum: 7 * ms}})
	if err := reconcile(&opRecord{stats: rec.stats}, over, 2); err == nil {
		t.Error("spans longer than the engine time accepted")
	}
	nested := append(sums, obs.PhaseSummary{Node: 0, Phase: obs.PhaseDenseBin, Hist: obs.HistSnapshot{Sum: 2 * ms}})
	if err := reconcile(&opRecord{stats: rec.stats}, nested, 2); err == nil {
		t.Error("DenseStep children longer than DenseStep accepted")
	}
}

// A round runs each of the paper's algorithms exactly once, and the
// same seed draws the same round.
func TestRoundWeightsAlgorithmsEqually(t *testing.T) {
	g := graph.RMAT(8, 8, graph.Graph500Params(), 5)
	round := makeRound(rand.New(rand.NewSource(7)), g)
	seen := map[string]int{}
	for _, o := range round {
		seen[o.algo]++
	}
	if len(round) != len(paperAlgos) {
		t.Fatalf("round has %d ops, want %d", len(round), len(paperAlgos))
	}
	for _, a := range paperAlgos {
		if seen[a] != 1 {
			t.Errorf("%s runs %d times per round, want 1", a, seen[a])
		}
	}
	again := makeRound(rand.New(rand.NewSource(7)), g)
	for i := range round {
		if round[i] != again[i] {
			t.Fatalf("same seed drew %v then %v at position %d", round[i], again[i], i)
		}
	}
}
