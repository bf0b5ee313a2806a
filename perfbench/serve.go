package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/server"
)

// The serve-rw workload: an in-process query service over two fixed
// R-MAT graphs, driven over loopback HTTP by closed-loop connections.
// There are twice as many connections as execution slots, so admission
// always has a queue.
// Connection 0 also commits a mutation batch whenever one is due, one
// every commitEvery, so the number of commits (and of the pool
// rebuilds and epochs they cause) does not drift with read speed.
const (
	serveConns    = 4
	serveInflight = 2
	serveNodes    = 2 // simulated machines per engine
	serveSetups   = 3
	commitEvery   = time.Second
	batchOps      = 16  // per batch: half edge additions, half removals
	hotShare      = 0.5 // share of requests drawn from the hot key set
	checkEvery    = 4   // check every 4th bfs/kcore/mis answer
	traceEvery    = 16  // traced pass: every 16th fresh query asks for trace=1
	serveMaxBatch = 128 // mutation batches generated per graph
	minRequests   = 250 // per connection, however slow the service gets
)

// serveLink is the repository's standard simulated interconnect
// (10 µs, 10 MB/s per NIC). With direct hand-off the serving timings
// were CPU-bound and followed the host's drifting speed (NOTES.md);
// over the link an engine run is mostly link time, as it is in a
// deployed cluster, and the CPUs are free for the serving layers.
var serveLink = comm.DefaultLink()

// serveGraphs gives each served graph's R-MAT scale and fixed seed.
var serveGraphs = map[string]struct {
	scale int
	seed  int64
}{"g0": {13, 3}, "g1": {12, 4}}

// query is one /query request. Its class is fixed by the key it uses:
// "hot" requests draw from a small repeated key set, "fresh" requests
// carry a key no earlier request used, so they always run the engine.
type query struct {
	class string
	graph string
	algo  string
	root  int
	k     int
	seed  uint64
	trace bool
}

func (q query) url(base string) string {
	v := url.Values{"graph": {q.graph}, "algo": {q.algo}}
	switch q.algo {
	case "bfs":
		v.Set("root", strconv.Itoa(q.root))
	case "kcore":
		v.Set("k", strconv.Itoa(q.k))
	default:
		v.Set("seed", strconv.FormatUint(q.seed, 10))
	}
	if q.trace {
		v.Set("trace", "1")
	}
	return base + "/query?" + v.Encode()
}

// queryGen produces one connection's request sequence from the seed.
type queryGen struct {
	rng   *rand.Rand
	hot   []query
	roots map[string][]int // per graph: this connection's fresh BFS roots
	next  map[string]int
}

func newQueryGen(seed int64, conn int, graphs map[string]*graph.Graph) *queryGen {
	qg := &queryGen{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))),
		roots: map[string][]int{}, next: map[string]int{}}
	for _, name := range []string{"g0", "g1"} {
		g := graphs[name]
		top, _ := graph.LargestOutDegreeVertex(g)
		qg.hot = append(qg.hot,
			query{class: "hot", graph: name, algo: "bfs", root: int(top)},
			query{class: "hot", graph: name, algo: "kcore", k: kcoreK},
			query{class: "hot", graph: name, algo: "mis", seed: 42})
		// Both connections shuffle the same roots with the same seed
		// and take alternate entries, so no fresh root repeats.
		cand := graph.NonIsolatedVertices(g)
		perm := rand.New(rand.NewSource(seed)).Perm(len(cand))
		for i := conn; i < len(perm); i += serveConns {
			qg.roots[name] = append(qg.roots[name], int(cand[perm[i]]))
		}
	}
	return qg
}

func (qg *queryGen) nextQuery() query {
	if qg.rng.Float64() < hotShare {
		return qg.hot[qg.rng.Intn(len(qg.hot))]
	}
	q := query{class: "fresh", graph: "g0"}
	if qg.rng.Intn(3) == 0 {
		q.graph = "g1"
	}
	// Equal weights over the algorithms whose key takes a fresh value
	// per request (a root or a seed): k-core's key is a small k, so it
	// is in the hot set.
	switch qg.rng.Intn(3) {
	case 0:
		q.algo = "bfs"
		roots := qg.roots[q.graph]
		q.root = roots[qg.next[q.graph]%len(roots)]
		qg.next[q.graph]++
	case 1:
		q.algo, q.seed = "mis", qg.rng.Uint64()>>1+1
	default:
		q.algo, q.seed = "sampling", qg.rng.Uint64()>>1+1
	}
	return q
}

// makeBatches draws each graph's mutation batches: edge additions
// between random distinct vertices and removals of edges of the base
// graph (a removal of an edge an earlier batch already removed is a
// valid no-op).
func makeBatches(seed int64, graphs map[string]*graph.Graph) map[string][]mutate.Batch {
	rng := rand.New(rand.NewSource(seed*104729 + 1))
	out := map[string][]mutate.Batch{}
	for _, name := range []string{"g0", "g1"} {
		g := graphs[name]
		edges := g.Edges()
		n := g.NumVertices()
		for i := 0; i < serveMaxBatch; i++ {
			var b mutate.Batch
			for j := 0; j < batchOps/2; j++ {
				src := rng.Intn(n)
				dst := (src + 1 + rng.Intn(n-1)) % n
				b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpAddEdge, Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: 1})
				e := edges[rng.Intn(len(edges))]
				b.Ops = append(b.Ops, mutate.Mutation{Op: mutate.OpRemoveEdge, Src: e.Src, Dst: e.Dst})
			}
			out[name] = append(out[name], b)
		}
	}
	return out
}

func batchJSON(name string, b mutate.Batch) ([]byte, error) {
	req := server.MutateRequest{Graph: name}
	for _, m := range b.Ops {
		op := "add_edge"
		if m.Op == mutate.OpRemoveEdge {
			op = "remove_edge"
		}
		req.Mutations = append(req.Mutations, server.MutationJSON{Op: op, Src: uint32(m.Src), Dst: uint32(m.Dst), Weight: m.Weight})
	}
	return json.Marshal(req)
}

type queryRec struct {
	q      query
	idx    int // position in the connection's request sequence
	lat    time.Duration
	err    error // transport error or non-2xx status
	status int
	resp   server.Response
	lag    int64 // commits of q.graph the answer's epoch is behind
}

// engineRan reports whether the response was computed by the engine
// for this request (not served from the cache or a coalesced flight).
func (r *queryRec) engineRan() bool { return r.err == nil && !r.resp.Cached && !r.resp.Coalesced }

type mutateRec struct {
	graph string
	batch mutate.Batch
	lat   time.Duration
	err   error
	resp  server.MutateResponse
}

// service is one running server with its loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startService(graphs map[string]*graph.Graph, tr *obs.Tracer) (*service, error) {
	srv, err := server.New(server.Config{
		Graphs:      graphs,
		Engine:      engineOptions(serveNodes, serveLink),
		MaxInflight: serveInflight,
		Tracer:      tr,
	})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, DisableCompression: true}},
		done:   make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop drains the service and waits for its goroutines.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-s.done
	s.client.CloseIdleConnections()
	return err
}

func (s *service) get(q query) (server.Response, int, error) {
	var resp server.Response
	status, err := s.call(http.MethodGet, q.url(s.base), nil, &resp)
	return resp, status, err
}

func (s *service) mutate(name string, b mutate.Batch) (server.MutateResponse, error) {
	var resp server.MutateResponse
	body, err := batchJSON(name, b)
	if err != nil {
		return resp, err
	}
	_, err = s.call(http.MethodPost, s.base+"/mutate", body, &resp)
	return resp, err
}

// call sends one request and decodes a 200 answer into out; any other
// status is an error carrying the server's message.
func (s *service) call(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	r, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return r.StatusCode, err
	}
	if r.StatusCode != http.StatusOK {
		return r.StatusCode, fmt.Errorf("status %d: %s", r.StatusCode, bytes.TrimSpace(data))
	}
	return r.StatusCode, json.Unmarshal(data, out)
}

// warm leases one engine per (graph, variant): a directed and an
// undirected no-cache query per graph.
func (s *service) warm() error {
	for _, name := range []string{"g0", "g1"} {
		for _, algo := range []string{"bfs", "kcore"} {
			u := s.base + "/query?" + url.Values{"graph": {name}, "algo": {algo}, "no_cache": {"1"}}.Encode()
			r, err := s.client.Get(u)
			if err != nil {
				return fmt.Errorf("warm-up %s/%s: %w", name, algo, err)
			}
			_, _ = io.Copy(io.Discard, r.Body) // only the status matters
			r.Body.Close()
			if r.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up %s/%s: status %d", name, algo, r.StatusCode)
			}
		}
	}
	return nil
}

// servePass drives the service with the closed-loop connections until
// d has elapsed. Between its requests, connection 0 commits the next
// mutation batch whenever one is due, alternating graphs.
func servePass(s *service, seed int64, graphs map[string]*graph.Graph, batches map[string][]mutate.Batch,
	d time.Duration, traced bool) ([]queryRec, []mutateRec, time.Duration) {
	latest := map[string]*atomic.Uint64{}
	for name, st := range s.srv.StatusSnapshot().Epochs {
		latest[name] = new(atomic.Uint64)
		latest[name].Store(st.Epoch)
	}
	var mu sync.Mutex
	var queries []queryRec
	var muts []mutateRec
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qg := newQueryGen(seed, c, graphs)
			used := map[string]int{}
			fresh, commits := 0, 0
			for i := 0; time.Since(start) < d || i < minRequests; i++ {
				if c == 0 && time.Since(start) >= time.Duration(commits+1)*commitEvery {
					name := []string{"g0", "g1"}[commits%2]
					commits++
					if used[name] < len(batches[name]) {
						b := batches[name][used[name]]
						used[name]++
						t0 := time.Now()
						resp, err := s.mutate(name, b)
						rec := mutateRec{graph: name, batch: b, lat: time.Since(t0), err: err, resp: resp}
						if err == nil {
							latest[name].Store(resp.Epoch)
						}
						mu.Lock()
						muts = append(muts, rec)
						mu.Unlock()
						continue
					}
				}
				q := qg.nextQuery()
				if q.class == "fresh" {
					fresh++
					q.trace = traced && fresh%traceEvery == 0
				}
				t0 := time.Now()
				resp, status, err := s.get(q)
				rec := queryRec{q: q, idx: i, lat: time.Since(t0), err: err, status: status, resp: resp}
				if err == nil {
					// A commit can land before connection 0 has read its
					// reply; such an answer is not behind.
					rec.lag = max(0, int64(latest[q.graph].Load())-int64(resp.Epoch))
				}
				mu.Lock()
				queries = append(queries, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return queries, muts, time.Since(start)
}

// checkServe rebuilds every epoch by replaying the committed batches
// with mutate.Apply and checks a deterministic sample of answers (every
// checkEvery-th bfs, kcore and mis response of each connection) against
// the sequential oracles at the answer's epoch.
func checkServe(base map[string]*graph.Graph, baseEpoch map[string]uint64, muts []mutateRec, queries []queryRec) ([]string, int) {
	var bad []string
	epochs := map[string]map[uint64]*graph.Graph{}
	for name, g := range base {
		epochs[name] = map[uint64]*graph.Graph{baseEpoch[name]: g}
	}
	for _, m := range muts {
		if m.err != nil {
			continue
		}
		parent, ok := epochs[m.graph][m.resp.ParentEpoch]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: commit of epoch %d has unknown parent %d", m.graph, m.resp.Epoch, m.resp.ParentEpoch))
			continue
		}
		g, err := mutate.Apply(parent, m.batch)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: replaying epoch %d: %v", m.graph, m.resp.Epoch, err))
			continue
		}
		if g.NumEdges() != m.resp.Edges || g.NumVertices() != m.resp.Vertices {
			bad = append(bad, fmt.Sprintf("%s epoch %d: server reports %d vertices/%d edges, replay has %d/%d",
				m.graph, m.resp.Epoch, m.resp.Vertices, m.resp.Edges, g.NumVertices(), g.NumEdges()))
		}
		epochs[m.graph][m.resp.Epoch] = g
	}
	sym := map[*graph.Graph]*graph.Graph{}
	symOf := func(g *graph.Graph) *graph.Graph {
		if s, ok := sym[g]; ok {
			return s
		}
		sym[g] = graph.Symmetrize(g)
		return sym[g]
	}
	type key struct {
		g *graph.Graph
		q query
	}
	memo := map[key]int{}
	checked := 0
	for _, r := range queries {
		if r.err != nil || r.idx%checkEvery != 0 || (r.q.algo != "bfs" && r.q.algo != "kcore" && r.q.algo != "mis") {
			continue
		}
		g, ok := epochs[r.q.graph][r.resp.Epoch]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s answered at unknown epoch %d", r.q.url(""), r.resp.Epoch))
			continue
		}
		k := key{g, query{algo: r.q.algo, root: r.q.root, k: r.q.k, seed: r.q.seed}}
		want, ok := memo[k]
		if !ok {
			want = serveOracle(g, symOf, r.q)
			memo[k] = want
		}
		got := r.resp.Result.Reached
		if r.q.algo != "bfs" {
			got = r.resp.Result.Size
		}
		checked++
		if got != want {
			bad = append(bad, fmt.Sprintf("%s at epoch %d: answer %d, oracle %d", r.q.url(""), r.resp.Epoch, got, want))
		}
	}
	return bad, checked
}

// serveOracle is the sequential answer the response summarizes: BFS
// reached-vertex count, k-core size or MIS size.
func serveOracle(g *graph.Graph, symOf func(*graph.Graph) *graph.Graph, q query) int {
	count := 0
	switch q.algo {
	case "bfs":
		for _, d := range seq.TopDownBFS(g, graph.VertexID(q.root)).Depth {
			if d >= 0 {
				count++
			}
		}
	case "kcore":
		in, _ := seq.KCoreIterative(symOf(g), q.k)
		for _, b := range in {
			if b {
				count++
			}
		}
	case "mis":
		gs := symOf(g)
		for _, b := range seq.GreedyMIS(gs, seq.MISColors(gs.NumVertices(), q.seed)) {
			if b {
				count++
			}
		}
	}
	return count
}

func runServe(a args) (result, error) {
	var res result
	graphs := map[string]*graph.Graph{}
	for name, spec := range serveGraphs {
		graphs[name] = graph.RMAT(spec.scale, 16, graph.Graph500Params(), spec.seed)
	}
	batches := makeBatches(a.seed, graphs)

	// Set-up: server.New plus one warm lease per (graph, variant),
	// several times; the last service stays up for the measured pass.
	var setupS []float64
	var svc *service
	for i := 0; i < serveSetups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return res, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		s, err := startService(graphs, nil)
		if err != nil {
			return res, err
		}
		svc = s
		if err := svc.warm(); err != nil {
			_ = svc.stop() // the warm-up error is the one to report
			return res, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	baseEpoch := map[string]uint64{}
	for name, st := range svc.srv.StatusSnapshot().Epochs {
		baseEpoch[name] = st.Epoch
	}
	st0 := svc.srv.StatusSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	queries, muts, elapsed := servePass(svc, a.seed, graphs, batches, a.seconds, false)
	runtime.ReadMemStats(&ms1)
	st1 := svc.srv.StatusSnapshot()

	bad, checked := checkServe(graphs, baseEpoch, muts, queries)
	res.mismatches = bad
	heapLive := liveHeapMB()
	if err := svc.stop(); err != nil {
		return res, err
	}

	var t tally
	var all, fresh, hits, engineMs, overhead, queueMs, mutMs, incMs []float64
	var nCached, nCoalesced, n5xx, n429, nEngine int
	var lagSum float64
	engineBy := map[string][]float64{}
	var edges, upd, dep, ctl int64
	var td, bu int
	for i := range queries {
		r := &queries[i]
		t.add(r.err)
		switch {
		case r.status >= 500:
			n5xx++
		case r.status == http.StatusTooManyRequests:
			n429++
		}
		if r.err != nil {
			continue
		}
		lagSum += float64(r.lag)
		all = append(all, ms(r.lat))
		if r.resp.Cached {
			nCached++
			hits = append(hits, ms(r.lat))
		}
		if r.resp.Coalesced {
			nCoalesced++
		}
		if r.q.class == "fresh" {
			fresh = append(fresh, ms(r.lat))
		}
		if r.engineRan() {
			nEngine++
			engineMs = append(engineMs, r.resp.EngineMs)
			engineBy[r.q.algo] = append(engineBy[r.q.algo], r.resp.EngineMs)
			queueMs = append(queueMs, r.resp.QueueWaitMs)
			overhead = append(overhead, ms(r.lat)-r.resp.QueueWaitMs-r.resp.EngineMs)
			edges += r.resp.Engine.EdgesTraversed
			upd += r.resp.Engine.UpdateBytes
			dep += r.resp.Engine.DependencyBytes
			ctl += r.resp.Engine.ControlBytes
			td += r.resp.Result.TopDownSteps
			bu += r.resp.Result.BottomUpSteps
		}
	}
	var promoted, dropped, retired int
	for _, m := range muts {
		t.add(m.err)
		if m.err != nil {
			continue
		}
		mutMs = append(mutMs, ms(m.lat))
		incMs = append(incMs, m.resp.IncMs)
		promoted += m.resp.CachePromoted
		dropped += m.resp.CacheDropped
		retired += m.resp.PoolRetired
	}
	res.tally = t
	nq := float64(len(queries))
	m := metrics{}
	_, p50, _ := tail(fresh, 50)
	pTail, p90, ok := tail(fresh, 90)
	if !ok || pTail != 90 {
		return res, fmt.Errorf("only %d fresh queries: too few for a p90 with %d samples beyond it", len(fresh), minBeyond)
	}
	m.set("setup_s", "s", median(setupS))
	m.set("op_p50_ms", "ms", p50)
	m.set("op_p90_ms", "ms", p90)
	m.set("ops_per_s", "1/s", float64(t.attempted)/elapsed.Seconds())
	m.set("heap_live_mb", "MB", heapLive)
	m.set("ok_frac", "frac", 1-t.failFrac())
	res.endToEnd = m
	// The 99th percentile is over every answered query: a run has too
	// few fresh queries for ten beyond it, and the slowest hundredth of
	// all queries is engine runs (fresh keys and hot keys after a
	// commit) whatever the key class.
	pq, p99, _ := tail(all, 99)
	res.notes = append(res.notes,
		fmt.Sprintf("%d queries (%d fresh, %d hot), %d commits in %.1fs; %d answers checked against the oracles",
			len(queries), len(fresh), len(queries)-len(fresh), len(muts), elapsed.Seconds(), checked),
		fmt.Sprintf("serve.query_p99_ms is the p%g of %d query latencies", pq, len(all)),
		fmt.Sprintf("failed %d of %d requests (%d 5xx, %d 429)", t.failed, t.attempted, n5xx, n429))
	for _, r := range queries {
		if r.err != nil {
			res.notes = append(res.notes, fmt.Sprintf("failed: %s: %v", r.q.url(""), r.err))
		}
	}
	for _, m := range muts {
		if m.err != nil {
			res.notes = append(res.notes, fmt.Sprintf("failed: commit to %s: %v", m.graph, m.err))
		}
	}

	if a.trace {
		l := metrics{}
		ne := float64(nEngine)
		l.set("fail_frac", "frac", t.failFrac())
		l.set("serve.query_p99_ms", "ms", p99)
		l.set("serve.mutate_p50_ms", "ms", median(mutMs))
		l.set("serve.qps", "1/s", nq/elapsed.Seconds())
		l.set("server.engine_ms_p50", "ms", median(engineMs))
		_, q99, _ := tail(queueMs, 99)
		l.set("server.queue_wait_ms_p99", "ms", q99)
		l.set("server.overhead_ms_p50", "ms", median(overhead))
		l.set("server.hit_p50_ms", "ms", median(hits))
		l.set("server.cache_hit_frac", "frac", float64(nCached)/nq)
		l.set("server.coalesced_frac", "frac", float64(nCoalesced)/nq)
		l.set("server.rejected", "count", float64(n429))
		l.set("server.errors_5xx", "count", float64(n5xx))
		l.set("server.pool_builds", "count", float64(st1.Pool.Clusters-st0.Pool.Clusters))
		l.set("mutate.inc_ms_p50", "ms", median(incMs))
		l.set("mutate.cache_promoted_frac", "frac", frac(float64(promoted), float64(promoted+dropped)))
		l.set("mutate.pool_retired_per_commit", "count", frac(float64(retired), float64(len(mutMs))))
		l.set("mutate.epoch_lag_mean", "count", lagSum/nq)
		for _, algo := range []string{"bfs", "kcore", "mis", "sampling"} {
			l.set("algorithms."+algo+"_p50_ms", "ms", median(engineBy[algo]))
		}
		l.set("core.engine_ms_per_op", "ms", frac(sumOf(engineMs), ne))
		l.set("core.edges_per_op", "count", frac(float64(edges), ne))
		l.set("comm.update_bytes_per_op", "B", frac(float64(upd), ne))
		l.set("comm.dep_bytes_per_op", "B", frac(float64(dep), ne))
		l.set("comm.control_bytes_per_op", "B", frac(float64(ctl), ne))
		l.set("algorithms.bfs_bottom_up_frac", "frac", frac(float64(bu), float64(td+bu)))
		l.set("runtime.alloc_mb_per_op", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(t.attempted))
		l.set("runtime.mallocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(t.attempted))
		l.set("runtime.gc_cycles_per_op", "count", float64(ms1.NumGC-ms0.NumGC)/float64(t.attempted))
		if err := serveTraced(a, graphs, batches, l); err != nil {
			return res, err
		}
		res.layers = l
		res.unmeasured = serveUnmeasured
	}
	return res, nil
}

// serveUnmeasured names the declared per-layer metrics serve-rw does
// not measure, and why.
var serveUnmeasured = map[string]string{
	"graph.build_s":               "the service builds its graph variants lazily inside leases; setup_s times them with server.New",
	"core.cluster_build_s":        "the service builds its engines inside leases; server.pool_builds counts them",
	"core.dep_wait_ms_per_op":     "a response carries no wait times; core.phase.dep_wait_ms is serve-rw's dependency wait, from the traced pass",
	"core.update_wait_ms_per_op":  "a response carries no wait times; core.phase.update_wait_ms is serve-rw's update wait, from the traced pass",
	"core.dep_wait_frac":          "a response carries no wait times",
	"core.skipped_per_op":         "a response carries no skipped-vertex count",
	"core.skip_frac":              "a response carries no skipped-vertex count",
	"core.supersteps_per_op":      "a response carries no superstep count",
	"comm.update_msgs_per_op":     "a response carries no message counts",
	"comm.dep_msgs_per_op":        "a response carries no message counts",
	"comm.frames_per_superstep":   "a response carries no message or superstep counts",
	"comm.bytes_per_frame":        "a response carries no message counts",
	"comm.link_queue_ms_per_op":   "a response carries no link-queue figure",
	"algorithms.kmeans_p50_ms":    "serve-rw sends no k-means queries",
	"algorithms.driver_ms_per_op": "a response's engine_ms covers the whole algorithm call",
	"obs.trace_overhead_frac": "the traced pass runs on its own service, so traced and untraced " +
		"requests never share a host period; the engine workloads measure it interleaved",
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// serveTraced runs the traced pass on a fresh service whose pool
// records into a shared tracer. Answers computed by the engine for an
// untraced request are reconciled, per node, with the phase sums; the
// trace=1 sample must come back with a per-request trace.
func serveTraced(a args, graphs map[string]*graph.Graph, batches map[string][]mutate.Batch, l metrics) error {
	tr := obs.NewTracer()
	svc, err := startService(graphs, tr)
	if err != nil {
		return err
	}
	if err := svc.warm(); err != nil {
		_ = svc.stop() // the warm-up error is the one to report
		return err
	}
	before := tr.Summaries()
	queries, _, _ := servePass(svc, a.seed, graphs, batches, a.seconds, true)
	after := tr.Summaries()
	if err := svc.stop(); err != nil {
		return err
	}
	var engineTotal float64
	var n float64
	for i := range queries {
		r := &queries[i]
		if !r.engineRan() {
			continue
		}
		if r.q.trace {
			if len(r.resp.Trace) == 0 {
				return fmt.Errorf("%s: traced query came back without a trace", r.q.url(""))
			}
			continue
		}
		n++
		engineTotal += r.resp.EngineMs
	}
	// One reconciliation over the whole pass: per node, the spans must
	// fit inside the summed engine time of the answers they belong to.
	rec := opRecord{stats: core.RunStats{Elapsed: time.Duration(engineTotal * float64(time.Millisecond))}}
	if err := reconcile(&rec, spanDelta(before, after), serveNodes); err != nil {
		return err
	}
	var unattr time.Duration
	for _, u := range rec.unattribs {
		unattr += u
	}
	setPhases(l, rec.phases, unattr, rec.stats.Elapsed, n, serveNodes)
	return nil
}

// spanDelta is the per-(node, phase) span time recorded between two
// snapshots of one tracer.
func spanDelta(before, after []obs.PhaseSummary) []obs.PhaseSummary {
	type key struct {
		node  int
		phase obs.Phase
	}
	was := map[key]time.Duration{}
	for _, s := range before {
		was[key{s.Node, s.Phase}] += s.Hist.Sum
	}
	out := make([]obs.PhaseSummary, 0, len(after))
	for _, s := range after {
		s.Hist.Sum -= was[key{s.Node, s.Phase}]
		out = append(out, s)
	}
	return out
}
