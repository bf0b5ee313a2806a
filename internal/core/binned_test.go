// Golden identity matrix for the dense and sparse edge scans: every
// algorithm variant × both modes × {2, 4} nodes, plus a mutation epoch
// advance, pinned to committed result digests and exact traffic totals.
// The values were recorded from the engine before its scan variants
// were folded into one path, when the binned, legacy and copying
// variants still cross-checked each other; they now stand in for that
// comparison. Where the answer is unique, results are also checked
// against the independent sequential oracles in internal/seq. The
// external test package drives the real algorithm implementations.
package core_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/seq"
)

// frameHeaderBytes is comm's accounted per-frame overhead (from, kind,
// tag, length). Per-group dependency frames concatenate byte-exactly
// into the batched frame, so dependency traffic net of frame headers is
// invariant under the group count while the frame count is not.
const frameHeaderBytes = 13

// goldenCell pins one matrix cell.
type goldenCell struct {
	updateBytes, updateMsgs int64
	depPayload, depMsgs     int64 // dependency bytes net of headers; frames
	digest                  string
}

// goldenMatrix is keyed "algo/mode/nN". sampling-thr0 runs sampling
// with DepThreshold 0 and NumBuffers 4, whose dependency frames (2–4
// KiB) are large enough to split into groups: its payload and digest
// are the values recorded from the batched framing; its frame counts
// (28 and 72, against 8 and 48 batched) follow the group rule, 3–4
// groups per step on 2 nodes and 1–2 on 4.
var goldenMatrix = map[string]goldenCell{
	"bfs/symplegraph/n2":           {3786, 10, 80, 4, "5e274feb246eaf403dd8d23a024d1e487e129315455d594b083e50375e3598d9"},
	"bfs-top/symplegraph/n2":       {7346, 10, 0, 0, "d01e8ca9c89833991cac64cd4db4f4f04aea25b566a8a135a4306fbc58d901b0"},
	"bfs-bottom/symplegraph/n2":    {3786, 10, 200, 10, "6e0f2574fbab2fd54ed33ec2be9287bafa682de9a04a0cad5a918dbeb0616bdc"},
	"sssp/symplegraph/n2":          {155244, 20, 0, 0, "1ff8067443143b14ca2f115e7b6c2701e99c964449b2266bbaa6331a51502ccb"},
	"kcore/symplegraph/n2":         {19986, 6, 144, 6, "99e88155b35cfe15ea89d0ca5b4eb18e244bcd272c4418974b746d6fc4dbb36a"},
	"mis/symplegraph/n2":           {3812, 12, 288, 12, "bd283c2acc14fef9662c7e462076d7e0293216a5c6e8d04c883dbb1c51bbcc30"},
	"kmeans/symplegraph/n2":        {10134, 22, 528, 22, "9dd9847e2e0fb951d384acb7ceb6a79f62548bcf0eca98dbc6448d87ea13b8a2"},
	"sampling/symplegraph/n2":      {22136, 8, 6624, 8, "3b3c0514bfaa467225b9a6b1a714bf18f6c29100006dcc044b7c54f3b4c6c8fe"},
	"sampling-thr0/symplegraph/n2": {17480, 8, 33280, 28, "ab826e4787e84dfff0f699a88eecd47fd75c12cc6c8392244c738f2cf3f26133"},
	"pagerank/symplegraph/n2":      {27608, 8, 160, 8, "f1698836caab73c7a588d6d4fbaf61170b5c2d11fe1b9a8fd571062f5648205a"},
	"cc/symplegraph/n2":            {102682, 10, 0, 0, "8c089a139aa8ecab332128a4b6eed6b5bea37900260eb9d42e275c5bcbb9d536"},
	"bfs/symplegraph/n4":           {6036, 60, 240, 24, "95ce9a36348042a6d427803d080b748dd7c574aee9ee2e33f69d905e7b75c06c"},
	"bfs-top/symplegraph/n4":       {11476, 60, 0, 0, "9f50bc6ada4c13f2f10fee8dfe022da4722ac59f71db613351eb91a58602ff13"},
	"bfs-bottom/symplegraph/n4":    {6036, 60, 600, 60, "77cbd47d094f4d9ed002c7ad288913d7fd4d15174877ed6c5e16da141eb1966f"},
	"sssp/symplegraph/n4":          {231784, 120, 0, 0, "1ff8067443143b14ca2f115e7b6c2701e99c964449b2266bbaa6331a51502ccb"},
	"kcore/symplegraph/n4":         {33576, 36, 504, 36, "99e88155b35cfe15ea89d0ca5b4eb18e244bcd272c4418974b746d6fc4dbb36a"},
	"mis/symplegraph/n4":           {5636, 72, 1008, 72, "bd283c2acc14fef9662c7e462076d7e0293216a5c6e8d04c883dbb1c51bbcc30"},
	"kmeans/symplegraph/n4":        {14776, 144, 2016, 144, "1808c4626d992ec036d411defb07d488cfa1db2beab3d9cdf14b5dd177b8b7a1"},
	"sampling/symplegraph/n4":      {37888, 48, 19872, 48, "2119a2d7536d91a68b3bfea93959ba718f3ca40f174b09a55eea280a95fde640"},
	"sampling-thr0/symplegraph/n4": {25424, 48, 99840, 72, "2f21459dc8195aa8b1c868b96a86d7ec3ec2bf64c4475d1910a831bef314699c"},
	"pagerank/symplegraph/n4":      {54720, 48, 480, 48, "23e1ed416a56f999175bc8acca585e6bc13fdb80050a792e882ecc1327a654f0"},
	"cc/symplegraph/n4":            {151644, 60, 0, 0, "8c089a139aa8ecab332128a4b6eed6b5bea37900260eb9d42e275c5bcbb9d536"},
	"bfs/gemini/n2":                {3786, 10, 0, 0, "5e274feb246eaf403dd8d23a024d1e487e129315455d594b083e50375e3598d9"},
	"bfs-top/gemini/n2":            {7346, 10, 0, 0, "d01e8ca9c89833991cac64cd4db4f4f04aea25b566a8a135a4306fbc58d901b0"},
	"bfs-bottom/gemini/n2":         {3786, 10, 0, 0, "6e0f2574fbab2fd54ed33ec2be9287bafa682de9a04a0cad5a918dbeb0616bdc"},
	"sssp/gemini/n2":               {155244, 20, 0, 0, "1ff8067443143b14ca2f115e7b6c2701e99c964449b2266bbaa6331a51502ccb"},
	"kcore/gemini/n2":              {19986, 6, 0, 0, "99e88155b35cfe15ea89d0ca5b4eb18e244bcd272c4418974b746d6fc4dbb36a"},
	"mis/gemini/n2":                {3812, 12, 0, 0, "bd283c2acc14fef9662c7e462076d7e0293216a5c6e8d04c883dbb1c51bbcc30"},
	"kmeans/gemini/n2":             {10134, 22, 0, 0, "9dd9847e2e0fb951d384acb7ceb6a79f62548bcf0eca98dbc6448d87ea13b8a2"},
	"sampling/gemini/n2":           {27582, 6, 0, 0, "2e5af34a408e7613754039ae45ea02ea5fb4614d8561907131b0e87b410862fc"},
	"sampling-thr0/gemini/n2":      {27582, 6, 0, 0, "2e5af34a408e7613754039ae45ea02ea5fb4614d8561907131b0e87b410862fc"},
	"pagerank/gemini/n2":           {27608, 8, 0, 0, "f1698836caab73c7a588d6d4fbaf61170b5c2d11fe1b9a8fd571062f5648205a"},
	"cc/gemini/n2":                 {102682, 10, 0, 0, "8c089a139aa8ecab332128a4b6eed6b5bea37900260eb9d42e275c5bcbb9d536"},
	"bfs/gemini/n4":                {6740, 60, 0, 0, "95ce9a36348042a6d427803d080b748dd7c574aee9ee2e33f69d905e7b75c06c"},
	"bfs-top/gemini/n4":            {11476, 60, 0, 0, "9f50bc6ada4c13f2f10fee8dfe022da4722ac59f71db613351eb91a58602ff13"},
	"bfs-bottom/gemini/n4":         {6740, 60, 0, 0, "77cbd47d094f4d9ed002c7ad288913d7fd4d15174877ed6c5e16da141eb1966f"},
	"sssp/gemini/n4":               {231784, 120, 0, 0, "1ff8067443143b14ca2f115e7b6c2701e99c964449b2266bbaa6331a51502ccb"},
	"kcore/gemini/n4":              {48456, 36, 0, 0, "99e88155b35cfe15ea89d0ca5b4eb18e244bcd272c4418974b746d6fc4dbb36a"},
	"mis/gemini/n4":                {7920, 72, 0, 0, "bd283c2acc14fef9662c7e462076d7e0293216a5c6e8d04c883dbb1c51bbcc30"},
	"kmeans/gemini/n4":             {18904, 144, 0, 0, "1808c4626d992ec036d411defb07d488cfa1db2beab3d9cdf14b5dd177b8b7a1"},
	"sampling/gemini/n4":           {54564, 36, 0, 0, "a051a4f907acf54d456642268478facfefbb95e1b96a327aaceb4171d3bf4053"},
	"sampling-thr0/gemini/n4":      {54564, 36, 0, 0, "a051a4f907acf54d456642268478facfefbb95e1b96a327aaceb4171d3bf4053"},
	"pagerank/gemini/n4":           {54720, 48, 0, 0, "23e1ed416a56f999175bc8acca585e6bc13fdb80050a792e882ecc1327a654f0"},
	"cc/gemini/n4":                 {151644, 60, 0, 0, "8c089a139aa8ecab332128a4b6eed6b5bea37900260eb9d42e275c5bcbb9d536"},
}

// goldenEpochs pins the epoch-advance cells, keyed "epoch/algo".
var goldenEpochs = map[string]goldenCell{
	"1/bfs":   {4308, 60, 192, 24, "5f83c5e812b5e9c48e02e114e8c2b39bf98de4f0effaa9c7b66de9aff427caab"},
	"1/kcore": {18108, 36, 288, 36, "dd559cde11f9d181597943c67dbe522f8dcd6e14006d3f483e81bb3d21e64acd"},
	"1/cc":    {72196, 60, 0, 0, "5e85b894839b9925430c22888b346aab531b8e89044628faf42781df188d65a8"},
	"2/bfs":   {4308, 60, 192, 24, "1e2595ad74a8800255d57e96f17c31d6308906f04f0c8d4c79e2a9e40d87ce30"},
	"2/kcore": {18108, 36, 288, 36, "dd559cde11f9d181597943c67dbe522f8dcd6e14006d3f483e81bb3d21e64acd"},
	"2/cc":    {72452, 60, 0, 0, "5e85b894839b9925430c22888b346aab531b8e89044628faf42781df188d65a8"},
}

// runAlgo runs one named algorithm variant on a fresh cluster and
// returns its result and the run's traffic totals.
func runAlgo(t *testing.T, algo string, g *graph.Graph, opts core.Options) (interface{}, core.RunStats, *core.Cluster) {
	t.Helper()
	c, err := core.NewCluster(g, opts)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	defer c.Close()
	var res interface{}
	switch algo {
	case "bfs":
		res, err = algorithms.BFS(c, 1)
	case "bfs-top":
		res, err = algorithms.BFSWithDirection(c, 1, algorithms.DirectionTopDown)
	case "bfs-bottom":
		res, err = algorithms.BFSWithDirection(c, 1, algorithms.DirectionBottomUp)
	case "sssp":
		res, err = algorithms.SSSP(c, 1)
	case "kcore":
		res, err = algorithms.KCore(c, 4)
	case "mis":
		res, err = algorithms.MIS(c, 7)
	case "kmeans":
		res, err = algorithms.KMeans(c, 8, 2, 7)
	case "sampling", "sampling-thr0":
		res, err = algorithms.Sample(c, 7, 3)
	case "pagerank":
		res, err = algorithms.PageRank(c, 4, 0.85)
	case "cc":
		res, err = algorithms.ConnectedComponents(c)
	default:
		t.Fatalf("unknown algorithm %q", algo)
	}
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res, c.Stats().Totals, c
}

// digest is the sha256 of the result's Go-syntax rendering (pointer
// results dereferenced): every slice element and float bit pattern
// that distinguishes two results changes it.
func digest(res interface{}) string {
	v := reflect.ValueOf(res)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", v.Interface()))))
}

// checkGolden compares a run against its pinned cell.
func checkGolden(t *testing.T, want goldenCell, res interface{}, s core.RunStats) {
	t.Helper()
	got := goldenCell{
		updateBytes: s.UpdateBytes,
		updateMsgs:  s.UpdateMessages,
		depPayload:  s.DependencyBytes - frameHeaderBytes*s.DependencyMessages,
		depMsgs:     s.DependencyMessages,
		digest:      digest(res),
	}
	if got != want {
		t.Fatalf("golden mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestBinnedScanBitIdentity is the full matrix: every algorithm (plus
// BFS pinned to pure dense and pure sparse traversal, and sampling with
// frames large enough to split into groups) × both modes × {2, 4}
// nodes. First-wins slots (BFS parents, CC labels, SSSP relaxations)
// make the digest a byte-stream identity check, not just a value check:
// any reordering of the emitted records would change the winners.
func TestBinnedScanBitIdentity(t *testing.T) {
	base := graph.RMAT(10, 8, graph.Graph500Params(), 23)
	sym := graph.Symmetrize(base)
	weighted := graph.RandomWeights(sym, 24)

	algos := []string{"bfs", "bfs-top", "bfs-bottom", "sssp", "kcore", "mis", "kmeans", "sampling", "sampling-thr0", "pagerank", "cc"}
	for _, mode := range []core.Mode{core.ModeSympleGraph, core.ModeGemini} {
		for _, nodes := range []int{2, 4} {
			for _, algo := range algos {
				key := fmt.Sprintf("%s/%s/n%d", algo, mode, nodes)
				t.Run(key, func(t *testing.T) {
					g := base
					switch algo {
					case "sssp":
						g = weighted
					case "kcore", "mis", "kmeans", "cc":
						g = sym
					}
					opts := core.Options{NumNodes: nodes, Mode: mode, DepThreshold: 8, NumBuffers: 2}
					if algo == "sampling-thr0" {
						opts.DepThreshold, opts.NumBuffers = 0, 4
					}
					res, s, c := runAlgo(t, algo, g, opts)
					checkGolden(t, goldenMatrix[key], res, s)
					crossCheck(t, algo, g, c, res)
				})
			}
		}
	}
}

// crossCheck compares a result against internal/seq where the answer is
// unique: BFS depths, SSSP distances, K-core membership, MIS (greedy by
// color), K-means and exact sampling under the ring neighbor order, and
// CC labels (the minimum vertex ID per component).
func crossCheck(t *testing.T, algo string, g *graph.Graph, c *core.Cluster, res interface{}) {
	t.Helper()
	var got, want interface{}
	switch algo {
	case "bfs", "bfs-top", "bfs-bottom":
		got, want = res.(*algorithms.BFSResult).Depth, seq.TopDownBFS(g, 1).Depth
	case "sssp":
		got, want = res, dijkstra(g, 1)
	case "kcore":
		in, _ := seq.KCoreIterative(g, 4)
		got, want = res.(*algorithms.KCoreResult).InCore, in
	case "mis":
		got, want = res.(*algorithms.MISResult).InMIS, seq.GreedyMIS(g, seq.MISColors(g.NumVertices(), 7))
	case "kmeans":
		r, s := res.(*seq.KMeansResult), seq.KMeans(g, 8, 2, 7, seq.RingOrder(c.Partition()))
		got, want = [][]uint32{r.Cluster}, [][]uint32{s.Cluster}
	case "sampling-thr0":
		if c.Options().Mode != core.ModeSympleGraph {
			return // the hierarchical fallback draws differently
		}
		var picks [][]uint32
		for round := 0; round < 3; round++ {
			p, _ := seq.SampleNeighbors(g, 7, round, seq.RingOrder(c.Partition()))
			picks = append(picks, p)
		}
		got, want = res.(*algorithms.SampleResult).Picks, picks
	case "cc":
		got, want = res, minLabels(g)
	default:
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s disagrees with the sequential oracle", algo)
	}
}

// dijkstra is the O(V²) textbook shortest-path oracle.
func dijkstra(g *graph.Graph, root graph.VertexID) []float32 {
	n := g.NumVertices()
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = algorithms.InfDist
	}
	dist[root] = 0
	done := make([]bool, n)
	for {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < algorithms.InfDist && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			return dist
		}
		done[best] = true
		ws := g.OutWeights(graph.VertexID(best))
		for i, u := range g.OutNeighbors(graph.VertexID(best)) {
			if d := dist[best] + ws[i]; d < dist[u] {
				dist[u] = d
			}
		}
	}
}

// minLabels labels each vertex of a symmetric graph with the smallest
// vertex ID of its connected component.
func minLabels(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	label := make([]uint32, n)
	for i := range label {
		label[i] = ^uint32(0)
	}
	for root := 0; root < n; root++ {
		if label[root] != ^uint32(0) {
			continue
		}
		label[root] = uint32(root)
		stack := []graph.VertexID{graph.VertexID(root)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.OutNeighbors(v) {
				if label[u] == ^uint32(0) {
					label[u] = uint32(root)
					stack = append(stack, u)
				}
			}
		}
	}
	return label
}

// TestBinnedScanBitIdentityAcrossEpochs advances a mutation store by
// one committed batch and checks the parent and the child epoch's
// snapshot against their pinned cells — the engine rebuild path every
// serving-layer epoch advance takes, proving the blocked CSR derives
// identically from any snapshot rather than carrying state across
// epochs. (The HTTP POST /mutate route is covered in internal/server.)
func TestBinnedScanBitIdentityAcrossEpochs(t *testing.T) {
	g := graph.Symmetrize(graph.RMAT(9, 8, graph.Graph500Params(), 31))
	st, err := mutate.NewStore(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := mutate.Batch{Ops: []mutate.Mutation{
		{Op: mutate.OpAddEdge, Src: 1, Dst: 200},
		{Op: mutate.OpAddEdge, Src: 200, Dst: 1},
		{Op: mutate.OpRemoveEdge, Src: g.OutNeighbors(3)[0], Dst: 3},
	}}
	child, err := st.Commit(batch)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := st.At(child.Epoch() - 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*mutate.Snapshot{parent, child} {
		for _, algo := range []string{"bfs", "kcore", "cc"} {
			opts := core.Options{NumNodes: 4, Mode: core.ModeSympleGraph, DepThreshold: 8, NumBuffers: 2}
			res, s, c := runAlgo(t, algo, snap.Graph(), opts)
			t.Run(fmt.Sprintf("%d/%s", snap.Epoch(), algo), func(t *testing.T) {
				checkGolden(t, goldenEpochs[fmt.Sprintf("%d/%s", snap.Epoch(), algo)], res, s)
				crossCheck(t, algo, snap.Graph(), c, res)
			})
		}
	}
}
