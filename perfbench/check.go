package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/internal/seq"
)

// checkOp validates one engine result against the sequential oracles
// in internal/seq and returns "" when it is correct. g is the directed
// graph (BFS, sampling) and gs its symmetrization (k-core, MIS,
// k-means). K-core and MIS are deterministic, so they must also equal
// the oracle's answer exactly, not just satisfy its property.
func checkOp(g, gs *graph.Graph, o op, sampleRounds int, res any) string {
	switch r := res.(type) {
	case *algorithms.BFSResult:
		return seq.ValidateBFS(g, o.root, &seq.BFSResult{Depth: r.Depth, Parent: r.Parent})
	case *algorithms.KCoreResult:
		if msg := seq.ValidateKCore(gs, r.InCore, o.k); msg != "" {
			return msg
		}
		want, _ := seq.KCoreIterative(gs, o.k)
		return diffBools("k-core membership", r.InCore, want)
	case *algorithms.MISResult:
		if msg := seq.ValidateMIS(gs, r.InMIS); msg != "" {
			return msg
		}
		return diffBools("MIS membership", r.InMIS, seq.GreedyMIS(gs, seq.MISColors(gs.NumVertices(), o.seed)))
	case *seq.KMeansResult:
		return seq.ValidateKMeans(gs, r)
	case *algorithms.SampleResult:
		if len(r.Picks) != sampleRounds {
			return fmt.Sprintf("%d sampling rounds, want %d", len(r.Picks), sampleRounds)
		}
		for round, picks := range r.Picks {
			if msg := seq.ValidateSample(g, picks); msg != "" {
				return fmt.Sprintf("round %d: %s", round, msg)
			}
		}
		return ""
	}
	return fmt.Sprintf("unexpected result type %T", res)
}

func diffBools(what string, got, want []bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d entries, oracle has %d", what, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Sprintf("%s differs from the oracle at vertex %d", what, v)
		}
	}
	return ""
}

// digest hashes every op's exact counters in round order, so two
// processes given the same seed can be compared with one line.
func digest(first map[op]counters, rounds [][]op) string {
	h := sha256.New()
	for _, round := range rounds {
		for _, o := range round {
			c := first[o]
			for _, v := range []int64{c.Edges, c.Skipped, c.UpdateBytes, c.DepBytes, c.ControlBytes,
				c.UpdateMsgs, c.DepMsgs, c.Supersteps} {
				_ = binary.Write(h, binary.LittleEndian, v) // writes to a hash never fail
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
