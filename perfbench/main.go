// Command perfbench is the repository's benchmark. It runs one workload
// against the engine or the query service through their public Go APIs,
// checks every answer, and prints each metric by name with its unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json, measured with tracing off; with --trace 1 they are the
// per-layer ones, which add a separate traced pass. Run it from the
// repository root (it reads BENCHMARK.json there) through run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload engine-cpu --seed 1 --seconds 10 --trace 0
//
// The exit status is 1 when an answer is wrong or an exact counter
// diverges (the JSON line then says "correct": false), and 2 when the
// run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type args struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// result is one workload run.
type result struct {
	tally
	endToEnd, layers metrics
	// unmeasured names the declared per-layer metrics the workload does
	// not exercise, each with the reason; they print as 0.
	unmeasured map[string]string
	mismatches []string // wrong answers and diverged counters
	notes      []string
}

// definition is the part of BENCHMARK.json the program checks its
// output against.
type definition struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadDefinition(path string) (definition, error) {
	var d definition
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// conform checks a run's metrics against the declared list: every
// declared metric must be measured or be named in unmeasured (which
// then reads 0), nothing undeclared may be printed or listed as
// unmeasured, and units must match.
func conform(got metrics, declared []struct{ Name, Unit string }, unmeasured map[string]string) error {
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
		m, ok := got[d.Name]
		_, skip := unmeasured[d.Name]
		switch {
		case ok && skip:
			return fmt.Errorf("metric %s is measured and also listed as not measured", d.Name)
		case skip:
			got.set(d.Name, d.Unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.Name)
		case m.Unit != d.Unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	for name := range unmeasured {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is listed as not measured but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func run(a args) (result, error) {
	if w, ok := engineWorkloads[a.workload]; ok {
		return runEngine(w, a)
	}
	if a.workload == "serve-rw" {
		return runServe(a)
	}
	return result{}, fmt.Errorf("unknown workload %q", a.workload)
}

func main() {
	var a args
	var secs, trace int
	flag.StringVar(&a.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&a.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&secs, "seconds", 10, "how long the measured pass runs")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from an added traced pass")
	flag.Parse()
	a.seconds = time.Duration(secs) * time.Second
	a.trace = trace == 1

	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(a)
	if err == nil {
		out := res.endToEnd
		if a.trace {
			out = res.layers
			err = conform(out, def.PerLayer, res.unmeasured)
		} else {
			err = conform(out, def.EndToEnd, nil)
		}
		if err == nil {
			err = printResult(res, out, a.trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if len(res.mismatches) > 0 {
		os.Exit(1)
	}
}

func printResult(res result, out metrics, trace bool) error {
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	if trace {
		for _, name := range sortedKeys(res.unmeasured) {
			fmt.Printf("# not measured (prints 0): %s: %s\n", name, res.unmeasured[name])
		}
	}
	for _, m := range res.mismatches {
		fmt.Println("# MISMATCH:", m)
	}
	for _, name := range sortedKeys(out) {
		fmt.Printf("%-36s %14.6g %s\n", name, out[name].Value, out[name].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{len(res.mismatches) == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
