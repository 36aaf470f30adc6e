package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the tables in this package")

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	// The reported tail leaves at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 100},
		{Name: "search", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "search", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps the first child
		{Name: "encode", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{Name: "forward", ID: 5, Parent: 2, Start: 12, End: 28},
		{Name: "orphan", ID: 6, Parent: 99, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 50, // 100 - ([10,50] + [90,100])
		"search":  34, // (20 - 16) + 30
		"encode":  30,
		"forward": 16,
		"orphan":  7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestNames(t *testing.T) {
	for _, bad := range []string{"", "a b", "µs", "-x", "a/b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if err := checkNames(); err != nil {
		t.Error(err)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound of %s = %g, want (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "moves_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "move_p50_ms", Better: "lower", Bound: 0.10}
	steady := func(v float64) Metric { return Metric{Value: v, Slices: []float64{v, v * 0.98, v * 1.02}} }
	noisy := func(v float64) Metric { return Metric{Value: v, Slices: []float64{v * 1.1, v * 0.9, v}} }
	for _, c := range []struct {
		d    metricDef
		a, b Metric
		want string
	}{
		{higher, steady(100), steady(95), verdictOK},
		{higher, steady(100), steady(89), verdictWorse},
		{higher, steady(100), steady(150), verdictOK},
		{lower, steady(100), steady(105), verdictOK},
		{lower, steady(100), steady(111), verdictWorse},
		{lower, steady(100), steady(50), verdictOK},
		{lower, steady(100), noisy(130), verdictUnresolved},
		{higher, noisy(100), steady(100), verdictUnresolved},
		{lower, Metric{Value: 100}, Metric{Value: 120}, verdictWorse}, // no slices: judged on the values
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", c.d.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	env := Env{CPU: "cpu A", NProc: 2, Kernel: "avx2"}
	run := func(movesPerS float64) WorkloadResult {
		wr := WorkloadResult{Name: "serve_sat", EndToEnd: map[string]Metric{}}
		for _, d := range endToEndDefs {
			wr.EndToEnd[d.Name] = Metric{Value: 1, Unit: d.Unit}
		}
		wr.EndToEnd["moves_per_s"] = Metric{Value: movesPerS, Unit: "1/s"}
		return wr
	}
	write := func(name string, e Env, movesPerS float64) string {
		path := filepath.Join(dir, name)
		if err := writeResult(path, &Result{Env: e, Workloads: []WorkloadResult{run(movesPerS)}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", env, 100)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", env, 99)); code != 0 {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("slow.json", env, 70)); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("slower run: exit %d\n%s", code, out.String())
	}
	for _, other := range []Env{{CPU: "cpu B", NProc: 2, Kernel: "avx2"}, {CPU: "cpu A", NProc: 4, Kernel: "avx2"}, {CPU: "cpu A", NProc: 2, Kernel: "sse"}} {
		out.Reset()
		if code := compareFiles(&out, base, write("other.json", other, 100)); code != 2 {
			t.Errorf("runs on %+v and %+v were compared: exit %d\n%s", env, other, code, out.String())
		}
	}
}

// TestBenchmarkJSON keeps the committed BENCHMARK.json equal to the tables
// the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../../BENCHMARK.json"
	type named struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	type doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []named  `json:"end_to_end"`
		PerLayer   []named  `json:"per_layer"`
	}
	want := doc{Command: []string{"bash", "cmd/bench/run.sh"}, Paths: []string{"cmd/bench"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		if !w.ungated {
			want.Workloads = append(want.Workloads, named{Name: w.name, Why: w.why})
		}
	}
	for _, d := range endToEndDefs {
		want.EndToEnd = append(want.EndToEnd, named{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayerDefs {
		want.PerLayer = append(want.PerLayer, named{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Errorf("%s differs from the tables in this package; run go test -run TestBenchmarkJSON -update", path)
	}
}

// TestSmoke runs all four workloads through the whole harness — set-up,
// load, mirror checks, windows, trace, probes, span file — at a size that
// fits a unit-test budget, and requires that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads for about a second each")
	}
	t.Chdir(t.TempDir())
	o := smokeOpts(runOpts{seed: 1, env: currentEnv()})
	o.seconds *= raceSlowdown
	for i := range workloads {
		w := &workloads[i]
		res, err := runOne(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w.name, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		var last struct {
			Metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(res.contractLine()), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.name, err)
		}
		if len(last.Metrics) != len(perLayerDefs) {
			t.Errorf("%s: traced run reports %d metrics, want %d", w.name, len(last.Metrics), len(perLayerDefs))
		}
		if st, err := os.Stat(res.SpanFile); err != nil || st.Size() == 0 {
			t.Errorf("%s: span file %s: %v", w.name, res.SpanFile, err)
		}
	}
}
