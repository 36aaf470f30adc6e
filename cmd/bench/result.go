package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"github.com/parmcts/parmcts/internal/tensor"
)

// metricDef is one row of BENCHMARK.json's metric lists.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

// endToEndDefs are the gated metrics; every workload reports each of them.
// The bound is the relative worsening that counts as a regression.
var endToEndDefs = []metricDef{
	{"moves_per_s", "1/s", "higher", 0.25},
	{"playouts_per_s", "1/s", "higher", 0.25},
	{"move_p50_ms", "ms", "lower", 0.25},
	{"iter_latency_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerDefs are the ungated metrics of a traced run, in report order.
var perLayerDefs = []metricDef{
	{Name: "client.move_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "evaluate.batch_fill", Unit: "count", Better: "higher"},
	{Name: "evaluate.batches_per_move", Unit: "count", Better: "lower"},
	{Name: "evaluate.cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "evaluate.cache_occupancy_frac", Unit: "frac", Better: "higher"},
	{Name: "nn.busy_frac", Unit: "frac", Better: "lower"},
	{Name: "nn.evals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "mcts.playouts_per_move", Unit: "count", Better: "lower"},
	{Name: "mcts.evals_per_move", Unit: "count", Better: "lower"},
	{Name: "mcts.reuse_frac", Unit: "frac", Better: "higher"},
	{Name: "mcts.trans_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "serve.sessions_evicted_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "proc.live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower"},
	// Probes: direct timed calls with the workload's game, net and config.
	{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "nn.forward_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "nn.forward_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "nn.forward_b8_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "accel.hosted_b8_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "evaluate.probe_rt_us_c2", Unit: "us", Better: "lower"},
	{Name: "evaluate.probe_rt_us_c8", Unit: "us", Better: "lower"},
	{Name: "evaluate.probe_exec_us_c8", Unit: "us", Better: "lower"},
	{Name: "evaluate.probe_wait_us_c2", Unit: "us", Better: "lower"},
	{Name: "evaluate.probe_wait_us_c8", Unit: "us", Better: "lower"},
	{Name: "evaluate.cache_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mcts.select_us", Unit: "us", Better: "lower"},
	{Name: "mcts.expand_us", Unit: "us", Better: "lower"},
	{Name: "mcts.backup_us", Unit: "us", Better: "lower"},
	{Name: "mcts.eval_us", Unit: "us", Better: "lower"},
	{Name: "mcts.tree_ms_per_move", Unit: "ms", Better: "lower"},
	{Name: "mcts.advance_us", Unit: "us", Better: "lower"},
	{Name: "mcts.shared_iter_us", Unit: "us", Better: "lower"},
	{Name: "mcts.local_iter_us", Unit: "us", Better: "lower"},
	{Name: "mcts.wasted_eval_frac", Unit: "frac", Better: "lower"},
	{Name: "adaptive.configure_ms", Unit: "ms", Better: "lower"},
	{Name: "adaptive.regret", Unit: "ratio", Better: "lower"},
	{Name: "perfmodel.residual_shared", Unit: "ratio", Better: "lower"},
	{Name: "perfmodel.residual_local", Unit: "ratio", Better: "lower"},
	{Name: "game.step_ns", Unit: "ns", Better: "lower"},
	{Name: "game.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "dist.send_recv_us", Unit: "us", Better: "lower"},
	{Name: "trajstore.append_us", Unit: "us", Better: "lower"},
	{Name: "trajstore.open_ms_per_kgame", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},
	{Name: "train.sgd_step_ms", Unit: "ms", Better: "lower"},
}

// Metric is one reported value. N is the sample count behind it; Slices
// holds the same metric over each slice of the window (or each set-up of
// the run), in time order.
type Metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Slices []float64 `json:"slices,omitempty"`
}

// Phase counts the operations of one phase of a run.
type Phase struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
}

type selfTime struct {
	Name string  `json:"name"`
	MS   float64 `json:"self_ms"`
}

// WorkloadResult is one run of one workload.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Phases    []Phase  `json:"phases"`
	Errors    []string `json:"errors,omitempty"`

	EndToEnd map[string]Metric `json:"end_to_end"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
	// Extra holds layer timings that exist on this kind of workload only
	// and are therefore not part of BENCHMARK.json's per_layer list.
	Extra    map[string]Metric `json:"extra,omitempty"`
	Dists    []string          `json:"distributions,omitempty"`
	SpanFile string            `json:"span_file,omitempty"`
	SelfMS   []selfTime        `json:"span_self_time,omitempty"`
}

// Env stamps a result with what it was measured on.
type Env struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"tensor_kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// Result is the one schema every run writes.
type Result struct {
	Env       Env              `json:"env"`
	Workloads []WorkloadResult `json:"workloads"`
}

func currentEnv() Env {
	e := Env{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.KernelName(),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func newResult(w *workload, o runOpts) *WorkloadResult {
	return &WorkloadResult{
		Name: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}, Extra: map[string]Metric{},
	}
}

func (r *WorkloadResult) phase(name string, seconds float64, attempted, failed int) {
	r.Phases = append(r.Phases, Phase{name, seconds, attempted, attempted - failed, failed})
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (r *WorkloadResult) setE2E(name string, v float64, n int, slices []float64) {
	r.EndToEnd[name] = Metric{Value: v, Unit: unitOf(endToEndDefs, name), N: n, Slices: slices}
}

func (r *WorkloadResult) setLayer(name string, v float64, n int) {
	r.PerLayer[name] = Metric{Value: v, Unit: unitOf(perLayerDefs, name), N: n}
}

func (r *WorkloadResult) setExtra(name string, v float64, unit string, n int) {
	r.Extra[name] = Metric{Value: v, Unit: unit, N: n}
}

// addDist records a timing sample's median and the highest percentile that
// leaves ten samples beyond it.
func (r *WorkloadResult) addDist(what, unit string, d *sample) {
	if d.n() == 0 {
		return
	}
	tail := tailQuantile(d.n())
	r.Dists = append(r.Dists, fmt.Sprintf("%s: p50 %.4g %s, p%g %.4g %s, n=%d", what, d.q(0.5), unit, tail*100, d.q(tail), unit, d.n()))
}

func (r *WorkloadResult) mergeProbes(p *probeResult) {
	for k, m := range p.layer {
		r.PerLayer[k] = m
	}
}

// finish fixes the verdict and checks that the run reported exactly the
// declared metrics.
func (r *WorkloadResult) finish() error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range endToEndDefs {
		if _, ok := r.EndToEnd[d.Name]; !ok {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Name, d.Name)
		}
	}
	if r.Trace {
		for _, d := range perLayerDefs {
			if _, ok := r.PerLayer[d.Name]; !ok {
				return fmt.Errorf("%s: per-layer metric %s was not measured", r.Name, d.Name)
			}
		}
	}
	return nil
}

// print writes every metric by name with its unit and sample count.
func (r *WorkloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  trace=%v\n", r.Name, r.Seed, r.Seconds, r.Trace)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %-9s %6.2fs  attempted=%d succeeded=%d failed=%d\n", p.Name, p.Seconds, p.Attempted, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "fail_frac %g (%d/%d)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	line := func(name string, m Metric) {
		fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d", name, m.Value, m.Unit, m.N)
		if len(m.Slices) > 0 {
			s := minMedMax(m.Slices)
			fmt.Fprintf(w, "  slices min/med/max %.5g/%.5g/%.5g", s[0], s[1], s[2])
		}
		fmt.Fprintln(w)
	}
	for _, d := range endToEndDefs {
		line(d.Name, r.EndToEnd[d.Name])
	}
	for _, s := range r.Dists {
		fmt.Fprintln(w, s)
	}
	if !r.Trace {
		return
	}
	for _, d := range perLayerDefs {
		line(d.Name, r.PerLayer[d.Name])
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		line(k+" (extra)", r.Extra[k])
	}
	for _, s := range r.SelfMS {
		fmt.Fprintf(w, "span self time %-20s %12.3f ms\n", s.Name, s.MS)
	}
	fmt.Fprintf(w, "spans written to %s\n", r.SpanFile)
}

// contractLine is the last line of a single-workload run: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *WorkloadResult) contractLine() string {
	src, defs := r.EndToEnd, endToEndDefs
	if r.Trace {
		src, defs = r.PerLayer, perLayerDefs
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{src[d.Name].Value, src[d.Name].Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(out)
}

func readResult(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeResult(path string, r *Result) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
