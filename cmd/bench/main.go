// Command bench is the repository's one benchmark: four named workloads,
// their end-to-end metrics, and — in a traced run — per-layer counters,
// probes and spans, all in one schema (see README.md and BENCHMARK.json).
//
//	bench -workload serve_sat -seed 3 -seconds 32 -trace 0   one workload, in this process
//	bench [-trace 1] [-out results.json]                     all four, each in a child process
//	bench -compare a.json b.json                             verdict per metric x workload
//	bench -smoke                                             1 s windows, all four workloads
//
// A single-workload run ends with one JSON line holding correct, attempted,
// failed and the end-to-end (-trace 0) or per-layer (-trace 1) metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is where set-up time starts counting: the child's start.
var processStart = time.Now()

// now is the run's clock: nanoseconds since processStart.
func now() int64 { return at(time.Now()) }

func at(t time.Time) int64 { return int64(t.Sub(processStart)) }

// buildDir holds everything a run leaves behind (temporary stores, span
// files, default results); it sits in the working directory, which the
// contract makes the checkout's root.
const buildDir = ".bench_build"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 32

type runOpts struct {
	seed    uint64
	seconds float64
	trace   bool
	setups  int // set-ups per run; setup_s is their median
	probeMS int // time budget of one probe
	smoke   bool
	tmp     string
	env     Env
}

// smokeOpts shrinks a run to what a unit test can afford: 1 s of load, one
// set-up, a quarter of the warm-up, traced, with token probe budgets.
func smokeOpts(o runOpts) runOpts {
	o.seconds, o.trace, o.setups, o.probeMS, o.smoke = 1, true, 1, 10, true
	return o
}

// warmup is the number of operations a set-up runs before timing starts.
func (o runOpts) warmup(w *workload) int {
	if o.smoke {
		return max(w.warmupOps/4, 1)
	}
	return w.warmupOps
}

func (o runOpts) spanPath(workload string) string {
	return filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.spans.jsonl", workload, o.seed))
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: all four, each in a child process)")
		seed    = flag.Uint64("seed", 1, "seed of net init, search and every user move")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window (a traced run splits it into an untraced and a traced half)")
		trace   = flag.String("trace", "0", "1 adds the traced half-window, the layer probes and the span file")
		out     = flag.String("out", "", "write the results here (default "+buildDir+"/results.json for a run of all four)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		smoke   = flag.Bool("smoke", false, "1 s windows, one set-up, traced: exercises the whole harness quickly")
	)
	flag.Parse()
	if err := checkNames(); err != nil {
		fatal(err)
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(fmt.Errorf("-trace takes 0 or 1, got %q", *trace))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: traced, setups: 3, probeMS: 150, env: currentEnv()}
	if *smoke {
		o = smokeOpts(o)
	}
	if o.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}

	if *name == "" {
		os.Exit(runAll(o, *out))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOne(w, o)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := writeResult(*out, &Result{Env: o.env, Workloads: []WorkloadResult{*res}}); err != nil {
			fatal(err)
		}
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process.
func runOne(w *workload, o runOpts) (*WorkloadResult, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	var res *WorkloadResult
	if w.dist {
		res, err = runDist(w, o)
	} else {
		res, err = runServe(w, o)
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		res.setLayer("proc.peak_rss_mb", peakRSSMB(), 1)
	}
	return res, res.finish()
}

// liveHeapMB forces a collection and returns the heap that survived it, less
// the harness's own bookkeeping: what the workload keeps alive, free of the
// collector's pacing.
func liveHeapMB(harnessBytes int) float64 {
	runtime.GC()
	runtime.GC() // the second pass empties the sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(m.HeapAlloc) - float64(harnessBytes)) / (1 << 20)
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that set-up
// time and peak memory are one workload's, and merges the children's
// results into one file. A traced run of all four makes two children per
// workload: end-to-end metrics come only from the untraced one.
func runAll(o runOpts, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	if out == "" {
		out = filepath.Join(buildDir, "results.json")
	}
	merged := Result{Env: o.env}
	status := 0
	for _, w := range workloads {
		modes := []string{"0"}
		if o.smoke {
			modes = []string{"1"}
		} else if o.trace {
			modes = []string{"0", "1"}
		}
		var wr *WorkloadResult
		for _, mode := range modes {
			part := filepath.Join(buildDir, fmt.Sprintf("part-%s-%s.json", w.name, mode))
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", mode, "-out", part}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				status = 1
			}
			r, err := readResult(part)
			os.Remove(part)
			if err != nil || len(r.Workloads) != 1 {
				fmt.Fprintf(os.Stderr, "bench: %s wrote no result\n", w.name)
				status = 1
				continue
			}
			got := r.Workloads[0]
			if wr == nil {
				wr = &got
				continue
			}
			// The traced child adds layers to the untraced child's result.
			wr.Trace = true
			wr.Correct = wr.Correct && got.Correct
			wr.Attempted += got.Attempted
			wr.Failed += got.Failed
			for _, p := range got.Phases {
				p.Name = "traced run: " + p.Name
				wr.Phases = append(wr.Phases, p)
			}
			wr.Errors = append(wr.Errors, got.Errors...)
			wr.PerLayer, wr.Extra, wr.SpanFile, wr.SelfMS = got.PerLayer, got.Extra, got.SpanFile, got.SelfMS
		}
		if wr != nil {
			merged.Workloads = append(merged.Workloads, *wr)
		}
	}
	if err := writeResult(out, &merged); err != nil {
		fatal(err)
	}
	fmt.Printf("results written to %s\n", out)
	return status
}

// runWindows sleeps through a run's windows and returns their edges. An
// untraced run has one measured window [t0, t1], and t2 = t1. A traced run
// measures an untraced half [t0, t1] and traces a second half (t1, t2].
// boundary runs at t1. Whatever generates the load never pauses.
func runWindows(o runOpts, tr *tracer, boundary func()) (t0, t1, t2 int64) {
	t0 = now()
	length := int64(o.seconds * 1e9)
	if o.trace {
		length /= 2
	}
	t1 = t0 + length
	time.Sleep(time.Duration(t1 - now()))
	boundary()
	if !o.trace {
		return t0, t1, t1
	}
	tr.on.Store(true)
	t1 = now()
	t2 = t1 + length
	time.Sleep(time.Duration(t2 - now()))
	tr.on.Store(false)
	return t0, t1, t2
}

// finishTrace writes the span file and the per-name self times.
func (r *WorkloadResult) finishTrace(tr *tracer, o runOpts) error {
	if d := tr.dropped.Load(); d > 0 {
		r.Errors = append(r.Errors, fmt.Sprintf("trace: %d spans over the in-memory cap were not kept", d))
	}
	r.SpanFile = o.spanPath(r.Name)
	if err := tr.write(r.SpanFile); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	for _, name := range sortedKeys(self) {
		r.SelfMS = append(r.SelfMS, selfTime{Name: name, MS: float64(self[name]) / 1e6})
	}
	return nil
}
