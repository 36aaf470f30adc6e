package main

import (
	"fmt"
	"io"
	"sort"
)

// Verdicts of one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares a metric of run b with the same metric of run a. It is
// unresolved when either run's own slices spread wider than the bound: a
// difference smaller than a run's noise says nothing either way.
func verdict(d metricDef, a, b Metric) string {
	for _, m := range []Metric{a, b} {
		if s := minMedMax(m.Slices); s[1] > 0 && (s[2]-s[0])/s[1] > d.Bound {
			return verdictUnresolved
		}
	}
	worse := ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return verdictWorse
	}
	return verdictOK
}

// sameHost refuses runs measured on different machines or kernels: their
// difference is the hardware's.
func sameHost(a, b Env) error {
	switch {
	case a.CPU != b.CPU:
		return fmt.Errorf("cpu model differs: %q vs %q", a.CPU, b.CPU)
	case a.NProc != b.NProc:
		return fmt.Errorf("nproc differs: %d vs %d", a.NProc, b.NProc)
	case a.Kernel != b.Kernel:
		return fmt.Errorf("tensor kernel class differs: %q vs %q", a.Kernel, b.Kernel)
	}
	return nil
}

// compareFiles prints one row per metric and workload and returns the exit
// code: 0 when nothing is worse, 1 when something is, 2 when the files
// cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b *Result
		if b, err = readResult(pathB); err == nil {
			if err = sameHost(a.Env, b.Env); err == nil {
				return compareResults(w, a, b)
			}
		}
	}
	fmt.Fprintln(w, "bench: cannot compare:", err)
	return 2
}

func compareResults(w io.Writer, a, b *Result) int {
	status := 0
	fmt.Fprintf(w, "%-14s %-32s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *WorkloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from the second file\n", wa.Name)
			status = 1
			continue
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-14s %-32s %14d %14d %8s %6s  %s\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0", verdictWorse)
			status = 1
		}
		for _, d := range endToEndDefs {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, ma, mb)
			if v == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wa.Name, d.Name, ma.Value, mb.Value,
				100*ratio(mb.Value-ma.Value, ma.Value), 100*d.Bound, v)
		}
		// Layer metrics carry no bound: they say where a change landed.
		for _, name := range sortedKeys(wa.PerLayer) {
			if mb, ok := wb.PerLayer[name]; ok {
				ma := wa.PerLayer[name]
				fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g %+7.1f%% %6s  -\n", wa.Name, name, ma.Value, mb.Value,
					100*ratio(mb.Value-ma.Value, ma.Value), "-")
			}
		}
	}
	return status
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
