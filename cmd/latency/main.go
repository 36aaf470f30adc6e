// Command latency regenerates Figures 4 and 5 (Section 5.3): the amortized
// per-worker-iteration latency of the local-tree, shared-tree, and adaptive
// configurations across worker counts, on the CPU-only and CPU-GPU
// platforms, plus the headline adaptive-vs-fixed speedup table.
//
// Usage:
//
//	latency [-platform cpu|gpu|both] [-speedup] [-ns 1,2,4,...]
//	        [-playouts 1600] [-csv] [-host-profile] [-kernel generic|sse|avx2]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/tensor"
)

func main() {
	var (
		platform    = flag.String("platform", "both", "cpu, gpu, or both")
		speedup     = flag.Bool("speedup", false, "also print the headline speedup table")
		nsFlag      = flag.String("ns", "1,2,4,8,16,32,64", "comma-separated worker counts")
		playouts    = flag.Int("playouts", 1600, "per-move playout budget")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		hostProfile = flag.Bool("host-profile", false, "profile this host instead of paper-shaped parameters")
		gameSpec    = flag.String("game", "gomoku", games.FlagHelp()+" (shapes the -host-profile measurement)")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()

	var ns []int
	for _, part := range strings.Split(*nsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "latency: bad worker count %q\n", part)
			os.Exit(2)
		}
		ns = append(ns, n)
	}

	p := experiments.PaperShapedParams(*playouts)
	if *hostProfile {
		p = experiments.HostMeasuredParamsFor(*playouts, games.ResolveFlag("latency", *gameSpec, "gomoku"))
	}

	emit := func(tb *stats.Table) {
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Print(tb.String())
			fmt.Println()
		}
	}
	if *platform == "cpu" || *platform == "both" {
		emit(experiments.Figure4LatencyCPU(p, ns))
	}
	if *platform == "gpu" || *platform == "both" {
		emit(experiments.Figure5LatencyGPU(p, ns))
	}
	if *speedup {
		emit(experiments.HeadlineSpeedups(p, ns))
	}
}
