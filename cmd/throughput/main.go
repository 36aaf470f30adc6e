// Command throughput regenerates Figure 6 (Section 5.4): end-to-end
// DNN-MCTS training throughput in processed samples per second across
// worker counts, with the parallel scheme chosen by the adaptive
// configuration workflow for each point, on the CPU-only and the simulated
// CPU-GPU platform.
//
// The defaults are scaled to finish on a laptop (small board, tiny network,
// few episodes); raise -board/-playouts/-episodes and set -full-net to
// approach the paper's configuration.
//
// Usage:
//
//	throughput [-ns 1,2,4,8] [-game gomoku:9] [-playouts 48] [-episodes 2]
//	           [-platform cpu|gpu|both] [-backend hosted|hosted-quantized|model]
//	           [-kernel generic|sse|avx2] [-full-net] [-csv]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/tree"
)

func main() {
	var (
		nsFlag    = flag.String("ns", "1,2,4,8", "comma-separated worker counts")
		gameSpec  = flag.String("game", "gomoku:9", games.FlagHelp())
		playouts  = flag.Int("playouts", 48, "per-move playout budget")
		episodes  = flag.Int("episodes", 2, "self-play episodes per configuration")
		platform  = flag.String("platform", "both", "cpu, gpu, or both")
		backend   = flag.String("backend", "", "accel backend for the gpu platform: "+strings.Join(accel.BackendNames(), ", ")+" (default hosted)")
		fullNet   = flag.Bool("full-net", false, "use the full 5-conv+3-FC network")
		transpose = flag.String("transpose", "off", tree.TransposeFlagHelp())
		csv       = flag.Bool("csv", false, "emit CSV")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()

	var ns []int
	for _, part := range strings.Split(*nsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "throughput: bad worker count %q\n", part)
			os.Exit(2)
		}
		ns = append(ns, n)
	}
	var platforms []bool
	switch *platform {
	case "cpu":
		platforms = []bool{false}
	case "gpu":
		platforms = []bool{true}
	case "both":
		platforms = []bool{false, true}
	default:
		fmt.Fprintln(os.Stderr, "throughput: -platform must be cpu, gpu, or both")
		os.Exit(2)
	}

	games.ResolveFlag("throughput", *gameSpec, "") // validate the spec before the run starts
	sc := experiments.DefaultTrainingScale()
	sc.Game = *gameSpec
	sc.Playouts = *playouts
	sc.Episodes = *episodes
	sc.TinyNet = !*fullNet
	sc.Backend = *backend
	sc.TransposeSize = tree.ResolveTransposeFlag("throughput", *transpose)

	tb := experiments.Figure6Throughput(sc, ns, platforms)
	if *csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Print(tb.String())
	}
}
