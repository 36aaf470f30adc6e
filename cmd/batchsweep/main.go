// Command batchsweep regenerates Figure 3 (the design exploration of the
// host-accelerator communication batch size, Section 5.2) and the
// Algorithm 4 search summary: for each worker count N it sweeps the
// local-tree scheme's sub-batch size B over [1, N] on the simulated
// accelerator timeline and reports the amortized per-iteration latency,
// then contrasts the O(log N) V-sequence search against the naive linear
// sweep.
//
// Usage:
//
//	batchsweep [-playouts 1600] [-ns 16,32,64] [-csv] [-host-profile] [-game gomoku]
//	           [-kernel generic|sse|avx2]
//
// -game selects the scenario whose fanout/depth shape the -host-profile
// measurement uses (any registry spec).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/parmcts/parmcts/internal/experiments"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/tensor"
)

func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", part)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func main() {
	var (
		playouts    = flag.Int("playouts", 1600, "per-move playout budget")
		nsFlag      = flag.String("ns", "16,32,64", "comma-separated worker counts")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		hostProfile = flag.Bool("host-profile", false, "profile this host instead of paper-shaped parameters")
		gameSpec    = flag.String("game", "gomoku", games.FlagHelp()+" (shapes the -host-profile measurement)")
	)
	tensor.KernelFlag(flag.CommandLine)
	flag.Parse()
	ns, err := parseNs(*nsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "batchsweep:", err)
		os.Exit(2)
	}
	p := experiments.PaperShapedParams(*playouts)
	if *hostProfile {
		p = experiments.HostMeasuredParamsFor(*playouts, games.ResolveFlag("batchsweep", *gameSpec, "gomoku"))
	}
	sweep := experiments.Figure3BatchSweep(p, ns)
	opt := experiments.OptimalBatch(p, ns)
	if *csv {
		fmt.Print(sweep.CSV())
		fmt.Print(opt.CSV())
		return
	}
	fmt.Print(sweep.String())
	fmt.Println()
	fmt.Print(opt.String())
}
