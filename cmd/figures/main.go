// Command figures regenerates the paper's figures and design-time reports,
// one subcommand each:
//
//	figures batchsweep  Figure 3 and the Algorithm 4 search summary (Section 5.2)
//	figures latency     Figures 4 and 5, per-iteration latency by worker count (Section 5.3)
//	figures throughput  Figure 6, end-to-end training throughput (Section 5.4)
//	figures losscurve   Figure 7, training loss over wall-clock time (Section 5.5)
//	figures ablation    design-choice ablations and the related-work baselines
//	figures configure   the design configuration workflow, end to end (Section 4.2)
//	figures profilekit  the design-time profile of this host (Section 4.2)
//
// Usage:
//
//	figures <name> [flags]      (figures <name> -h lists a subcommand's flags)
//
// The flags the subcommands share are spelled the same everywhere: -game
// takes a registry spec, -playouts the per-move budget, -ns a comma-separated
// list of worker counts, -csv switches tables from aligned text to CSV,
// -host-profile replaces the paper-shaped latency parameters with ones
// measured on this host (shaped by -game), and -kernel forces the tensor
// micro-kernel class.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/parmcts/parmcts/internal/accel"
	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/experiments"
	gamepkg "github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/perfmodel"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/simsched"
	"github.com/parmcts/parmcts/internal/stats"
	"github.com/parmcts/parmcts/internal/tensor"
	"github.com/parmcts/parmcts/internal/tree"
)

var figures = map[string]func(*cli){
	"ablation":   ablation,
	"batchsweep": batchsweep,
	"configure":  configure,
	"latency":    latency,
	"losscurve":  losscurve,
	"profilekit": profilekit,
	"throughput": throughput,
}

func main() {
	if len(os.Args) < 2 || figures[os.Args[1]] == nil {
		names := make([]string, 0, len(figures))
		for name := range figures {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: figures <name> [flags], name one of: %s\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	c := &cli{FlagSet: flag.NewFlagSet("figures "+os.Args[1], flag.ExitOnError), name: os.Args[1]}
	tensor.KernelFlag(c.FlagSet)
	figures[c.name](c)
}

// cli is one subcommand's flag set plus the flags only the figures share
// (-ns, -csv), each declared once here with the subcommand supplying only its
// default; -game, -playouts, -transpose and -full-net are declared next to
// what they configure.
type cli struct {
	*flag.FlagSet
	name string
	csv  *bool
}

// parse parses the subcommand's arguments; every flag must be declared by
// now.
func (c *cli) parse() { c.Parse(os.Args[2:]) }

// game resolves a -game value, falling back to def when the flag is empty;
// a bad spec is a usage error.
func (c *cli) game(spec, def string) gamepkg.Game { return games.ResolveFlag(c.name, spec, def) }

// nsFlag declares -ns; the returned slice holds the parsed worker counts
// after parse.
func (c *cli) nsFlag(def string) *[]int {
	parse := func(s string) ([]int, error) {
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
	ns, err := parse(def)
	if err != nil {
		panic(err)
	}
	c.Func("ns", "comma-separated worker counts (default "+def+")", func(s string) (err error) {
		ns, err = parse(s)
		return err
	})
	return &ns
}

func (c *cli) csvFlag() {
	c.csv = c.Bool("csv", false, "emit CSV instead of aligned text")
}

// emit prints one table in the format -csv selects.
func (c *cli) emit(tb *stats.Table) {
	if *c.csv {
		fmt.Print(tb.CSV())
	} else {
		fmt.Print(tb.String())
	}
}

// latencyParamsFlags declares -playouts, -host-profile and -game for the
// simulator-driven figures; the returned function yields the parameters they
// run on — paper-shaped unless -host-profile asks for a measurement of this
// host on a synthetic tree shaped like -game.
func (c *cli) latencyParamsFlags() func() experiments.LatencyParams {
	playouts := mcts.PlayoutsFlag(c.FlagSet, 1600, "")
	hostProfile := c.Bool("host-profile", false, "profile this host instead of paper-shaped parameters")
	gameSpec := games.Flag(c.FlagSet, "gomoku", " (shapes the -host-profile measurement)")
	return func() experiments.LatencyParams {
		if *hostProfile {
			return experiments.HostMeasuredParamsFor(*playouts, c.game(*gameSpec, "gomoku"))
		}
		return experiments.PaperShapedParams(*playouts)
	}
}

// trainingScaleFlags declares the flags of the two figures that run the real
// training pipeline; the returned function yields the scale after parse.
func (c *cli) trainingScaleFlags(episodes int) func() experiments.TrainingScale {
	gameSpec := games.Flag(c.FlagSet, "gomoku:9", "")
	playouts := mcts.PlayoutsFlag(c.FlagSet, 48, "")
	eps := c.Int("episodes", episodes, "self-play episodes per worker count and platform")
	fullNet := nn.FullNetFlag(c.FlagSet, "")
	return func() experiments.TrainingScale {
		c.game(*gameSpec, "") // validate the spec before the run starts
		sc := experiments.DefaultTrainingScale()
		sc.Game = *gameSpec
		sc.Playouts = *playouts
		sc.Episodes = *eps
		sc.TinyNet = !*fullNet
		return sc
	}
}

// batchsweep regenerates Figure 3 (the design exploration of the
// host-accelerator communication batch size, Section 5.2) and the Algorithm 4
// search summary: for each worker count N it sweeps the local-tree scheme's
// sub-batch size B over [1, N] on the simulated accelerator timeline and
// reports the amortized per-iteration latency, then contrasts the O(log N)
// V-sequence search against the naive linear sweep.
func batchsweep(c *cli) {
	params := c.latencyParamsFlags()
	ns := c.nsFlag("16,32,64")
	c.csvFlag()
	c.parse()
	p := params()
	c.emit(experiments.Figure3BatchSweep(p, *ns))
	if !*c.csv {
		fmt.Println()
	}
	c.emit(experiments.OptimalBatch(p, *ns))
}

// latency regenerates Figures 4 and 5 (Section 5.3): the amortized
// per-worker-iteration latency of the local-tree, shared-tree, and adaptive
// configurations across worker counts, on the CPU-only and CPU-GPU platforms,
// plus the headline adaptive-vs-fixed speedup table.
func latency(c *cli) {
	platform := c.String("platform", "both", "cpu, gpu, or both")
	speedup := c.Bool("speedup", false, "also print the headline speedup table")
	ns := c.nsFlag("1,2,4,8,16,32,64")
	params := c.latencyParamsFlags()
	c.csvFlag()
	c.parse()
	p := params()
	emit := func(tb *stats.Table) {
		c.emit(tb)
		if !*c.csv {
			fmt.Println()
		}
	}
	if *platform == "cpu" || *platform == "both" {
		emit(experiments.Figure4LatencyCPU(p, *ns))
	}
	if *platform == "gpu" || *platform == "both" {
		emit(experiments.Figure5LatencyGPU(p, *ns))
	}
	if *speedup {
		emit(experiments.HeadlineSpeedups(p, *ns))
	}
}

// throughput regenerates Figure 6 (Section 5.4): end-to-end DNN-MCTS training
// throughput in processed samples per second across worker counts, with the
// parallel scheme chosen by the adaptive configuration workflow for each
// point, on the CPU-only and the simulated CPU-GPU platform. The defaults are
// scaled to finish on a laptop (small board, tiny network, few episodes);
// raise -playouts/-episodes and set -full-net to approach the paper's
// configuration.
func throughput(c *cli) {
	ns := c.nsFlag("1,2,4,8")
	scale := c.trainingScaleFlags(2)
	platform := c.String("platform", "both", "cpu, gpu, or both")
	backend := c.String("backend", "", "accel backend for the gpu platform: "+strings.Join(accel.BackendNames(), ", ")+" (default hosted)")
	transpose := tree.TransposeFlag(c.FlagSet, "off", "")
	c.csvFlag()
	c.parse()
	platforms, ok := map[string][]bool{"cpu": {false}, "gpu": {true}, "both": {false, true}}[*platform]
	if !ok {
		fmt.Fprintln(os.Stderr, "throughput: -platform must be cpu, gpu, or both")
		os.Exit(2)
	}
	sc := scale()
	sc.Backend = *backend
	sc.TransposeSize = tree.ResolveTransposeFlag(c.name, *transpose)
	c.emit(experiments.Figure6Throughput(sc, *ns, platforms))
}

// losscurve regenerates Figure 7 (Section 5.5): the Equation 2 training loss
// over wall-clock time for several worker counts, each running under the
// configuration the adaptive workflow selects. The paper's observation — more
// workers reach the same loss sooner, and the converged loss is not hurt by
// parallelism — is read off the elapsed-time column.
func losscurve(c *cli) {
	ns := c.nsFlag("1,2,4")
	scale := c.trainingScaleFlags(4)
	platform := c.String("platform", "cpu", "cpu or gpu")
	c.csvFlag()
	c.parse()
	c.emit(experiments.Figure7Loss(scale(), *ns, *platform == "gpu"))
}

// ablation runs the design-choice ablation studies that complement the
// paper's headline figures: virtual-loss magnitude and semantics on the
// shared tree, the related-work baselines (root-/leaf-parallel) against the
// two tree-parallel schemes, the accelerator-interconnect sweep behind the
// conclusion's generality claim, and the transposition table's effect on DNN
// demand. The engine studies (vl, vlmode, baselines) run on any registered
// game; without -game they keep their historical defaults.
func ablation(c *cli) {
	gameSpec := games.Flag(c.FlagSet, "", " (default: tictactoe for vl/vlmode, gomoku:9 for baselines, othello+hex:7 for transpose)")
	workers := c.Int("workers", 4, "parallel workers for engine ablations")
	playouts := mcts.PlayoutsFlag(c.FlagSet, 200, "")
	which := c.String("which", "vl,vlmode,baselines,interconnect,transpose", "comma-separated studies")
	transpose := tree.TransposeFlag(c.FlagSet, "on", " (entry budget for the transpose study)")
	c.parse()

	want := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	if want["vl"] {
		fmt.Print(experiments.AblationVirtualLoss(c.game(*gameSpec, "tictactoe"), []float64{0, 0.5, 1, 2, 4}, *workers, *playouts).String())
		fmt.Println()
	}
	if want["vlmode"] {
		fmt.Print(experiments.AblationVLMode(c.game(*gameSpec, "tictactoe"), *workers, *playouts).String())
		fmt.Println()
	}
	if want["baselines"] {
		fmt.Print(experiments.AblationBaselines(c.game(*gameSpec, "gomoku:9"), *workers, *playouts).String())
		fmt.Println()
	}
	if want["interconnect"] {
		p := experiments.PaperShapedParams(1600)
		fmt.Print(experiments.AblationInterconnect(p, 64).String())
		fmt.Println()
	}
	if want["transpose"] {
		size := tree.ResolveTransposeFlag(c.name, *transpose)
		if size == 0 {
			size = tree.DefaultTransTableSize
		}
		// Othello and Hex transpose heavily (move-order permutations reach
		// the same stone pattern); both are the study's defaults.
		gs := []gamepkg.Game{c.game("othello", ""), c.game("hex:7", "")}
		if *gameSpec != "" {
			gs = []gamepkg.Game{c.game(*gameSpec, "")}
		}
		fmt.Print(experiments.AblationTranspose(gs, *playouts, 2, 16, size).String())
	}
}

// configure runs the design configuration workflow of Section 4.2 end to end
// for a given worker count and platform: it profiles the host's in-tree
// operations on a synthetic tree shaped like the -game scenario, profiles (or
// models) the DNN latency, evaluates the performance models, searches the
// accelerator batch size with Algorithm 4 where applicable, and prints the
// chosen parallel scheme with the evidence behind it.
func configure(c *cli) {
	n := c.Int("n", 32, "worker count N")
	platform := c.String("platform", "gpu", "cpu or gpu")
	playouts := mcts.PlayoutsFlag(c.FlagSet, 1600, "")
	explain := c.Bool("explain", false, "print every Algorithm 4 probe")
	gameSpec := games.Flag(c.FlagSet, "gomoku", "")
	c.parse()

	lp := experiments.HostMeasuredParamsFor(*playouts, c.game(*gameSpec, "gomoku"))
	params := lp.Params

	prof := stats.NewTable("Profiled parameters", "parameter", "value")
	prof.AddRow("T_select", params.TSelect)
	prof.AddRow("T_backup", params.TBackup)
	prof.AddRow("T_DNN_CPU", params.TDNNCPU)
	prof.AddRow("T_shared_access", params.TSharedAccess)
	fmt.Print(prof.String())
	fmt.Println()

	var choice perfmodel.Choice
	if *platform == "cpu" {
		choice = perfmodel.ConfigureCPU(params, *n)
	} else {
		probe := func(b int) time.Duration {
			d := simsched.LocalAccel(params, lp.Playouts, *n, b).PerIteration
			if *explain {
				fmt.Printf("  test run: B=%-3d -> %v per iteration\n", b, d)
			}
			return d
		}
		choice = perfmodel.ConfigureGPU(params, *n, 1, probe)
	}

	out := stats.NewTable("Design configuration decision", "field", "value")
	out.AddRow("platform", *platform)
	out.AddRow("N", choice.N)
	out.AddRow("scheme", choice.Scheme.String())
	out.AddRow("batch size B", choice.BatchSize)
	out.AddRow("predicted shared (per iter)", choice.PredictedShared)
	out.AddRow("predicted local (per iter)", choice.PredictedLocal)
	out.AddRow("Algorithm 4 probes", choice.Probes)
	fmt.Print(out.String())
}

// profilekit runs the design-time profiling of Section 4.2 on the current
// host and prints the performance-model parameters: the amortized in-tree
// operation latencies (T_select, T_backup) measured on a synthetic tree with
// the -game scenario's fanout and depth limit, and the single-threaded DNN
// inference latency (T_DNN) of a paper-shaped 5-conv + 3-FC network sized for
// that scenario, with random parameters. With -phase-split it additionally
// reproduces the Section 2.1 claim that the tree-based search stage accounts
// for >85% of serial DNN-MCTS runtime, by running a profiled serial search on
// the real benchmark.
func profilekit(c *cli) {
	playouts := mcts.PlayoutsFlag(c.FlagSet, 1600, "")
	gameSpec := games.Flag(c.FlagSet, "gomoku", "")
	dnnIters := c.Int("dnn-iters", 20, "inference timing iterations")
	phaseSplit := c.Bool("phase-split", false, "also measure the serial search phase split (the >=85% claim)")
	c.parse()

	g := c.game(*gameSpec, "gomoku")
	fanout := g.NumActions()
	prof := perfmodel.ProfileInTree(perfmodel.SyntheticSpec{
		Fanout:     fanout,
		DepthLimit: g.MaxGameLength(),
		Playouts:   *playouts,
		Seed:       1,
	})
	ch, h, w := g.EncodedShape()
	net := nn.MustNew(nn.GomokuConfig(ch, h, w, fanout), rng.New(1))
	eval := evaluate.NewNN(net)
	tdnn := perfmodel.ProfileDNN(eval, ch*h*w, fanout, *dnnIters)

	tb := stats.NewTable("Design-time profile (Section 4.2)", "parameter", "value")
	tb.AddRow("benchmark", fmt.Sprintf("%s %dx%d, fanout %d", g.Name(), h, w, fanout))
	tb.AddRow("playouts profiled", *playouts)
	tb.AddRow("T_select (per iteration)", prof.TSelect)
	tb.AddRow("T_backup (per iteration)", prof.TBackup)
	tb.AddRow("avg leaf depth", fmt.Sprintf("%.2f", prof.AvgDepth))
	tb.AddRow("tree nodes allocated", prof.Nodes)
	tb.AddRow("T_DNN_CPU (single thread)", tdnn)
	tb.AddRow("T_shared_access (modeled DDR)", perfmodel.DefaultSharedAccess)
	tb.AddRow("network parameters", net.NumParams())
	fmt.Print(tb.String())

	if *phaseSplit {
		ps, _ := experiments.PhaseSplitFor(g, *playouts)
		fmt.Print(ps.String())
		fmt.Println("tree-based search stage vs DNN training: see figures throughput")
	}
}
