// Command loadgen drives a running serve instance (cmd/serve) with N
// concurrent simulated users playing full games over real HTTP, validating
// every response against a local rules mirror (a mis-routed or dropped move
// is a hard failure, not a statistic), and records p50/p90/p99 move latency
// and sustained moves/s. It is the client for a REMOTE server; the in-process
// benchmark generator lives in cmd/bench.
//
// Usage:
//
//	loadgen [-addr http://127.0.0.1:8080] [-users 100] [-games 1]
//	        [-duration 0] [-seed 1]
//
// With -duration D users keep starting games until the deadline instead of
// counting games (-games is ignored). Exit status is non-zero when any
// mismatch or protocol error was observed.
package main

import (
	"flag"
	"fmt"
	"os"

	_ "github.com/parmcts/parmcts/internal/game/games" // link the registry for mirror reconstruction
	"github.com/parmcts/parmcts/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "serve base URL")
		users    = flag.Int("users", 100, "concurrent simulated users")
		games    = flag.Int("games", 1, "full games per user (ignored with -duration)")
		duration = flag.Duration("duration", 0, "run for this long instead of counting games")
		seed     = flag.Uint64("seed", 1, "seed for users' random move choices")
	)
	flag.Parse()

	rep, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:      *addr,
		Users:        *users,
		GamesPerUser: *games,
		Duration:     *duration,
		Seed:         *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	fmt.Printf("loadgen: users=%d games started=%d completed=%d aborted=%d moves=%d (%.1f moves/s over %.1fs)\n",
		rep.Users, rep.GamesStarted, rep.GamesCompleted, rep.GamesAborted, rep.Moves, rep.MovesPerSec, rep.ElapsedSeconds)
	fmt.Printf("loadgen: move latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms; 429 retries=%d; reuse(move2+)=%.3f\n",
		rep.P50MS, rep.P90MS, rep.P99MS, rep.MaxMS, rep.Rejected429, rep.MeanReuse)

	if rep.Mismatches > 0 || rep.ErrorCount > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAILED: %d mismatches, %d errors\n", rep.Mismatches, rep.ErrorCount)
		for _, e := range rep.Errors {
			fmt.Fprintln(os.Stderr, "  -", e)
		}
		os.Exit(1)
	}
}
