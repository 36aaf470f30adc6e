package train

import (
	"math"
	"testing"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/gomoku"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/mcts"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

func TestReplayBounds(t *testing.T) {
	r := NewReplay(3)
	for i := 0; i < 5; i++ {
		r.Add(nn.Sample{Value: float64(i)})
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("len/cap = %d/%d", r.Len(), r.Cap())
	}
	// Samples 0 and 1 must have been evicted.
	vals := map[float64]bool{}
	for _, s := range r.buf {
		vals[s.Value] = true
	}
	for _, old := range []float64{0, 1} {
		if vals[old] {
			t.Fatalf("sample %v not evicted", old)
		}
	}
}

func TestReplaySample(t *testing.T) {
	r := NewReplay(10)
	if got := r.Sample(rng.New(1), 4); got != nil {
		t.Fatal("sampling empty replay should return nil")
	}
	r.Add(nn.Sample{Value: 7})
	// Batch larger than the fill returns the distinct fill, not repeats.
	batch := r.Sample(rng.New(1), 5)
	if len(batch) != 1 {
		t.Fatalf("batch len = %d, want the distinct fill 1", len(batch))
	}
	if batch[0].Value != 7 {
		t.Fatal("sampled wrong element")
	}
}

func TestReplaySampleBatchLargerThanFillIsDistinct(t *testing.T) {
	// Regression for the silent with-replacement padding: a batch as large
	// as the current fill or larger must return every stored sample exactly
	// once — an undersized warmup buffer must not weight early games
	// multiple times inside one SGD step.
	r := NewReplay(100)
	const fill = 7
	for i := 0; i < fill; i++ {
		r.Add(nn.Sample{Value: float64(i)})
	}
	for _, n := range []int{64, fill} {
		batch := r.Sample(rng.New(3), n)
		if len(batch) != fill {
			t.Fatalf("n=%d: batch len = %d, want the distinct fill %d", n, len(batch), fill)
		}
		seen := map[float64]bool{}
		for _, s := range batch {
			if seen[s.Value] {
				t.Fatalf("n=%d: sample %v repeated in an at- or over-fill batch", n, s.Value)
			}
			seen[s.Value] = true
		}
		for i := 0; i < fill; i++ {
			if !seen[float64(i)] {
				t.Fatalf("n=%d: sample %d missing from the distinct fill", n, i)
			}
		}
	}
	// Below the fill the batch stays exactly n, drawn with replacement.
	if got := r.Sample(rng.New(4), fill-2); len(got) != fill-2 {
		t.Fatalf("under-fill batch len = %d, want %d", len(got), fill-2)
	}
}

func TestReplayPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewReplay(0)
}

func TestSampleActionTemperatureZeroIsArgmax(t *testing.T) {
	dist := []float32{0.1, 0.7, 0.2}
	r := rng.New(1)
	for i := 0; i < 20; i++ {
		if got := SampleAction(r, dist, 0); got != 1 {
			t.Fatalf("argmax = %d", got)
		}
	}
}

func TestSampleActionTemperatureOneFollowsDistribution(t *testing.T) {
	dist := []float32{0.25, 0.75, 0}
	r := rng.New(2)
	counts := [3]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleAction(r, dist, 1)]++
	}
	if counts[2] != 0 {
		t.Fatal("zero-probability action sampled")
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("action 1 frequency %v, want ~0.75", frac)
	}
}

func TestSampleActionLowTemperatureSharpens(t *testing.T) {
	dist := []float32{0.4, 0.6}
	r := rng.New(3)
	counts := [2]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleAction(r, dist, 0.25)]++
	}
	frac := float64(counts[1]) / n
	// (0.6/0.4)^4 = 5.06 => expect ~83.5%
	if frac < 0.78 {
		t.Fatalf("low temperature did not sharpen: %v", frac)
	}
}

func TestGomokuAugmenterProduces8ConsistentVariants(t *testing.T) {
	g := gomoku.NewSized(7)
	st := g.NewInitial()
	st.Play(2*7 + 3)
	c, h, w := g.EncodedShape()
	input := make([]float32, c*h*w)
	st.Encode(input)
	policy := make([]float32, g.NumActions())
	policy[10] = 0.5
	policy[11] = 0.5
	aug := GomokuAugmenter{Size: 7, Planes: c}
	variants := aug.Augment(nn.Sample{Input: input, Policy: policy, Value: 0.3})
	if len(variants) != 8 {
		t.Fatalf("variants = %d", len(variants))
	}
	seen := map[string]bool{}
	for _, v := range variants {
		if v.Value != 0.3 {
			t.Fatal("value changed by augmentation")
		}
		var polSum float32
		for _, p := range v.Policy {
			polSum += p
		}
		if math.Abs(float64(polSum-1)) > 1e-5 {
			t.Fatalf("policy mass changed: %v", polSum)
		}
		var inSum float32
		for _, x := range v.Input {
			inSum += x
		}
		key := string(float32Bytes(v.Policy))
		seen[key] = true
		_ = inSum
	}
	if len(seen) < 8 {
		t.Fatalf("only %d distinct policy variants (board has no symmetry axis through the stones)", len(seen))
	}
}

func float32Bytes(xs []float32) []byte {
	b := make([]byte, 0, len(xs))
	for _, x := range xs {
		b = append(b, byte(int(x*255)))
	}
	return b
}

func TestSelfPlayEpisodeTicTacToe(t *testing.T) {
	g := tictactoe.New()
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 100
	engine := mcts.NewSerial(cfg, &evaluate.Random{})
	res := SelfPlayEpisode(g, engine, EpisodeOptions{TempMoves: 2, Rand: rng.New(4)})
	if res.Moves < 5 || res.Moves > 9 {
		t.Fatalf("episode length %d outside [5,9]", res.Moves)
	}
	if len(res.Samples) != res.Moves {
		t.Fatalf("samples %d != moves %d", len(res.Samples), res.Moves)
	}
	if res.SearchTime <= 0 {
		t.Fatal("no search time recorded")
	}
	// Outcomes must be consistent: from each mover's perspective, the value
	// is +1 if that mover won, -1 if they lost, 0 on draw. Consecutive
	// moves alternate perspective, so values alternate sign (or all zero).
	for i := 1; i < len(res.Samples); i++ {
		a, b := res.Samples[i-1].Value, res.Samples[i].Value
		if a != 0 && a != -b {
			t.Fatalf("outcomes not alternating: %v then %v", a, b)
		}
	}
	if res.Winner != game.Nobody {
		last := res.Samples[len(res.Samples)-1]
		if last.Value != 1 {
			t.Fatalf("the player who made the final (winning) move should have value +1, got %v", last.Value)
		}
	}
}

// TestSelfPlayEpisodeWarmsTree pins the driver half of persistent search
// sessions: SelfPlayEpisode must Advance the engine past every played
// move, so a ReuseTree engine reports retained visits from move 2 on and
// the recorded visit distributions still pass the usual sanity checks.
func TestSelfPlayEpisodeWarmsTree(t *testing.T) {
	cfg := mcts.DefaultConfig()
	cfg.Playouts = 120
	cfg.ReuseTree = true
	e := mcts.NewSerial(cfg, &evaluate.Random{})
	res := SelfPlayEpisode(tictactoe.New(), e, EpisodeOptions{Rand: rng.New(3)})
	if res.Moves < 2 {
		t.Fatalf("degenerate episode: %d moves", res.Moves)
	}
	if res.Search.ReusedVisits == 0 {
		t.Fatal("episode with ReuseTree engine reported no subtree reuse")
	}
	if res.Search.ReuseFraction() <= 0 {
		t.Fatalf("reuse fraction = %v", res.Search.ReuseFraction())
	}
	// The episode boundary must discard the session: a fresh episode's
	// first search starts cold even though the engine is reused.
	res2 := SelfPlayEpisode(tictactoe.New(), e, EpisodeOptions{Rand: rng.New(4)})
	perMove := float64(res2.Search.ReusedVisits) / float64(res2.Moves)
	if perMove >= float64(cfg.Playouts) {
		t.Fatalf("second episode reused too much: %v visits/move", perMove)
	}
	if res2.Moves == 0 || len(res2.Samples) != res2.Moves {
		t.Fatalf("episode 2 malformed: %d moves, %d samples", res2.Moves, len(res2.Samples))
	}
}
