package train_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/tictactoe"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/train"
)

// fakeGen / fakeGate / promoteFunc drive the Loop's control flow without a
// fleet, for the ordering tests below.
type fakeGen struct{ replay *train.Replay }

func (g *fakeGen) Generate() train.GenRound {
	for i := 0; i < 10; i++ {
		g.replay.Add(nn.Sample{Input: make([]float32, 36), Policy: uniform(9), Value: 0})
	}
	return train.GenRound{Games: 1, Moves: 10, Samples: 10}
}

func uniform(n int) []float32 {
	p := make([]float32, n)
	for i := range p {
		p[i] = 1 / float32(n)
	}
	return p
}

type fakeGate struct {
	verdicts []bool // consumed in order; gate i promotes iff verdicts[i]
	calls    int
}

func (g *fakeGate) Gate(candidate *nn.Network, cv int64, incumbent *nn.Network, iv int64) train.GateResult {
	promote := g.calls < len(g.verdicts) && g.verdicts[g.calls]
	g.calls++
	return train.GateResult{Promote: promote, Score: 1, Games: 1, WinsCandidate: 1}
}

// promoteFunc adapts a function to train.Promoter. Promoting is one call on
// the live server.
type promoteFunc func(candidate *nn.Network, pr train.Promotion) error

func (f promoteFunc) Promote(candidate *nn.Network, pr train.Promotion) error {
	return f(candidate, pr)
}

type nopBackend struct{}

func (nopBackend) RunBatch([]*evaluate.Request) {}

func testTTTNet(t *testing.T, seed uint64) *nn.Network {
	t.Helper()
	g := tictactoe.New()
	c, h, w := g.EncodedShape()
	net, err := nn.New(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLoopPromotionAndRetireOrdering checks the control flow on a fake
// generator and gate over a live server: versions advance only on accepted
// gates, a failed Promote keeps the incumbent, and the server's backend is
// swapped once per promotion, in promotion order.
func TestLoopPromotionAndRetireOrdering(t *testing.T) {
	net := testTTTNet(t, 1)
	incumbent := net.Clone()
	replay := train.NewReplay(1000)
	var swapped []int64 // appended on the loop's consumer goroutine only
	srv := evaluate.NewServer(nopBackend{}, evaluate.ServerConfig{})
	defer srv.Close()
	// Candidate versions are minted per gate ATTEMPT (2,3,4,5,...), never
	// reusing a rejected number: gate 2's rejected candidate consumes v4,
	// so gate 3's accepted-but-unpersistable candidate is v5.
	gate := &fakeGate{verdicts: []bool{true, true, false, true, false, false, false, false}}
	promoter := promoteFunc(func(_ *nn.Network, pr train.Promotion) error {
		if pr.Version == 5 {
			return errors.New("checkpoint disk full")
		}
		srv.SwapBackend(nopBackend{})
		swapped = append(swapped, pr.Version)
		return nil
	})
	loop := train.NewLoop(net, incumbent, replay, &fakeGen{replay: replay}, gate, promoter, train.LoopConfig{
		Rounds:        8,
		GateEvery:     1,
		SGDIterations: 1,
		BatchSize:     4,
		Seed:          1,
	})
	var promoteErrs int
	report := loop.Run(func(s train.LoopRoundStats) {
		if s.PromoteErr != nil {
			promoteErrs++
		}
	})

	// Gates at rounds 0..7; verdicts: v2 ok, v3 ok, v4 rejected, v5
	// accepted by the gate but Promote fails, then rejections.
	if len(report.Promotions) != 2 || report.Promotions[0].Version != 2 || report.Promotions[1].Version != 3 {
		t.Fatalf("promotions = %+v, want v2 then v3", report.Promotions)
	}
	if report.FinalVersion != 3 {
		t.Fatalf("final version = %d, want 3 (v5's Promote failed)", report.FinalVersion)
	}
	if promoteErrs != 1 {
		t.Fatalf("observed %d promote errors, want 1", promoteErrs)
	}
	if len(swapped) != 2 || swapped[0] != 2 || swapped[1] != 3 {
		t.Fatalf("swapped in %v, want [2 3]", swapped)
	}
	if report.Rounds != 8 || report.Steps != 8 {
		t.Fatalf("report = %+v", report)
	}
}

// TestLoopWarmupSkipsSGDAndGate: rounds before MinSamples neither train nor
// gate. The generator runs up to two rounds ahead of the consumer (one in
// flight, one buffered), so the replay size seen at round r is bounded, not
// exact: with 10 samples/round and MinSamples 45, rounds 0-1 are certainly
// warmup ((r+3)*10 < 45) and rounds >= 4 certainly train ((r+1)*10 >= 45).
func TestLoopWarmupSkipsSGDAndGate(t *testing.T) {
	net := testTTTNet(t, 1)
	replay := train.NewReplay(1000)
	gate := &fakeGate{verdicts: []bool{true, true, true, true, true, true}}
	promoter := promoteFunc(func(*nn.Network, train.Promotion) error { return nil })
	loop := train.NewLoop(net, net.Clone(), replay, &fakeGen{replay: replay}, gate, promoter, train.LoopConfig{
		Rounds:     6,
		GateEvery:  1,
		MinSamples: 45,
	})
	var warmups, trained int
	loop.Run(func(s train.LoopRoundStats) {
		if !s.Trained {
			warmups++
			if s.Round >= 4 {
				t.Errorf("round %d was warmup with replay certainly past MinSamples", s.Round)
			}
			if s.Gate != nil {
				t.Fatal("gated during warmup")
			}
		} else {
			trained++
			if s.Round < 2 {
				t.Errorf("round %d trained before MinSamples could be reached", s.Round)
			}
			if s.Gate == nil {
				t.Errorf("round %d trained but did not gate (GateEvery=1)", s.Round)
			}
		}
	})
	if warmups < 2 || warmups > 4 {
		t.Fatalf("warmup rounds = %d, want within [2, 4]", warmups)
	}
	if gate.calls != trained {
		t.Fatalf("gate ran %d times over %d trained rounds", gate.calls, trained)
	}
}

// TestLoopGenerationOverlapsSGD pins the pipelining property: the
// generator's next round runs while the consumer is still in SGD. A
// generator that records concurrency with a slow trainer proves the
// overlap.
func TestLoopGenerationOverlapsSGD(t *testing.T) {
	net := testTTTNet(t, 1)
	replay := train.NewReplay(1000)
	gen := &overlapGen{replay: replay}
	loop := train.NewLoop(net, net.Clone(), replay, gen, nil, nil, train.LoopConfig{
		Rounds:        4,
		SGDIterations: 1,
		BatchSize:     16,
	})
	loop.Run(func(train.LoopRoundStats) {
		// Simulate a slow SGD+gate stage on the consumer goroutine; the
		// generator's poll in Generate must observe it running.
		gen.inConsume.Store(true)
		time.Sleep(20 * time.Millisecond)
		gen.inConsume.Store(false)
	})
	if !gen.overlapped.Load() {
		t.Fatal("generation never overlapped the consumer stage: the loop is serial")
	}
}

type overlapGen struct {
	replay     *train.Replay
	inConsume  atomic.Bool
	overlapped atomic.Bool
	rounds     int
}

func (g *overlapGen) Generate() train.GenRound {
	// After the first round, the consumer stage runs while this generator
	// goroutine produces the next round: observe it.
	if g.rounds > 0 {
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			if g.inConsume.Load() {
				g.overlapped.Store(true)
				break
			}
		}
	}
	g.rounds++
	for i := 0; i < 40; i++ {
		g.replay.Add(nn.Sample{Input: make([]float32, 36), Policy: uniform(9), Value: 0})
	}
	return train.GenRound{Games: 1, Moves: 40, Samples: 40}
}
