package mcts

import (
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/evaluate"
	"github.com/parmcts/parmcts/internal/game/connect4"
)

// TestDeadlineLessWaitNeverHangs: on a server with no flush deadline and a
// threshold that does not divide the fan-out, a master that has just
// received the last result of one batch must still get the rest of its
// requests launched, however late that batch's launcher is in counting
// itself out. Every search runs against a timeout, so a stranded request
// fails the test instead of hanging it.
func TestDeadlineLessWaitNeverHangs(t *testing.T) {
	const searches = 400
	engines := map[string]func(evaluate.Async) Engine{
		"leaf-parallel-5": func(a evaluate.Async) Engine { return NewLeafParallel(testCfg(16), 5, a) },
		"local-4":         func(a evaluate.Async) Engine { return NewLocal(testCfg(16), a, 4) },
	}
	for name, mk := range engines {
		t.Run(name, func(t *testing.T) {
			srv := evaluate.NewServer(&evaluate.EvaluatorBackend{Eval: &evaluate.Random{}, Workers: 2}, evaluate.ServerConfig{Batch: 3})
			cl := srv.NewSyncClient()
			e := mk(cl)
			st := connect4.New().NewInitial()
			dist := make([]float32, st.NumActions())
			for i := 0; i < searches; i++ {
				done := make(chan struct{})
				go func() {
					e.Search(st, dist)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("search %d of %d hung on a buffered request", i, searches)
				}
			}
			e.Close()
			cl.Close()
			srv.Close()
		})
	}
}
