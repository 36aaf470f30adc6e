package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestBatcherFlushesAtThreshold(t *testing.T) {
	var batches [][]int
	b := NewBatcher[int](3, func(batch []int) { batches = append(batches, batch) })
	for i := 0; i < 7; i++ {
		b.Add(i)
	}
	if len(batches) != 2 {
		t.Fatalf("flushed %d batches, want 2", len(batches))
	}
	if len(batches[0]) != 3 || batches[0][0] != 0 || batches[1][0] != 3 {
		t.Fatalf("batch contents wrong: %v", batches)
	}
	if b.Pending() != 1 {
		t.Fatalf("pending = %d", b.Pending())
	}
	b.FlushNow()
	if len(batches) != 3 || len(batches[2]) != 1 || batches[2][0] != 6 {
		t.Fatalf("FlushNow wrong: %v", batches)
	}
	if b.Pending() != 0 {
		t.Fatal("pending after FlushNow")
	}
	b.FlushNow() // empty flush is a no-op
	if len(batches) != 3 {
		t.Fatal("empty FlushNow produced a batch")
	}
}

// TestBatcherFlushHolding: a producer about to wait on v pushes the buffer
// only while v is in it — once v has been handed over, nothing launches —
// and the push is counted under no launch condition.
func TestBatcherFlushHolding(t *testing.T) {
	var batches [][]int
	b := NewBatcher[int](3, func(batch []int) { batches = append(batches, batch) })
	for i := 0; i < 5; i++ {
		b.Add(i) // 0..2 launch at the threshold, 3 and 4 stay buffered
	}
	b.FlushHolding(1)
	if len(batches) != 1 || b.Pending() != 2 {
		t.Fatalf("FlushHolding of a launched value pushed the buffer: %v, %d pending", batches, b.Pending())
	}
	b.FlushHolding(4)
	if len(batches) != 2 || len(batches[1]) != 2 || batches[1][0] != 3 || b.Pending() != 0 {
		t.Fatalf("FlushHolding of a buffered value did not push its batch: %v, %d pending", batches, b.Pending())
	}
	if c := b.Flushes(); c != (FlushCounts{Threshold: 1}) {
		t.Fatalf("flush counts %+v: the push was attributed to a launch condition", c)
	}
}

func TestBatcherPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero threshold": func() { NewBatcher[int](0, func([]int) {}) },
		"nil flush":      func() { NewBatcher[int](1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBatcherConcurrentAddsLoseNothing(t *testing.T) {
	var total atomic.Int64
	var calls atomic.Int64
	b := NewBatcher[int](16, func(batch []int) {
		calls.Add(1)
		for _, v := range batch {
			total.Add(int64(v))
		}
	})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= per; i++ {
				b.Add(i)
			}
		}()
	}
	wg.Wait()
	b.FlushNow()
	want := int64(workers) * per * (per + 1) / 2
	if total.Load() != want {
		t.Fatalf("sum = %d, want %d (lost requests)", total.Load(), want)
	}
	if calls.Load() < int64(workers*per/16) {
		t.Fatalf("too few flush calls: %d", calls.Load())
	}
}

func TestDeadlineBatcherFlushesPartialBatch(t *testing.T) {
	const deadline = 15 * time.Millisecond
	flushed := make(chan []int, 4)
	b := NewDeadlineBatcher(100, deadline, func(batch []int) { flushed <- batch })
	start := time.Now()
	b.Add(1)
	b.Add(2)
	select {
	case batch := <-flushed:
		if len(batch) != 2 {
			t.Fatalf("deadline flush delivered %v", batch)
		}
		if waited := time.Since(start); waited < deadline/2 {
			t.Fatalf("flushed after %v, before the deadline", waited)
		}
	case <-time.After(10 * deadline):
		t.Fatal("deadline flush never fired")
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after deadline flush", b.Pending())
	}
}

func TestDeadlineBatcherThresholdCancelsTimer(t *testing.T) {
	flushed := make(chan []int, 4)
	b := NewDeadlineBatcher(2, 10*time.Millisecond, func(batch []int) { flushed <- batch })
	b.Add(1)
	b.Add(2) // threshold flush; the armed timer must become a no-op
	<-flushed
	select {
	case batch := <-flushed:
		t.Fatalf("stale timer produced a second flush: %v", batch)
	case <-time.After(50 * time.Millisecond):
	}
	// The next generation arms its own timer.
	b.Add(3)
	select {
	case batch := <-flushed:
		if len(batch) != 1 || batch[0] != 3 {
			t.Fatalf("second-generation flush = %v", batch)
		}
	case <-time.After(time.Second):
		t.Fatal("second-generation deadline never fired")
	}
}

func TestDeadlineBatcherFlushNowInvalidatesTimer(t *testing.T) {
	var calls atomic.Int64
	b := NewDeadlineBatcher(100, 10*time.Millisecond, func(batch []int) { calls.Add(1) })
	b.Add(1)
	b.FlushNow()
	time.Sleep(40 * time.Millisecond)
	if calls.Load() != 1 {
		t.Fatalf("flush called %d times, want 1 (stale timer must not re-fire)", calls.Load())
	}
}

func TestDeadlineBatcherNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative deadline did not panic")
		}
	}()
	NewDeadlineBatcher(1, -time.Millisecond, func([]int) {})
}

func TestBatcherPropertyNoneLostAnyThreshold(t *testing.T) {
	if err := quick.Check(func(thrRaw uint8, nRaw uint16) bool {
		thr := int(thrRaw)%20 + 1
		n := int(nRaw) % 500
		count := 0
		b := NewBatcher[int](thr, func(batch []int) { count += len(batch) })
		for i := 0; i < n; i++ {
			b.Add(i)
		}
		b.FlushNow()
		return count == n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// recordBatches returns a flush function that records each batch's length.
func recordBatches(mu *sync.Mutex, sizes *[]int) func([]int) {
	return func(batch []int) {
		mu.Lock()
		*sizes = append(*sizes, len(batch))
		mu.Unlock()
	}
}

func TestQuorumLaunchesWhenEverySlotHasAdded(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := NewDeadlineBatcher(8, 10*time.Second, recordBatches(&mu, &sizes))
	b.Join(1)
	b.Join(2)
	b.Add(1)
	b.Add(2)
	if len(sizes) != 0 {
		t.Fatalf("launched %v with one slot still to add", sizes)
	}
	b.Add(3) // third of three slots: nothing can still arrive
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batches = %v, want one of 3", sizes)
	}
	if f := b.Flushes(); f != (FlushCounts{Quorum: 1}) {
		t.Fatalf("flush counts = %+v, want one quorum flush", f)
	}
	b.Leave(3)
	b.Add(4) // nobody registered: back to threshold and deadline only
	if len(sizes) != 1 || b.Pending() != 1 {
		t.Fatalf("unregistered add launched: batches %v, pending %d", sizes, b.Pending())
	}
}

func TestQuorumLeaveReevaluates(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := NewDeadlineBatcher(8, 10*time.Second, recordBatches(&mu, &sizes))
	b.Join(3)
	b.Add(1)
	b.Add(2)
	b.Leave(1) // the third slot will never add: the two buffered go now
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batches = %v, want one of 2", sizes)
	}
	b.Leave(2) // last slots out over an empty buffer: nothing to launch
	if len(sizes) != 1 {
		t.Fatalf("Leave over an empty buffer launched: %v", sizes)
	}
	if f := b.Flushes(); f != (FlushCounts{Quorum: 1}) {
		t.Fatalf("flush counts = %+v, want one quorum flush", f)
	}
}

func TestQuorumThresholdWinsTies(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	b := NewBatcher(2, recordBatches(&mu, &sizes))
	b.Join(2)
	b.Add(1)
	b.Add(2)
	if f := b.Flushes(); f != (FlushCounts{Threshold: 1}) {
		t.Fatalf("flush counts = %+v, want the full batch counted as a threshold flush", f)
	}
}

func TestQuorumDeadlineStillBacksStop(t *testing.T) {
	flushed := make(chan []int, 1)
	b := NewDeadlineBatcher(8, 15*time.Millisecond, func(batch []int) { flushed <- batch })
	b.Join(2)
	b.Add(1) // the other slot never adds and never leaves
	select {
	case batch := <-flushed:
		if len(batch) != 1 {
			t.Fatalf("deadline flush delivered %v", batch)
		}
	case <-time.After(time.Second):
		t.Fatal("deadline never fired under an unmet quorum")
	}
	if f := b.Flushes(); f != (FlushCounts{Deadline: 1}) {
		t.Fatalf("flush counts = %+v, want one deadline flush", f)
	}
}

func TestQuorumLeaveWithoutJoinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Leave beyond the registered slots did not panic")
		}
	}()
	b := NewBatcher(2, func([]int) {})
	b.Join(1)
	b.Leave(2)
}

// TestQuorumConcurrentProducers: registered lock-step producers and a
// ten-second deadline; the run only finishes in time if every batch launches
// by quorum, and each batch must hold one request per producer.
func TestQuorumConcurrentProducers(t *testing.T) {
	const producers, rounds = 4, 300
	var done [producers]chan struct{}
	for i := range done {
		done[i] = make(chan struct{}, 1)
	}
	var short atomic.Int64
	b := NewDeadlineBatcher(2*producers, 10*time.Second, func(batch []int) {
		if len(batch) != producers {
			short.Add(1)
		}
		go func() { // completions come from another goroutine, as in the server
			for _, p := range batch {
				done[p] <- struct{}{}
			}
		}()
	})
	b.Join(producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b.Add(p)
				<-done[p]
			}
		}(p)
	}
	wg.Wait()
	b.Leave(producers)
	if f := b.Flushes(); f.Quorum != rounds || f.Deadline != 0 || f.Threshold != 0 {
		t.Fatalf("flush counts = %+v, want %d quorum flushes only", f, rounds)
	}
	if short.Load() != 0 {
		t.Fatalf("%d batches were not one-per-producer", short.Load())
	}
}

// TestFlushCauseStopsStaleTimers: a generation taken by threshold (or
// quorum) stops its deadline timer, so no callback is left to fire, take
// the mutex and find itself stale.
func TestFlushCauseStopsStaleTimers(t *testing.T) {
	const n = 200
	const deadline = 50 * time.Millisecond
	b := NewDeadlineBatcher(2, deadline, func([]int) {})
	for i := 0; i < n; i++ {
		b.Add(i) // arms this generation's timer
		b.Add(i) // threshold flush
	}
	b.Join(2)
	b.Add(0)
	b.Leave(1) // quorum flush of a generation with an armed timer
	b.Leave(1)
	time.Sleep(3 * deadline)
	b.mu.Lock()
	runs := b.timerRuns
	b.mu.Unlock()
	if runs != 0 {
		t.Fatalf("%d deadline callbacks ran after %d threshold flushes, want 0", runs, n)
	}
	if f := b.Flushes(); f != (FlushCounts{Threshold: n, Quorum: 1}) {
		t.Fatalf("flush counts = %+v", f)
	}
}
