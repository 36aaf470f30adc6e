// Package queue provides the accelerator request queue that accumulates DNN
// inference tasks until a batch is worth launching (Section 3.3): at the
// threshold batch size, when every registered producer has a request in it
// (the quorum), or at the flush deadline — see Batcher.
package queue

import (
	"slices"
	"sync"
	"time"
)

// Batcher is the accelerator queue of Section 3.3: producers Add requests,
// and the whole buffer is handed to the flush function as one batch when the
// first of three launch conditions holds:
//
//   - threshold: the buffer holds threshold requests (the classic queue);
//   - quorum: producers have registered slots (Join) and the buffer holds as
//     many requests as there are registered slots — no registered producer
//     can add to it any more, so waiting longer buys nothing;
//   - deadline (NewDeadlineBatcher): the oldest buffered request has waited
//     for the flush deadline.
//
// Flush runs synchronously on the caller that completed the condition (Add,
// Leave, FlushNow, FlushHolding or the deadline timer's goroutine) while
// holding no Batcher lock, so producers on other goroutines keep
// accumulating the next batch concurrently.
//
// The quorum counts EVERY registered slot, including slots whose previous
// request is still executing in an earlier batch. A request buffered while
// that batch runs therefore waits for the batch's producers to come back and
// join it (at most one batch execution, not a timer); launching it alone
// would split lock-step producers into out-of-phase groups that never merge
// again, and the batch fill would decay towards one. A producer that can no
// longer submit must Leave, and Leave re-evaluates the condition, so the
// tail of a search never waits for slots that went away. With no slot
// registered the quorum condition is off and the batcher behaves exactly as
// a threshold/deadline queue.
//
// The deadline timer is armed by the *first* request of each buffer
// generation and stopped when that generation is taken, so no request ever
// waits longer than the deadline between Add and the hand-off to flush — the
// service-level guarantee the multi-tenant inference server is built on. With
// registered producers it is only the backstop for producers that are busy
// elsewhere (in tree code) while the others wait.
type Batcher[T comparable] struct {
	mu        sync.Mutex
	buf       []T
	threshold int
	slots     int // registered producer slots: the quorum (0 = condition off)
	deadline  time.Duration
	gen       uint64      // buffer generation; invalidates a deadline timer that lost the race with Stop
	timer     *time.Timer // this generation's deadline timer, nil when none is armed
	flush     func([]T)
	counts    FlushCounts
	// timerRuns counts deadline callbacks that ran at all, stale or not.
	timerRuns int
}

// FlushCounts says which launch condition handed over how many batches.
// Batches pushed by FlushNow are in none of the three.
type FlushCounts struct {
	Threshold, Quorum, Deadline int64
}

// NewBatcher creates a batcher that calls flush with each full batch of
// size threshold. The slice passed to flush is owned by the callee.
func NewBatcher[T comparable](threshold int, flush func([]T)) *Batcher[T] {
	return NewDeadlineBatcher(threshold, 0, flush)
}

// NewDeadlineBatcher creates a batcher that flushes when the buffer reaches
// threshold OR when the oldest buffered request has waited for deadline,
// whichever comes first. A deadline of 0 disables timer-driven flushing
// (threshold-only, the classic accelerator queue).
func NewDeadlineBatcher[T comparable](threshold int, deadline time.Duration, flush func([]T)) *Batcher[T] {
	if threshold < 1 {
		panic("queue: batch threshold must be >= 1")
	}
	if flush == nil {
		panic("queue: nil flush")
	}
	if deadline < 0 {
		panic("queue: negative flush deadline")
	}
	return &Batcher[T]{threshold: threshold, deadline: deadline, flush: flush, buf: make([]T, 0, threshold)}
}

// Join registers n producer slots: n more requests can be outstanding at
// once, so the quorum rises by n. A larger quorum never launches anything.
func (b *Batcher[T]) Join(n int) {
	if n < 0 {
		panic("queue: negative slot count")
	}
	b.mu.Lock()
	b.slots += n
	b.mu.Unlock()
}

// Leave unregisters n producer slots that can no longer add to the buffer
// and launches the buffer if the remaining slots have all filled it.
func (b *Batcher[T]) Leave(n int) {
	b.mu.Lock()
	if n < 0 || n > b.slots {
		b.mu.Unlock()
		panic("queue: Leave without a matching Join")
	}
	b.slots -= n
	batch := b.takeIfReadyLocked()
	b.mu.Unlock()
	if batch != nil {
		b.flush(batch)
	}
}

// Flushes returns how many batches each launch condition has handed over.
func (b *Batcher[T]) Flushes() FlushCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts
}

// Add enqueues one request, flushing if the threshold or the quorum is
// reached. When a deadline is configured and v is left alone in the buffer,
// a timer is armed so the partial batch launches no later than deadline from
// now.
func (b *Batcher[T]) Add(v T) {
	b.mu.Lock()
	b.buf = append(b.buf, v)
	batch := b.takeIfReadyLocked()
	if batch == nil && len(b.buf) == 1 && b.deadline > 0 {
		gen := b.gen
		b.timer = time.AfterFunc(b.deadline, func() { b.flushDeadline(gen) })
	}
	b.mu.Unlock()
	if batch != nil {
		b.flush(batch)
	}
}

// takeLocked hands the caller the current buffer and starts a new
// generation, stopping the deadline timer armed for the old one. Caller
// holds b.mu.
func (b *Batcher[T]) takeLocked() []T {
	batch := b.buf
	b.buf = make([]T, 0, b.threshold)
	b.gen++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// takeIfReadyLocked takes the buffer if it meets the threshold or the
// quorum, counting which. Caller holds b.mu.
func (b *Batcher[T]) takeIfReadyLocked() []T {
	switch n := len(b.buf); {
	case n >= b.threshold:
		b.counts.Threshold++
	case b.slots > 0 && n >= b.slots:
		b.counts.Quorum++
	default:
		return nil
	}
	return b.takeLocked()
}

// flushDeadline is the timer callback: it flushes the partial batch only if
// the buffer generation it was armed for is still accumulating (Stop loses
// the race against a callback that has already started).
func (b *Batcher[T]) flushDeadline(gen uint64) {
	b.mu.Lock()
	b.timerRuns++
	if b.gen != gen || len(b.buf) == 0 {
		b.mu.Unlock()
		return
	}
	b.counts.Deadline++
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// FlushNow hands any buffered requests to flush regardless of threshold.
// Used at the end of a search to drain a partial batch.
func (b *Batcher[T]) FlushNow() {
	b.mu.Lock()
	if len(b.buf) == 0 {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// FlushHolding hands the buffer to flush, regardless of threshold, if v is
// in it: a producer about to block on v launches the batch holding it, and
// launches nothing once v has been handed over. Like FlushNow, the push is
// counted under none of the three launch conditions.
func (b *Batcher[T]) FlushHolding(v T) {
	b.mu.Lock()
	if !slices.Contains(b.buf, v) {
		b.mu.Unlock()
		return
	}
	batch := b.takeLocked()
	b.mu.Unlock()
	b.flush(batch)
}

// Pending returns the number of buffered (unflushed) requests.
func (b *Batcher[T]) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}
