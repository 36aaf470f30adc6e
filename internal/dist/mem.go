package dist

import (
	"errors"
	"sync"
)

// ErrClosed reports an operation on a closed in-memory connection or
// listener — the in-memory analogue of a reset TCP connection.
var ErrClosed = errors.New("dist: connection closed")

// Network is the in-memory transport fabric: the learner listens on it,
// workers dial it, and every message moves through a bounded per-direction
// queue with no real sockets involved. cmd/train runs its learner and its
// worker on one (the single-process pipeline is the distributed one minus
// the sockets), and the package's tests run whole clusters on one. Listen may
// be called again after the active listener closes — that is how a
// learner-restart test rebinds the "address" while workers keep redialing
// the same fabric.
type Network struct {
	mu       sync.Mutex
	listener *memListener
}

// NewNetwork creates an empty fabric.
func NewNetwork() *Network { return &Network{} }

// Listen binds the fabric's single learner endpoint. It fails while a
// previous listener is still open.
func (n *Network) Listen() (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener != nil && !n.listener.closed() {
		return nil, errors.New("dist: fabric already has a listener")
	}
	l := &memListener{accept: make(chan *memConn), done: make(chan struct{})}
	n.listener = l
	return l, nil
}

// Dialer returns a Dialer connecting to whatever listener is currently
// bound. Dialing while no listener is open fails like a refused connection,
// which is exactly what a worker's backoff loop expects during a learner
// restart.
func (n *Network) Dialer() Dialer {
	return func() (Conn, error) {
		n.mu.Lock()
		l := n.listener
		n.mu.Unlock()
		if l == nil || l.closed() {
			return nil, errors.New("dist: connection refused (no listener)")
		}
		return l.dial()
	}
}

type memListener struct {
	accept chan *memConn

	once sync.Once
	done chan struct{}
}

func (l *memListener) dial() (Conn, error) {
	worker, learner := memPipe()
	select {
	case l.accept <- learner:
		return worker, nil
	case <-l.done:
		return nil, errors.New("dist: connection refused (listener closed)")
	}
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Addr() string { return "mem" }

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) closed() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// memPipeDepth is how many messages one direction of an in-memory pipe holds
// before Send blocks. One is the least a queue can hold (a socket buffer holds
// a few 9x9 episodes); it is a term of MaxReadAheadRounds, not a knob.
const memPipeDepth = 1

// memConn is one endpoint of an in-memory duplex pipe. Each direction is a
// queue of memPipeDepth messages: Send blocks while the peer is not receiving,
// as on a full socket, so a learner that stops reading stops its workers
// instead of growing without bound. Both ends of the protocol keep a reader
// that never blocks on a send of its own, so the pipe cannot deadlock.
type memConn struct {
	send *memQueue
	recv *memQueue
}

func memPipe() (a, b *memConn) {
	q1 := newMemQueue()
	q2 := newMemQueue()
	return &memConn{send: q1, recv: q2}, &memConn{send: q2, recv: q1}
}

func (c *memConn) Send(m Msg) error   { return c.send.push(m) }
func (c *memConn) Recv() (Msg, error) { return c.recv.pop() }

// Close tears down both directions, unblocking the peer's Recv as a closed
// TCP socket would.
func (c *memConn) Close() error {
	c.send.close()
	c.recv.close()
	return nil
}

type memQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	msgs   []Msg
	closed bool
}

func newMemQueue() *memQueue {
	q := &memQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *memQueue) push(m Msg) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) >= memPipeDepth && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return ErrClosed
	}
	q.msgs = append(q.msgs, m)
	q.cond.Broadcast()
	return nil
}

func (q *memQueue) pop() (Msg, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.msgs) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.msgs) == 0 {
		return Msg{}, ErrClosed
	}
	m := q.msgs[0]
	q.msgs = q.msgs[1:]
	q.cond.Broadcast()
	return m, nil
}

func (q *memQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
