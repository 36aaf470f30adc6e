package dist

import (
	"errors"
	"net"
	"sync"
)

// Network is the in-memory transport fabric: the learner listens on it,
// workers dial it, and every connection is the two ends of a net.Pipe under
// the same framed codec TCP runs. cmd/train runs its learner and its worker
// on one (the single-process pipeline is the distributed one minus the
// sockets), and the package's tests run whole clusters on one. Listen may be
// called again after the active listener closes — that is how a
// learner-restart test rebinds the "address" while workers keep redialing
// the same fabric.
type Network struct {
	mu       sync.Mutex
	listener *memListener
}

// NewNetwork creates an empty fabric.
func NewNetwork() *Network { return &Network{} }

// InProcess joins a learner and one worker on a fresh Network, as cmd/train
// runs them by default: a round is the worker's fleet of games, and the
// worker plays exactly the learner's rounds, so no generated game goes unused
// at the end of a run. It sets wcfg's Dial and Rounds and lcfg's RoundGames.
func InProcess(lcfg LearnerConfig, wcfg WorkerConfig) (*Learner, *Worker, error) {
	fabric := NewNetwork()
	wcfg.Dial = fabric.Dialer()
	wcfg.Rounds = lcfg.Loop.Rounds
	worker, err := NewWorker(wcfg)
	if err != nil {
		return nil, nil, err
	}
	lis, err := fabric.Listen()
	if err != nil {
		return nil, nil, err
	}
	lcfg.RoundGames = worker.cfg.Games
	learner, err := NewLearner(lis, lcfg)
	return learner, worker, err
}

// Listen binds the fabric's single learner endpoint. It fails while a
// previous listener is still open.
func (n *Network) Listen() (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener != nil && !n.listener.closed() {
		return nil, errors.New("dist: fabric already has a listener")
	}
	l := &memListener{accept: make(chan net.Conn), done: make(chan struct{})}
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
		if l == nil {
			return nil, errors.New("dist: connection refused (no listener)")
		}
		worker, learner := net.Pipe()
		select {
		case l.accept <- learner:
			return newFrameConn(worker), nil
		case <-l.done:
			return nil, errors.New("dist: connection refused (listener closed)")
		}
	}
}

type memListener struct {
	accept chan net.Conn

	once sync.Once
	done chan struct{}
}

// Accept fails with net.ErrClosed once the listener is closed, as a closed
// TCP listener does.
func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return newFrameConn(c), nil
	case <-l.done:
		return nil, net.ErrClosed
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
