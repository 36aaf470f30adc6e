// Package dist splits the continuous training loop across processes: N
// worker processes each run a self-play fleet (internal/selfplay.Driver,
// swapping models only between rounds, so a worker finishes its games on
// the model it started them with) and stream finished
// trajectories to one learner that owns SGD, checkpoint commits and
// arena-gated promotion, fanning promoted checkpoints back out to every
// connected worker.
//
// The wire reuses the repo's existing durable formats as its payloads:
// trajectories travel as internal/trajstore episode frames (length prefix
// + FNV-64a checksum + episode codec — byte-identical to a segment frame),
// and checkpoints travel as an internal/checkpoint manifest plus the raw
// weight bytes its checksum covers. Both ends re-validate every checksum,
// so a torn or corrupted transfer is rejected exactly like a torn segment
// or a corrupted checkpoint on disk.
//
// The transport is one length-prefixed frame codec over a net.Conn: a TCP
// socket between processes (ListenTCP/TCPDialer) and a net.Pipe inside one
// (NewNetwork: cmd/train is a learner and one worker on it, and the tests
// run whole clusters on it). Workers reconnect with exponential backoff and
// keep generating while disconnected (bounded episode buffering); the
// learner treats every worker connection as disposable — a dead worker
// never stalls the round barrier, and a restarted learner resumes from the
// checkpoint store and the durable replay directory while workers redial.
package dist

// Message types on the wire. The protocol is deliberately tiny: a worker
// announces itself, streams episodes, and receives checkpoints.
const (
	// msgHello is the worker's first message on every (re)connection:
	// a JSON Hello identifying the worker and its game spec.
	msgHello = byte(1)
	// msgEpisode carries one finished self-play game:
	// [8B LE generating model version][trajstore episode frame].
	msgEpisode = byte(2)
	// msgCheckpoint carries one model snapshot:
	// [4B LE manifest length][manifest JSON][raw weight bytes].
	msgCheckpoint = byte(3)
)

// Msg is one framed protocol message.
type Msg struct {
	Type    byte
	Payload []byte
}

// Conn is one bidirectional message link between a worker and the learner.
// Send is safe for concurrent use (the learner broadcasts checkpoints from
// the promotion path while the per-connection handler may be replying to a
// hello); Recv is single-consumer. Close unblocks both sides.
type Conn interface {
	Send(m Msg) error
	Recv() (Msg, error)
	Close() error
}

// Listener accepts worker connections on the learner side.
type Listener interface {
	Accept() (Conn, error)
	// Addr reports the bound address (for logging and tests).
	Addr() string
	Close() error
}

// Dialer opens a fresh connection to the learner. Workers call it on every
// reconnection attempt, so implementations must be reusable.
type Dialer func() (Conn, error)
