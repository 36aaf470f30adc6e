package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxWireFrame bounds one message on the TCP transport. Checkpoints are the
// largest payload (manifest + full weight vector); 256 MiB leaves headroom
// for any network this repo can train while still rejecting a desynced or
// hostile length prefix before it allocates.
const maxWireFrame = 256 << 20

// recvStep is the first buffer Recv allocates for a payload.
const recvStep = 64 << 10

// tcpConn frames Msgs over a net.Conn as [1B type][4B LE length][payload].
// Reads are buffered; writes are serialized by a mutex so the learner's
// checkpoint broadcast and its per-connection replies never interleave
// bytes on the wire.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, 1<<16)}
}

func (t *tcpConn) Send(m Msg) error {
	if len(m.Payload) > maxWireFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, len(m.Payload))
	}
	var hdr [5]byte
	hdr[0] = m.Type
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.Payload)))
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	_, err := t.c.Write(m.Payload)
	return err
}

func (t *tcpConn) Recv() (Msg, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(t.br, hdr[:]); err != nil {
		return Msg{}, err
	}
	plen := int(binary.LittleEndian.Uint32(hdr[1:]))
	if plen > maxWireFrame {
		return Msg{}, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, plen)
	}
	// The length prefix is a claim, not a reservation: the buffer starts at
	// recvStep and doubles only once the bytes already read fill it, so a peer
	// that announces maxWireFrame bytes and sends none costs one step.
	payload := make([]byte, min(plen, recvStep))
	for read := 0; ; {
		if _, err := io.ReadFull(t.br, payload[read:]); err != nil {
			return Msg{}, err
		}
		if read = len(payload); read == plen {
			return Msg{Type: hdr[0], Payload: payload}, nil
		}
		payload = append(payload, make([]byte, min(read, plen-read))...)
	}
}

func (t *tcpConn) Close() error { return t.c.Close() }

// tcpListener adapts a net.Listener to the transport seam.
type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }
func (t *tcpListener) Close() error { return t.l.Close() }

// ListenTCP binds the learner's TCP endpoint. addr follows net.Listen
// ("host:port"; ":0" picks a free port, reported by Addr).
func ListenTCP(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// TCPDialer returns a Dialer that opens a fresh TCP connection to addr on
// every call — the worker's reconnect loop invokes it per attempt.
func TCPDialer(addr string) Dialer {
	return func() (Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return newTCPConn(c), nil
	}
}
