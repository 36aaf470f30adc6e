package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// maxWireFrame bounds one message on the wire. Checkpoints are the largest
// payload (manifest + full weight vector); 256 MiB leaves headroom for any
// network this repo can train while still rejecting a desynced or hostile
// length prefix before it allocates.
const maxWireFrame = 256 << 20

// recvStep is the first buffer Recv allocates for a payload.
const recvStep = 64 << 10

// frameConn frames Msgs over a net.Conn as [1B type][4B LE length][payload]:
// a TCP socket between processes, one end of a net.Pipe inside one. Reads
// are buffered. A one-slot channel token serializes writes, so the learner's
// checkpoint broadcast and its replies never interleave bytes, and a queued
// sender is durably blocked under testing/synctest (behind a mutex it is not).
type frameConn struct {
	c  net.Conn
	br *bufio.Reader

	wtok chan struct{}
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, br: bufio.NewReaderSize(c, 1<<16), wtok: make(chan struct{}, 1)}
}

func (t *frameConn) Send(m Msg) error {
	if len(m.Payload) > maxWireFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, len(m.Payload))
	}
	var hdr [5]byte
	hdr[0] = m.Type
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.Payload)))
	t.wtok <- struct{}{}
	defer func() { <-t.wtok }()
	if _, err := t.c.Write(hdr[:]); err != nil {
		return err
	}
	// An empty Write on a net.Pipe blocks until the peer's next Read, and
	// Recv makes none for an empty payload.
	if len(m.Payload) == 0 {
		return nil
	}
	_, err := t.c.Write(m.Payload)
	return err
}

func (t *frameConn) Recv() (Msg, error) {
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

func (t *frameConn) Close() error { return t.c.Close() }

// tcpListener adapts a net.Listener to the transport seam.
type tcpListener struct {
	l net.Listener
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newFrameConn(c), nil
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
		return newFrameConn(c), nil
	}
}
