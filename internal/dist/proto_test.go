package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/checkpoint"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
	"github.com/parmcts/parmcts/internal/trajstore"
)

func testEpisode() trajstore.Episode {
	return trajstore.Episode{
		Moves:  3,
		Winner: game.P1,
		Samples: []nn.Sample{
			{Input: []float32{1, 2, 3, 4}, Policy: []float32{0.25, 0.75}, Value: 0.5},
			{Input: []float32{5, 6, 7, 8}, Policy: []float32{0.5, 0.5}, Value: -1},
		},
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{WorkerID: "w1", GameSpec: "tictactoe", Games: 4, HaveVersion: 7}
	m, err := encodeHello(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeHello(m)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := decodeHello(Msg{Type: msgEpisode}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("wrong-type decode: err=%v, want ErrProtocol", err)
	}
}

func TestEpisodeRoundTrip(t *testing.T) {
	ep := testEpisode()
	m := encodeEpisode(42, ep)
	version, out, err := decodeEpisode(m)
	if err != nil {
		t.Fatal(err)
	}
	if version != 42 {
		t.Fatalf("version %d, want 42", version)
	}
	if out.Moves != ep.Moves || out.Winner != ep.Winner || len(out.Samples) != len(ep.Samples) {
		t.Fatalf("episode mangled: %+v", out)
	}
	if out.Samples[1].Value != -1 || out.Samples[0].Policy[1] != 0.75 {
		t.Fatalf("sample data mangled: %+v", out.Samples)
	}
}

// TestEpisodeCorruptionRejected is the learner-side re-validation contract:
// any flipped bit in the frame body must fail the checksum, and a truncated
// message must fail framing — neither may produce an episode.
func TestEpisodeCorruptionRejected(t *testing.T) {
	m := encodeEpisode(1, testEpisode())
	for _, off := range []int{8, 20, len(m.Payload) - 1} {
		corrupt := Msg{Type: m.Type, Payload: append([]byte(nil), m.Payload...)}
		corrupt.Payload[off] ^= 0x40
		if _, _, err := decodeEpisode(corrupt); err == nil {
			t.Fatalf("flipped byte at %d decoded cleanly", off)
		}
	}
	for _, n := range []int{0, 4, 9, len(m.Payload) - 3} {
		trunc := Msg{Type: m.Type, Payload: m.Payload[:n]}
		if _, _, err := decodeEpisode(trunc); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 3, 3, 9), rng.New(1))
	raw, sum, err := checkpoint.EncodeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	man := checkpoint.Manifest{Version: 3, Checksum: sum, Game: "tictactoe"}
	m, err := encodeCheckpoint(man, raw)
	if err != nil {
		t.Fatal(err)
	}
	gotMan, gotNet, err := decodeCheckpoint(m)
	if err != nil {
		t.Fatal(err)
	}
	if gotMan.Version != 3 || gotMan.Checksum != sum {
		t.Fatalf("manifest mangled: %+v", gotMan)
	}
	raw2, sum2, err := checkpoint.EncodeNetwork(gotNet)
	if err != nil {
		t.Fatal(err)
	}
	if sum2 != sum || len(raw2) != len(raw) {
		t.Fatalf("decoded network re-encodes to %s (%d bytes), want %s (%d bytes)", sum2, len(raw2), sum, len(raw))
	}
}

// TestCheckpointCorruptionRejected: a bit flip anywhere in the weight bytes
// must be caught by the manifest checksum before a network is built.
func TestCheckpointCorruptionRejected(t *testing.T) {
	net := nn.MustNew(nn.TinyConfig(2, 3, 3, 9), rng.New(1))
	raw, sum, err := checkpoint.EncodeNetwork(net)
	if err != nil {
		t.Fatal(err)
	}
	man := checkpoint.Manifest{Version: 3, Checksum: sum}
	m, err := encodeCheckpoint(man, raw)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := Msg{Type: m.Type, Payload: append([]byte(nil), m.Payload...)}
	corrupt.Payload[len(corrupt.Payload)-5] ^= 0x01
	if _, _, err := decodeCheckpoint(corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped weight byte: err=%v, want checksum mismatch", err)
	}
	if _, _, err := decodeCheckpoint(Msg{Type: msgCheckpoint, Payload: []byte{1, 2}}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("truncated header: err=%v, want ErrProtocol", err)
	}
}

// accept dials lis and returns the two ends of the connection.
func accept(t *testing.T, lis Listener, dial Dialer) (client, srv Conn) {
	t.Helper()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if srv = <-accepted; srv == nil {
		t.FailNow()
	}
	return client, srv
}

// transfer sends msgs on from while to receives them, concurrently as an
// unbuffered pipe requires, and checks each arrives intact and each Send
// returns.
func transfer(t *testing.T, from, to Conn, msgs ...Msg) {
	t.Helper()
	sent := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := from.Send(m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for _, m := range msgs {
		got, err := to.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("recv type=%d len=%d, want type=%d len=%d", got.Type, len(got.Payload), m.Type, len(m.Payload))
		}
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send still blocked after its frame was received")
	}
}

// TestTransportContract holds both fabrics to one contract: frames of any
// size, empty ones included, cross in both directions; concurrent senders
// never interleave frames; a closed peer reads as io.EOF and refuses sends;
// and a closed listener fails Accept with net.ErrClosed.
func TestTransportContract(t *testing.T) {
	fabrics := []struct {
		name   string
		listen func(t *testing.T) (Listener, Dialer)
	}{
		{"tcp", func(t *testing.T) (Listener, Dialer) {
			lis, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return lis, TCPDialer(lis.Addr())
		}},
		{"mem", func(t *testing.T) (Listener, Dialer) {
			fabric := NewNetwork()
			lis, err := fabric.Listen()
			if err != nil {
				t.Fatal(err)
			}
			return lis, fabric.Dialer()
		}},
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			lis, dial := f.listen(t)
			defer lis.Close()
			client, srv := accept(t, lis, dial)
			defer client.Close()
			defer srv.Close()

			// The empty payload goes last: a Send that left an unread Write
			// behind it would then never return.
			msgs := []Msg{
				{Type: msgHello, Payload: []byte(`{"worker_id":"w"}`)},
				{Type: msgEpisode, Payload: big},
				{Type: msgCheckpoint, Payload: []byte{}},
			}
			transfer(t, client, srv, msgs...)
			transfer(t, srv, client, msgs...)

			// Concurrent senders must not interleave frames.
			const perSender, senders = 50, 4
			done := make(chan error, senders)
			for s := 0; s < senders; s++ {
				go func(s int) {
					for i := 0; i < perSender; i++ {
						if err := client.Send(encodeEpisode(int64(s), testEpisode())); err != nil {
							done <- err
							return
						}
					}
					done <- nil
				}(s)
			}
			for i := 0; i < senders*perSender; i++ {
				m, err := srv.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := decodeEpisode(m); err != nil {
					t.Fatalf("frame %d corrupted by interleaving: %v", i, err)
				}
			}
			for s := 0; s < senders; s++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}

			// Closing one end ends the peer's stream and refuses its sends. A
			// TCP peer learns of the reset only after a write reaches it.
			client.Close()
			if _, err := srv.Recv(); !errors.Is(err, io.EOF) {
				t.Fatalf("peer recv after close: %v, want io.EOF", err)
			}
			var err error
			for i := 0; i < 100 && err == nil; i++ {
				err = srv.Send(Msg{Type: msgCheckpoint, Payload: []byte("down")})
			}
			if err == nil {
				t.Fatal("peer sends after close kept succeeding")
			}

			lis.Close()
			if _, err := lis.Accept(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("accept on a closed listener: %v, want net.ErrClosed", err)
			}
		})
	}
}

// TestNetworkRebind: the in-memory fabric refuses dials while unbound and
// after its listener closes, refuses a second listener while one is open, and
// accepts again once rebound — a restarted learner's address.
func TestNetworkRebind(t *testing.T) {
	fabric := NewNetwork()
	dial := fabric.Dialer()
	if _, err := dial(); err == nil {
		t.Fatal("dial succeeded with no listener bound")
	}
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Listen(); err == nil {
		t.Fatal("second listener bound while the first is open")
	}
	lis.Close()
	if _, err := dial(); err == nil {
		t.Fatal("dial succeeded with listener closed")
	}
	lis2, err := fabric.Listen()
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	defer lis2.Close()
	client, srv := accept(t, lis2, dial)
	client.Close()
	srv.Close()
}

// frameBytes is what Send writes on the wire for m.
func frameBytes(tb testing.TB, m Msg) []byte {
	local, peer := net.Pipe()
	sent := make(chan error, 1)
	go func() {
		sent <- newFrameConn(local).Send(m)
		local.Close()
	}()
	raw, err := io.ReadAll(peer)
	if err != nil {
		tb.Fatal(err)
	}
	if err := <-sent; err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzDecodeMsg feeds Recv arbitrary bytes through a net.Pipe, as a peer
// could. Every frame it returns must have arrived whole, within
// maxWireFrame, and re-encode through Send to exactly the bytes it consumed;
// every payload must decode to a value or an error under each message type,
// never a panic.
func FuzzDecodeMsg(f *testing.F) {
	hello, err := encodeHello(Hello{WorkerID: "w", GameSpec: "tictactoe", Games: 2, HaveVersion: 1})
	if err != nil {
		f.Fatal(err)
	}
	raw, sum, err := checkpoint.EncodeNetwork(nn.MustNew(nn.TinyConfig(2, 3, 3, 9), rng.New(1)))
	if err != nil {
		f.Fatal(err)
	}
	ckpt, err := encodeCheckpoint(checkpoint.Manifest{Version: 3, Checksum: sum, Game: "tictactoe"}, raw)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []Msg{hello, encodeEpisode(42, testEpisode()), ckpt} {
		f.Add(frameBytes(f, m))
	}
	hostile := []byte{msgCheckpoint, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hostile[1:], maxWireFrame+1)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		local, peer := net.Pipe()
		conn := newFrameConn(local)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			peer.Write(data)
			peer.Close()
		}()
		defer func() {
			conn.Close() // unblocks the writer when Recv stops early
			<-wrote
		}()
		for off := 0; ; {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			n := 5 + len(m.Payload)
			if len(m.Payload) > maxWireFrame || n > len(data)-off {
				t.Fatalf("frame at %d: %d-byte payload from %d bytes left", off, len(m.Payload), len(data)-off)
			}
			if got := frameBytes(t, m); !bytes.Equal(got, data[off:off+n]) {
				t.Fatalf("frame at %d re-encodes to %x, consumed %x", off, got, data[off:off+n])
			}
			off += n
			decodeHello(Msg{Type: msgHello, Payload: m.Payload})
			decodeEpisode(Msg{Type: msgEpisode, Payload: m.Payload})
			decodeCheckpoint(Msg{Type: msgCheckpoint, Payload: m.Payload})
		}
	})
}

// TestRecvAllocatesOnlyWhatArrives: a frame header is a claim, not a
// reservation. A peer that announces maxWireFrame bytes and hangs up must cost
// Recv an error and a bounded buffer, not the announced frame.
func TestRecvAllocatesOnlyWhatArrives(t *testing.T) {
	local, peer := net.Pipe()
	conn := newFrameConn(local)
	defer conn.Close()
	go func() {
		var hdr [5]byte
		hdr[0] = msgCheckpoint
		binary.LittleEndian.PutUint32(hdr[1:], maxWireFrame)
		peer.Write(hdr[:])
		peer.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := conn.Recv()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Recv of a frame that never arrived returned no error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Recv allocated %d bytes for a frame that never arrived", grew)
	}
}
