package dist

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

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

func TestTCPTransport(t *testing.T) {
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	type accepted struct {
		c   Conn
		err error
	}
	acceptCh := make(chan accepted, 1)
	go func() {
		c, aerr := lis.Accept()
		acceptCh <- accepted{c, aerr}
	}()

	client, err := TCPDialer(lis.Addr())()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv := <-acceptCh
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	defer srv.c.Close()

	// Full message round trips in both directions, including a payload big
	// enough to span many reads.
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	for _, m := range []Msg{{Type: msgHello, Payload: []byte(`{"worker_id":"w"}`)}, {Type: msgEpisode, Payload: big}} {
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
		got, err := srv.c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != m.Type || len(got.Payload) != len(m.Payload) {
			t.Fatalf("recv type=%d len=%d, want type=%d len=%d", got.Type, len(got.Payload), m.Type, len(m.Payload))
		}
	}
	if err := srv.c.Send(Msg{Type: msgCheckpoint, Payload: []byte("down")}); err != nil {
		t.Fatal(err)
	}
	if got, err := client.Recv(); err != nil || string(got.Payload) != "down" {
		t.Fatalf("server->client: %v %q", err, got.Payload)
	}

	// Concurrent senders must not interleave frames (Send is mutexed).
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
		m, err := srv.c.Recv()
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
}

func TestMemTransportClose(t *testing.T) {
	fabric := NewNetwork()
	lis, err := fabric.Listen()
	if err != nil {
		t.Fatal(err)
	}
	dial := fabric.Dialer()

	acceptCh := make(chan Conn, 1)
	go func() {
		c, _ := lis.Accept()
		acceptCh <- c
	}()
	client, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	srvConn := <-acceptCh

	if err := client.Send(Msg{Type: msgHello}); err != nil {
		t.Fatal(err)
	}
	if _, err := srvConn.Recv(); err != nil {
		t.Fatal(err)
	}
	// Closing one end unblocks and errors the peer, like a reset socket.
	client.Close()
	if _, err := srvConn.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer recv after close: %v, want ErrClosed", err)
	}
	if err := srvConn.Send(Msg{Type: msgCheckpoint}); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer send after close: %v, want ErrClosed", err)
	}

	// A closed listener refuses dials; a rebound one accepts again.
	lis.Close()
	if _, err := dial(); err == nil {
		t.Fatal("dial succeeded with listener closed")
	}
	lis2, err := fabric.Listen()
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	go func() {
		c, _ := lis2.Accept()
		acceptCh <- c
	}()
	if _, err := dial(); err != nil {
		t.Fatalf("dial after rebind: %v", err)
	}
	<-acceptCh
	lis2.Close()
}

// TestRecvAllocatesOnlyWhatArrives: a frame header is a claim, not a
// reservation. A peer that announces maxWireFrame bytes and hangs up must cost
// Recv an error and a bounded buffer, not the announced frame.
func TestRecvAllocatesOnlyWhatArrives(t *testing.T) {
	local, peer := net.Pipe()
	conn := newTCPConn(local)
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
