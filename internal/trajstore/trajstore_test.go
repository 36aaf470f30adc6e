package trajstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/parmcts/parmcts/internal/faultfs"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

// testEpisode builds a deterministic episode: episode seq's content is a
// pure function of seq, so recovered stores can be verified frame by frame.
func testEpisode(seq int) Episode {
	r := rng.New(uint64(seq)*2654435761 + 1)
	ep := Episode{
		Moves:  4 + seq%5,
		Winner: game.Player(seq%3 - 1),
	}
	for i := 0; i < 3+seq%4; i++ {
		in := make([]float32, 8)
		pol := make([]float32, 4)
		for j := range in {
			in[j] = r.Float32()
		}
		for j := range pol {
			pol[j] = r.Float32()
		}
		ep.Samples = append(ep.Samples, nn.Sample{Input: in, Policy: pol, Value: float64(r.Float32())*2 - 1})
	}
	return ep
}

func sameEpisode(a, b Episode) bool {
	if a.Moves != b.Moves || a.Winner != b.Winner || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		as, bs := a.Samples[i], b.Samples[i]
		if as.Value != bs.Value || len(as.Input) != len(bs.Input) || len(as.Policy) != len(bs.Policy) {
			return false
		}
		for j := range as.Input {
			if as.Input[j] != bs.Input[j] {
				return false
			}
		}
		for j := range as.Policy {
			if as.Policy[j] != bs.Policy[j] {
				return false
			}
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	for seq := 0; seq < 20; seq++ {
		ep := testEpisode(seq)
		got, err := decodeEpisode(encodeEpisode(ep))
		if err != nil {
			t.Fatalf("episode %d: %v", seq, err)
		}
		if !sameEpisode(ep, got) {
			t.Fatalf("episode %d did not round-trip", seq)
		}
	}
	// Empty episode (zero samples) round-trips too.
	got, err := decodeEpisode(encodeEpisode(Episode{Moves: 0, Winner: 0}))
	if err != nil || len(got.Samples) != 0 {
		t.Fatalf("empty episode: %v, %d samples", err, len(got.Samples))
	}
}

func TestAppendGetAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 3})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if s.Games() != n {
		t.Fatalf("games = %d, want %d", s.Games(), n)
	}
	for i := 0; i < n; i++ {
		ep, err := s.Get(i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !sameEpisode(ep, testEpisode(i)) {
			t.Fatalf("episode %d content mismatch", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// 10 episodes at 3/segment: 3 sealed + the closing seal of the 1-game
	// active remnant.
	entries, _ := os.ReadDir(dir)
	sealedCount := 0
	for _, e := range entries {
		var id int64
		if matchSeg(e.Name(), ".traj", &id) {
			sealedCount++
		}
	}
	if sealedCount != 4 {
		t.Fatalf("sealed segments = %d, want 4", sealedCount)
	}
}

func TestReopenRecoversEverythingCommitted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 11
	for i := 0; i < n; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate an abrupt exit with an unsealed active segment.
	s.mu.Lock()
	if s.activeF != nil {
		s.activeF.Close()
		s.activeF = nil
	}
	s.mu.Unlock()

	re, err := Open(dir, Config{SegmentGames: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Games() != n {
		t.Fatalf("reopened games = %d, want %d", re.Games(), n)
	}
	for i := 0; i < n; i++ {
		ep, err := re.Get(i)
		if err != nil {
			t.Fatalf("get %d after reopen: %v", i, err)
		}
		if !sameEpisode(ep, testEpisode(i)) {
			t.Fatalf("episode %d mismatch after reopen", i)
		}
	}
	// And appends continue where they left off.
	if err := re.Append(testEpisode(n)); err != nil {
		t.Fatal(err)
	}
	if re.Games() != n+1 {
		t.Fatalf("games after continued append = %d", re.Games())
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 100})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // seals to seg-1.traj

	// Tear the sealed segment: append half a frame's worth of garbage.
	path := filepath.Join(dir, segSealedName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 9, 9, 9, 9, 9, 9})
	f.Close()

	re, err := Open(dir, Config{SegmentGames: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Games() != n {
		t.Fatalf("reopened games = %d, want %d (torn tail truncated)", re.Games(), n)
	}
	if rec := re.Recovery(); rec.TornBytes != 7 {
		t.Fatalf("recovery reported %d torn bytes, want 7", rec.TornBytes)
	}
	for i := 0; i < n; i++ {
		if _, err := re.Get(i); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
}

func TestCorruptManifestRebuiltFromScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// The manifest is an accelerator, not the only truth: garbage in it
	// must not lose committed segments.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Config{SegmentGames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Recovery().ManifestRebuilt {
		t.Fatal("recovery did not report a manifest rebuild")
	}
	if re.Games() != n {
		t.Fatalf("games after manifest rebuild = %d, want %d", re.Games(), n)
	}
	for i := 0; i < n; i++ {
		if ep, err := re.Get(i); err != nil || !sameEpisode(ep, testEpisode(i)) {
			t.Fatalf("episode %d lost or corrupted after manifest rebuild (%v)", i, err)
		}
	}
}

func TestUnmanifestedSealedSegmentAdopted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crash between seal-rename and manifest write: delete the
	// manifest entirely.
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Config{SegmentGames: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovery().AdoptedSegments != 2 {
		t.Fatalf("adopted = %d, want 2", re.Recovery().AdoptedSegments)
	}
	if re.Games() != 4 {
		t.Fatalf("games = %d, want 4", re.Games())
	}
}

func TestWriteErrorDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjected(faultfs.OS)
	s, err := Open(dir, Config{SegmentGames: 100, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fail the next fsync: that append must error and degrade the store.
	inj.Script(faultfs.Fault{Op: faultfs.OpSync, At: 4, Mode: faultfs.Fail})
	if err := s.Append(testEpisode(3)); err == nil {
		t.Fatal("append with failed fsync reported success")
	}
	if !s.ReadOnly() || s.Err() == nil {
		t.Fatal("store did not degrade to read-only")
	}
	if err := s.Append(testEpisode(4)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append on degraded store: %v, want ErrReadOnly", err)
	}
	// Reads still work: training continues sampling what is committed.
	if s.Games() != 3 {
		t.Fatalf("games = %d, want the 3 acknowledged", s.Games())
	}
	if _, err := s.Get(2); err != nil {
		t.Fatalf("read on degraded store: %v", err)
	}
	s.Close()

	// The acknowledged episodes survive a reopen; the unacknowledged 4th
	// is either absent or truncated away, never half-present.
	re, err := Open(dir, Config{SegmentGames: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Games() < 3 {
		t.Fatalf("reopen lost acknowledged games: %d < 3", re.Games())
	}
	for i := 0; i < re.Games(); i++ {
		if ep, err := re.Get(i); err != nil || !sameEpisode(ep, testEpisode(i)) {
			t.Fatalf("episode %d wrong after degraded run (%v)", i, err)
		}
	}
}

func TestSealRenameFailureKeepsDataRecoverable(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjected(faultfs.OS).Script(faultfs.Fault{Op: faultfs.OpRename, At: 1, Mode: faultfs.Fail})
	s, err := Open(dir, Config{SegmentGames: 3, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 3; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			break // the 3rd append triggers the seal whose rename fails
		}
		acked++
	}
	if !s.ReadOnly() {
		t.Fatal("failed seal rename did not degrade the store")
	}
	s.Close()
	re, err := Open(dir, Config{SegmentGames: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Every append that was fsync-acknowledged survives even though the
	// seal never completed — the .open segment is recovered as-is. The
	// 3rd append's frame was durably written before the seal step failed,
	// so it may legitimately exceed acked.
	if re.Games() < acked {
		t.Fatalf("reopen lost games: %d < %d acked", re.Games(), acked)
	}
	for i := 0; i < re.Games(); i++ {
		if ep, err := re.Get(i); err != nil || !sameEpisode(ep, testEpisode(i)) {
			t.Fatalf("episode %d wrong after failed seal (%v)", i, err)
		}
	}
}

func TestDroppedWriteNeverServesTornFrames(t *testing.T) {
	// A lying disk (write acknowledged, nothing persisted) cannot be
	// detected at append time. The guarantee is weaker and still vital: no
	// reader — in-process or after reopen — ever gets back a frame whose
	// checksum fails, and recovery never resurrects bytes past a hole.
	dir := t.TempDir()
	inj := faultfs.NewInjected(faultfs.OS).Script(faultfs.Fault{Op: faultfs.OpWrite, At: 4, Mode: faultfs.Drop})
	s, err := Open(dir, Config{SegmentGames: 100, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	// Write 1 is the magic; writes 2..6 are episodes 0..4; write 4
	// (episode 2) is silently dropped.
	for i := 0; i < 5; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatalf("append %d: %v (drops are silent)", i, err)
		}
	}
	// In-process reads past the hole must error (checksum/decode), never
	// return wrong-but-plausible frames silently... except the frame that
	// slid into the hole's place, which is a VALID frame (episode 3's) —
	// identity is not protected against lying disks, integrity is.
	for i := 0; i < 5; i++ {
		ep, err := s.Get(i)
		if err != nil {
			continue
		}
		found := false
		for j := 0; j < 5; j++ {
			if sameEpisode(ep, testEpisode(j)) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("get %d returned a frame that matches no appended episode", i)
		}
	}
	s.mu.Lock()
	s.activeF.Close()
	s.activeF = nil
	s.mu.Unlock()

	re, err := Open(dir, Config{SegmentGames: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Four frames physically exist (0,1,3,4 contiguously); all must verify.
	if re.Games() != 4 {
		t.Fatalf("recovered %d games, want 4 (one silently dropped)", re.Games())
	}
	want := []int{0, 1, 3, 4}
	for i, seq := range want {
		ep, err := re.Get(i)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !sameEpisode(ep, testEpisode(seq)) {
			t.Fatalf("recovered episode %d is not appended episode %d", i, seq)
		}
	}
}

func TestRetentionDropsOldestSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 2, Retain: Retention{MaxGames: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	if g := s.Games(); g > 6 {
		// 4 retained across sealed segments plus up to one active segment.
		t.Fatalf("retention kept %d games, want <= 6", g)
	}
	// The newest episodes survive; the oldest are gone.
	last, err := s.Get(s.Games() - 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEpisode(last, testEpisode(9)) {
		t.Fatal("newest episode lost by retention")
	}
	s.Close()

	// Reopen: watermark honored, no resurrection of dropped segments.
	re, err := Open(dir, Config{SegmentGames: 2, Retain: Retention{MaxGames: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	first, err := re.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if sameEpisode(first, testEpisode(0)) {
		t.Fatal("dropped episode resurrected after reopen")
	}
}

func TestRetentionByAge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Backdate the sealed segments' manifest timestamps.
	st, _ := Open(dir, Config{SegmentGames: 2})
	st.mu.Lock()
	for i := range st.man.Segments {
		st.man.Segments[i].SealedAtUnix = time.Now().Add(-time.Hour).Unix()
	}
	st.writeManifestLocked()
	st.mu.Unlock()
	st.Close()

	re, err := Open(dir, Config{SegmentGames: 2, Retain: Retention{MaxAge: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Games() != 0 {
		t.Fatalf("age retention kept %d games, want 0", re.Games())
	}
}

func TestGameTagGuardsResume(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Config{Game: "othello"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testEpisode(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, Config{Game: "hex"}); err == nil {
		t.Fatal("store tagged othello resumed as hex")
	}
	re, err := Open(dir, Config{Game: "othello"})
	if err != nil {
		t.Fatalf("matching tag rejected: %v", err)
	}
	re.Close()
}

func TestGetWhileAppendingUnderRace(t *testing.T) {
	// The learner reads stored episodes back (Get) on one goroutine while
	// its ingest path appends on another: the store must serve both
	// concurrently, and a committed episode must read back intact across
	// segment seals. Run with -race.
	dir := t.TempDir()
	s, err := Open(dir, Config{SegmentGames: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Append(testEpisode(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 10; i < 40; i++ {
			if err := s.Append(testEpisode(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		j := r.Intn(s.Games())
		ep, err := s.Get(j)
		if err != nil {
			t.Fatal(err)
		}
		if !sameEpisode(ep, testEpisode(j)) {
			t.Fatalf("episode %d read back different under concurrent appends", j)
		}
	}
	<-done
	if s.Games() != 40 {
		t.Fatalf("games = %d, want 40", s.Games())
	}
}
