package checkpoint

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/nn"
	"github.com/parmcts/parmcts/internal/rng"
)

func testNet(t *testing.T, seed uint64) *nn.Network {
	t.Helper()
	net, err := nn.New(nn.TinyConfig(2, 5, 5, 25), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// forwardAll runs a fixed set of probe inputs, one Forward each, and returns
// the raw policy/value outputs.
func forwardAll(net *nn.Network, batch int) ([][]float32, []float64) {
	policies := make([][]float32, batch)
	values := make([]float64, batch)
	ws := nn.NewForwardWorkspace(net)
	r := rng.New(99)
	for i := range policies {
		in := make([]float32, 2*5*5)
		for j := range in {
			if r.Float64() < 0.3 {
				in[j] = 1
			}
		}
		policies[i] = make([]float32, 25)
		values[i] = net.Forward(ws, in, policies[i])
	}
	return policies, values
}

// TestCheckpointRoundTripBitwise saves and reloads a network and requires
// the reloaded model's Forward outputs to be bit-for-bit identical to
// the original's — the property the hot swap relies on when a restarted
// service resumes from disk.
func TestCheckpointRoundTripBitwise(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 7)
	m, err := store.Save(net, Manifest{Step: 42, Rounds: 3, Samples: 512, Game: "test-5"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 {
		t.Fatalf("first save assigned version %d, want 1", m.Version)
	}
	loaded, lm, err := store.LoadVersion(m.Version)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Step != 42 || lm.Rounds != 3 || lm.Samples != 512 || lm.Game != "test-5" {
		t.Fatalf("manifest metadata lost: %+v", lm)
	}
	wantP, wantV := forwardAll(net, 8)
	gotP, gotV := forwardAll(loaded, 8)
	for i := range wantP {
		if math.Float64bits(wantV[i]) != math.Float64bits(gotV[i]) {
			t.Fatalf("value %d not bitwise identical: %v vs %v", i, wantV[i], gotV[i])
		}
		for j := range wantP[i] {
			if math.Float32bits(wantP[i][j]) != math.Float32bits(gotP[i][j]) {
				t.Fatalf("policy (%d,%d) not bitwise identical: %v vs %v", i, j, wantP[i][j], gotP[i][j])
			}
		}
	}
}

// TestCheckpointLoadLatestOrdering commits three distinct networks and
// checks version enumeration and that LoadLatest restores exactly the last
// one.
func TestCheckpointLoadLatestOrdering(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty store Latest err = %v, want ErrEmpty", err)
	}
	nets := []*nn.Network{testNet(t, 1), testNet(t, 2), testNet(t, 3)}
	for i, net := range nets {
		m, err := store.Save(net, Manifest{Step: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != int64(i+1) {
			t.Fatalf("save %d assigned version %d", i, m.Version)
		}
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("versions = %v, want [1 2 3]", vs)
	}
	loaded, m, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || m.Step != 2 {
		t.Fatalf("LoadLatest manifest = %+v, want version 3 step 2", m)
	}
	wantP, wantV := forwardAll(nets[2], 4)
	gotP, gotV := forwardAll(loaded, 4)
	if math.Float64bits(wantV[0]) != math.Float64bits(gotV[0]) ||
		math.Float32bits(wantP[0][0]) != math.Float32bits(gotP[0][0]) {
		t.Fatal("LoadLatest did not restore the last committed network")
	}
}

// TestCheckpointCorruptManifestRejected covers garbage and truncation in
// the manifest file.
func TestCheckpointCorruptManifestRejected(t *testing.T) {
	dir := t.TempDir()
	store, _ := NewStore(dir)
	m, err := store.Save(testNet(t, 5), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestName(m.Version))

	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err == nil {
		t.Fatal("garbage manifest accepted")
	}

	raw, _ := os.ReadFile(filepath.Join(dir, m.WeightsFile))
	_ = raw
	if err := os.WriteFile(path, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err == nil {
		t.Fatal("truncated manifest accepted")
	}

	// A manifest claiming the wrong version is also rejected.
	if err := os.WriteFile(path, []byte(`{"version":9,"weights_file":"v000001.net","checksum":"00"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err == nil {
		t.Fatal("version-mismatched manifest accepted")
	}
}

// TestCheckpointTruncatedWeightsRejected covers torn weights files: the
// checksum recorded at commit time must catch both truncation and bit rot.
func TestCheckpointTruncatedWeightsRejected(t *testing.T) {
	dir := t.TempDir()
	store, _ := NewStore(dir)
	m, err := store.Save(testNet(t, 5), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	wpath := filepath.Join(dir, m.WeightsFile)
	raw, err := os.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(wpath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err == nil {
		t.Fatal("truncated weights accepted")
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/3] ^= 0x40
	if err := os.WriteFile(wpath, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err == nil {
		t.Fatal("bit-flipped weights accepted")
	}

	if err := os.WriteFile(wpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadVersion(m.Version); err != nil {
		t.Fatalf("restored weights rejected: %v", err)
	}
}

// TestCheckpointOrphanedWeightsInvisible simulates a crash between the
// weights rename and the manifest rename: the half-saved version must not
// be enumerated or loaded.
func TestCheckpointOrphanedWeightsInvisible(t *testing.T) {
	dir := t.TempDir()
	store, _ := NewStore(dir)
	if _, err := store.Save(testNet(t, 1), Manifest{}); err != nil {
		t.Fatal(err)
	}
	// Orphan: weights for v2 exist, manifest never committed.
	if err := os.WriteFile(filepath.Join(dir, weightsName(2)), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Stray tmp files must be invisible too.
	if err := os.WriteFile(filepath.Join(dir, manifestName(3)+".tmp-123"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("versions = %v, want [1]", vs)
	}
	if latest, err := store.Latest(); err != nil || latest != 1 {
		t.Fatalf("Latest = %d, %v", latest, err)
	}
}

// TestCheckpointExplicitVersionCollision: checkpoints are immutable.
func TestCheckpointExplicitVersionCollision(t *testing.T) {
	store, _ := NewStore(t.TempDir())
	if _, err := store.Save(testNet(t, 1), Manifest{Version: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(testNet(t, 2), Manifest{Version: 5}); err == nil {
		t.Fatal("overwriting a committed version succeeded")
	}
	// Auto-assignment continues past the explicit version.
	m, err := store.Save(testNet(t, 3), Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 6 {
		t.Fatalf("auto version after explicit 5 = %d, want 6", m.Version)
	}
}

// TestCheckpointConcurrentSaves exercises the store under parallel Save
// calls (run with -race in CI): versions must come out unique and all
// commits loadable.
func TestCheckpointConcurrentSaves(t *testing.T) {
	store, _ := NewStore(t.TempDir())
	const n = 8
	nets := make([]*nn.Network, n)
	for i := range nets {
		nets[i] = testNet(t, uint64(i+1))
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = store.Save(nets[i], Manifest{Note: fmt.Sprintf("writer %d", i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != n {
		t.Fatalf("committed %d versions, want %d", len(vs), n)
	}
	for _, v := range vs {
		if _, _, err := store.LoadVersion(v); err != nil {
			t.Fatalf("version %d unloadable: %v", v, err)
		}
	}
}

// TestLoadLatestSkipsCorruptLatest is the hardening regression: a store
// whose NEWEST checkpoint is corrupt (torn weights file, half-finished
// writer death) must fall back to the most recent checkpoint that still
// verifies instead of failing the whole restart. Only when every version
// is unloadable does LoadLatest report an error.
func TestLoadLatestSkipsCorruptLatest(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testNet(t, 11)
	if _, err := store.Save(good, Manifest{Step: 1}); err != nil {
		t.Fatal(err)
	}
	m2, err := store.Save(testNet(t, 12), Manifest{Step: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the latest version's weights to simulate a torn write that
	// happened after the manifest committed.
	wpath := filepath.Join(dir, weightsName(m2.Version))
	data, err := os.ReadFile(wpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wpath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, lm, err := store.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest with corrupt newest failed instead of falling back: %v", err)
	}
	if lm.Version != 1 || lm.Step != 1 {
		t.Fatalf("fell back to %+v, want version 1", lm)
	}
	wantP, wantV := forwardAll(good, 4)
	gotP, gotV := forwardAll(loaded, 4)
	if math.Float64bits(wantV[0]) != math.Float64bits(gotV[0]) ||
		math.Float32bits(wantP[0][0]) != math.Float32bits(gotP[0][0]) {
		t.Fatal("fallback did not restore the valid older network")
	}

	// Corrupt version 1 as well: now there is nothing valid left and the
	// error must surface (the newest failure, not ErrEmpty).
	w1 := filepath.Join(dir, weightsName(1))
	if err := os.WriteFile(w1, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadLatest(); err == nil {
		t.Fatal("LoadLatest succeeded with every version corrupt")
	} else if errors.Is(err, ErrEmpty) {
		t.Fatal("all-corrupt store reported ErrEmpty; should surface the load failure")
	}
}

func TestCheckGame(t *testing.T) {
	netFor := func(spec string) *nn.Network {
		g := games.MustNew(spec)
		c, h, w := g.EncodedShape()
		return nn.MustNew(nn.TinyConfig(c, h, w, g.NumActions()), rng.New(1))
	}
	for _, tc := range []struct {
		name      string
		net       string // the spec the network was built for
		trainedOn string // the manifest's Game field
		play      string // the spec it is asked to play
		wantErr   string // "" = fits
	}{
		{"own game", "gomoku:9", "gomoku:9", "gomoku:9", ""},
		{"untagged, same shape", "gomoku:9", "", "gomoku:9", ""},
		{"legacy manifest name", "gomoku:9", "gomoku-9", "gomoku:9", ""},
		{"same shape, different game", "hex:9", "hex:9", "gomoku:9", `trained on "hex:9", not gomoku`},
		{"untagged: only the shape can speak", "hex:9", "", "gomoku:9", ""},
		{"same game, different board", "gomoku:9", "gomoku:9", "gomoku:7", "does not match gomoku"},
		{"untagged, different action count", "othello", "", "gomoku:8", "does not match gomoku"},
	} {
		err := CheckGame(netFor(tc.net), tc.trainedOn, games.MustNew(tc.play))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}
