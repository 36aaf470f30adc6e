// Package checkpoint persists versioned network snapshots — the durable
// half of the model lifecycle. A trained network no longer dies with the
// process: each promotion writes an immutable, numbered checkpoint (weights
// via nn.Save plus a JSON manifest carrying version, step count and
// training metadata), and a restarted service resumes from LoadLatest.
//
// Durability protocol: the weights file is written to a temp name and
// renamed into place first; the manifest is written and renamed LAST, so
// the manifest's existence is the commit point. A crash mid-save leaves at
// worst an orphaned weights file that Versions/LoadLatest never report. The
// manifest records an FNV-64a checksum of the weights bytes; loads verify
// it, so a truncated or corrupted checkpoint is rejected instead of
// silently serving garbage parameters.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/faultfs"
	"github.com/parmcts/parmcts/internal/game"
	"github.com/parmcts/parmcts/internal/game/games"
	"github.com/parmcts/parmcts/internal/nn"
)

// ErrEmpty is returned by Latest/LoadLatest on a store with no committed
// checkpoints.
var ErrEmpty = errors.New("checkpoint: store is empty")

// Manifest is the metadata committed alongside each snapshot's weights.
type Manifest struct {
	// Version is the model version (positive, strictly increasing across a
	// training run; the version a worker stamps onto the episodes this
	// network generates).
	Version int64 `json:"version"`
	// Step is the cumulative SGD mini-batch update count at save time.
	Step int64 `json:"step"`
	// Rounds is the number of self-play generation rounds completed.
	Rounds int `json:"rounds"`
	// Samples is the cumulative count of generated training samples.
	Samples int `json:"samples"`
	// GateScore is the arena match score that promoted this version
	// (0 for an initial seed checkpoint saved without a gate).
	GateScore float64 `json:"gate_score"`
	// Game names the workload (e.g. "gomoku-9").
	Game string `json:"game,omitempty"`
	// Note carries free-form provenance.
	Note string `json:"note,omitempty"`
	// SavedAtUnix is the commit wall-clock time (Unix seconds).
	SavedAtUnix int64 `json:"saved_at_unix"`
	// WeightsFile is the snapshot's weights filename, relative to the
	// store directory.
	WeightsFile string `json:"weights_file"`
	// Checksum is the FNV-64a digest of the weights file, hex-encoded.
	Checksum string `json:"checksum"`
}

// CheckGame reports why a saved network cannot play g, or nil when it can.
// trainedOn is the game the network's manifest names ("" when it was saved
// without one). Shape equality is not identity — hex:9 and gomoku:9 share the
// 4x9x9/81 network shape — so the name, when known, is the authoritative
// guard, and the shape check covers networks saved without a name and boards
// of another size.
func CheckGame(net *nn.Network, trainedOn string, g game.Game) error {
	if trainedOn != "" && games.SpecName(trainedOn) != g.Name() {
		return fmt.Errorf("network was trained on %q, not %s", trainedOn, g.Name())
	}
	c, h, w := g.EncodedShape()
	if nc := net.Cfg; nc.InC != c || nc.H != h || nc.W != w || nc.NumActions != g.NumActions() {
		return fmt.Errorf("network shape %dx%dx%d/%d actions does not match %s (%dx%dx%d/%d actions)",
			nc.InC, nc.H, nc.W, nc.NumActions, g.Name(), c, h, w, g.NumActions())
	}
	return nil
}

// Store is a directory of versioned checkpoints. It is safe for concurrent
// use within one process: Save serialises version assignment and commit,
// while loads only ever observe committed (manifest-renamed) checkpoints.
type Store struct {
	dir string
	fs  faultfs.FS

	mu sync.Mutex // serialises Save's version assignment + commit
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) { return NewStoreFS(dir, faultfs.OS) }

// NewStoreFS is NewStore writing through an explicit filesystem seam —
// fault-injection tests pass a faultfs.Injected here.
func NewStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty store directory")
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir, fs: fsys}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

func manifestName(version int64) string { return fmt.Sprintf("v%06d.json", version) }
func weightsName(version int64) string  { return fmt.Sprintf("v%06d.net", version) }

// checksum digests raw weight bytes (FNV-64a, hex) — the shared digest of
// the durable stores (faultfs.ChecksumHex, also stamped into trajstore
// frames).
func checksum(b []byte) string { return faultfs.ChecksumHex(b) }

// EncodeNetwork serialises a network to the store's weight wire format and
// returns the bytes plus their FNV-64a hex checksum — the pair a Manifest
// records and the distributed checkpoint fan-out ships verbatim, so the
// bytes a worker receives are the bytes a Save would have committed.
func EncodeNetwork(net *nn.Network) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, "", fmt.Errorf("checkpoint: serialize: %w", err)
	}
	raw := buf.Bytes()
	return raw, checksum(raw), nil
}

// VerifyAndLoad validates raw weight bytes against m.Checksum and
// deserialises them — the receiving end of a checkpoint shipped as
// manifest + weights over a wire. A checksum mismatch (a torn or corrupted
// transfer) is rejected before any parameter reaches an engine.
func VerifyAndLoad(m Manifest, raw []byte) (*nn.Network, error) {
	if m.Checksum == "" {
		return nil, fmt.Errorf("checkpoint: version %d: manifest carries no checksum", m.Version)
	}
	if got := checksum(raw); got != m.Checksum {
		return nil, fmt.Errorf("checkpoint: version %d: weights checksum mismatch (manifest %s, received %s)",
			m.Version, m.Checksum, got)
	}
	net, err := nn.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: version %d: %w", m.Version, err)
	}
	return net, nil
}

// Save commits one snapshot and returns the completed manifest. If
// m.Version is 0 the next version after the latest committed one is
// assigned; an explicit version must not collide with a committed one
// (checkpoints are immutable). SavedAtUnix, WeightsFile and Checksum are
// filled in by the store.
func (s *Store) Save(net *nn.Network, m Manifest) (Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Version == 0 {
		latest, err := s.Latest()
		switch {
		case errors.Is(err, ErrEmpty):
			m.Version = 1
		case err != nil:
			return Manifest{}, err
		default:
			m.Version = latest + 1
		}
	}
	if m.Version < 0 {
		return Manifest{}, fmt.Errorf("checkpoint: negative version %d", m.Version)
	}
	if _, err := s.fs.Stat(filepath.Join(s.dir, manifestName(m.Version))); err == nil {
		return Manifest{}, fmt.Errorf("checkpoint: version %d already committed", m.Version)
	}

	raw, sum, err := EncodeNetwork(net)
	if err != nil {
		return Manifest{}, err
	}
	m.WeightsFile = weightsName(m.Version)
	m.Checksum = sum
	m.SavedAtUnix = time.Now().Unix()

	// Weights first, manifest last: the manifest rename is the commit.
	if err := s.writeAtomic(m.WeightsFile, raw); err != nil {
		return Manifest{}, err
	}
	mj, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: manifest: %w", err)
	}
	if err := s.writeAtomic(manifestName(m.Version), mj); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// writeAtomic writes name via a temp file + rename so readers never observe
// a partially written checkpoint file. The discipline lives in
// faultfs.WriteAtomic, shared with internal/trajstore's manifest commits.
func (s *Store) writeAtomic(name string, data []byte) error {
	if err := faultfs.WriteAtomic(s.fs, filepath.Join(s.dir, name), data); err != nil {
		return fmt.Errorf("checkpoint: commit %s: %w", name, err)
	}
	return nil
}

// Versions returns the committed versions in ascending order. Only versions
// with a parseable manifest count — orphaned weights from an interrupted
// Save are invisible.
func (s *Store) Versions() ([]int64, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []int64
	for _, e := range entries {
		var v int64
		if n, _ := fmt.Sscanf(e.Name(), "v%d.json", &v); n == 1 && e.Name() == manifestName(v) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Latest returns the highest committed version, or ErrEmpty.
func (s *Store) Latest() (int64, error) {
	vs, err := s.Versions()
	if err != nil {
		return 0, err
	}
	if len(vs) == 0 {
		return 0, ErrEmpty
	}
	return vs[len(vs)-1], nil
}

// LoadManifest reads and validates one version's manifest.
func (s *Store) LoadManifest(version int64) (Manifest, error) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, manifestName(version)))
	if err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: version %d: %w", version, err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("checkpoint: version %d: corrupt manifest: %w", version, err)
	}
	if m.Version != version {
		return Manifest{}, fmt.Errorf("checkpoint: manifest %s claims version %d", manifestName(version), m.Version)
	}
	if m.WeightsFile == "" || m.Checksum == "" {
		return Manifest{}, fmt.Errorf("checkpoint: version %d: manifest missing weights reference", version)
	}
	return m, nil
}

// LoadVersion restores one snapshot, verifying the weights checksum before
// deserializing. Corrupted or truncated checkpoints return an error.
func (s *Store) LoadVersion(version int64) (*nn.Network, Manifest, error) {
	m, err := s.LoadManifest(version)
	if err != nil {
		return nil, Manifest{}, err
	}
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, m.WeightsFile))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("checkpoint: version %d: %w", version, err)
	}
	if got := checksum(raw); got != m.Checksum {
		return nil, Manifest{}, fmt.Errorf("checkpoint: version %d: weights checksum mismatch (manifest %s, file %s)",
			version, m.Checksum, got)
	}
	net, err := nn.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, Manifest{}, fmt.Errorf("checkpoint: version %d: %w", version, err)
	}
	return net, m, nil
}

// LoadLatest restores the newest committed version that actually loads:
// when the latest checkpoint's manifest or weights are corrupt or
// truncated (a disk fault after commit — the commit protocol itself never
// leaves one), it logs the skip and falls back to the next most recent
// valid version rather than failing the whole resume. Only when every
// committed version is unloadable does it return the newest version's
// error; a store with no committed versions returns ErrEmpty.
func (s *Store) LoadLatest() (*nn.Network, Manifest, error) {
	vs, err := s.Versions()
	if err != nil {
		return nil, Manifest{}, err
	}
	if len(vs) == 0 {
		return nil, Manifest{}, ErrEmpty
	}
	var firstErr error
	for i := len(vs) - 1; i >= 0; i-- {
		net, m, err := s.LoadVersion(vs[i])
		if err == nil {
			return net, m, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		log.Printf("checkpoint: skipping unloadable version %d: %v", vs[i], err)
	}
	return nil, Manifest{}, firstErr
}
