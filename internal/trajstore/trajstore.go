// Package trajstore is the durable half of the replay pipeline: an
// append-only, disk-backed store of encoded self-play episodes, built so a
// killed training run loses nothing it acknowledged.
//
// Layout: episodes are length-prefixed, FNV-64a-checksummed frames appended
// to segment files. The active segment (seg-N.open) takes appends — each
// Append writes one frame and fsyncs before returning, so a nil error means
// the episode is durable. After Config.SegmentGames episodes the segment is
// sealed: synced, renamed to seg-N.traj, and recorded in MANIFEST.json,
// which is rewritten atomically LAST (tmp+fsync+rename via
// faultfs.WriteAtomic — the same manifest-last commit discipline as
// internal/checkpoint).
//
// Recovery: Open rescans everything. Sealed segments are re-validated
// frame by frame; a .traj present on disk but missing from the manifest is
// adopted (crash between rename and manifest write), a segment below the
// manifest's retention watermark is deleted (crash between manifest write
// and file removal), and a corrupt or missing manifest is rebuilt from the
// directory scan — the manifest accelerates and annotates recovery, it is
// never the only copy of the truth. The active segment is truncated to its
// last valid frame: a torn append disappears, every frame before it
// survives. The in-memory frame index built during the scan serves Get with
// one ReadAt per episode, no rescans.
//
// Failure semantics: the first write, sync or rename error (disk full,
// injected fault, dying device) marks the store read-only. Reads keep
// working; Append returns ErrReadOnly; the caller — see cmd/train — logs and
// continues on its in-memory ring. The store never takes the training run
// down with it.
package trajstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/parmcts/parmcts/internal/faultfs"
)

// ErrReadOnly is returned by Append after a storage error has degraded the
// store (or Open found the directory unwritable).
var ErrReadOnly = errors.New("trajstore: store is read-only after a storage error")

// Retention bounds the store. Zero values mean unbounded. Only sealed
// segments are dropped, oldest first, and never the one that would take
// the store below MaxGames.
type Retention struct {
	// MaxGames drops oldest sealed segments while the total committed game
	// count exceeds it.
	MaxGames int
	// MaxAge drops sealed segments whose seal time is older than this.
	MaxAge time.Duration
}

// Config tunes a store.
type Config struct {
	// SegmentGames seals the active segment after this many episodes
	// (default 256).
	SegmentGames int
	// Retain bounds disk use; zero = keep everything.
	Retain Retention
	// Game tags the manifest with the workload spec; Open rejects a
	// directory tagged with a different game (the same resume guard
	// checkpoint manifests carry). Empty = untagged.
	Game string
	// FS is the filesystem seam (nil = faultfs.OS). Tests inject faults
	// through it.
	FS faultfs.FS
	// NoSync skips the per-append fsync. Throughput-vs-durability knob for
	// benchmarks; production keeps the default (sync every append).
	NoSync bool
}

// manifest is the JSON commit record for sealed segments.
type manifest struct {
	Format       int           `json:"format"`
	Game         string        `json:"game,omitempty"`
	DroppedBelow int64         `json:"dropped_below"` // retention watermark: ids below are garbage
	Segments     []segmentMeta `json:"segments"`
}

type segmentMeta struct {
	ID           int64  `json:"id"`
	Games        int    `json:"games"`
	Bytes        int64  `json:"bytes"`
	SealedAtUnix int64  `json:"sealed_at_unix"`
	Checksum     string `json:"checksum,omitempty"` // reserved: whole-file digests
}

// RecoveryReport describes what Open had to repair.
type RecoveryReport struct {
	// TornBytes were truncated off segment tails (incomplete final frames).
	TornBytes int64
	// AdoptedSegments were sealed on disk but missing from the manifest
	// (crash after rename, before the manifest commit).
	AdoptedSegments int
	// DroppedSegments were manifest-listed but missing or below the
	// retention watermark, or leftover temp files.
	DroppedSegments int
	// ManifestRebuilt reports a corrupt/missing manifest reconstructed
	// from the directory scan.
	ManifestRebuilt bool
}

const manifestName = "MANIFEST.json"

func segOpenName(id int64) string   { return fmt.Sprintf("seg-%08d.open", id) }
func segSealedName(id int64) string { return fmt.Sprintf("seg-%08d.traj", id) }

// Store is a durable episode log. Safe for concurrent use: appends are
// serialised, sampling reads only committed frames.
type Store struct {
	dir string
	cfg Config
	fs  faultfs.FS

	mu       sync.Mutex
	man      manifest
	index    []frameRef // all committed episodes, oldest first
	active   int64      // active segment id
	activeF  faultfs.File
	activeN  int   // episodes in the active segment
	activeSz int64 // bytes in the active segment
	readOnly bool
	firstErr error
	recov    RecoveryReport
	readers  map[int64]faultfs.ReadAtCloser
	closed   bool
}

// Open opens (creating if needed) a store directory, running full crash
// recovery: torn tails truncated, unmanifested sealed segments adopted,
// retention-watermark garbage deleted, index rebuilt.
func Open(dir string, cfg Config) (*Store, error) {
	if dir == "" {
		return nil, errors.New("trajstore: empty store directory")
	}
	if cfg.FS == nil {
		cfg.FS = faultfs.OS
	}
	if cfg.SegmentGames <= 0 {
		cfg.SegmentGames = 256
	}
	s := &Store{dir: dir, cfg: cfg, fs: cfg.FS, readers: make(map[int64]faultfs.ReadAtCloser)}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("trajstore: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.applyRetentionLocked(); err != nil {
		// Retention failure degrades, it does not block opening.
		s.degradeLocked(err)
	}
	return s, nil
}

// recover scans the directory into a consistent in-memory state.
func (s *Store) recover() error {
	man, manOK, manExisted := s.readManifest()
	if man.Game != "" && s.cfg.Game != "" && man.Game != s.cfg.Game {
		return fmt.Errorf("trajstore: store %s holds %q episodes, not %q; use a fresh -replay-dir", s.dir, man.Game, s.cfg.Game)
	}
	if man.Game == "" {
		man.Game = s.cfg.Game
	}

	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("trajstore: %w", err)
	}
	manifested := make(map[int64]segmentMeta, len(man.Segments))
	for _, m := range man.Segments {
		manifested[m.ID] = m
	}
	var sealed []int64
	var opens []int64
	maxID := int64(0)
	for _, e := range entries {
		var id int64
		name := e.Name()
		switch {
		case name == manifestName:
			continue
		case matchSeg(name, ".traj", &id):
			if id < man.DroppedBelow {
				// Retention removed it from the manifest; the file delete
				// crashed. Finish the job.
				s.fs.Remove(filepath.Join(s.dir, name))
				s.recov.DroppedSegments++
				continue
			}
			sealed = append(sealed, id)
		case matchSeg(name, ".open", &id):
			opens = append(opens, id)
		case len(name) > 4 && name[len(name)-4:] == ".tmp":
			s.fs.Remove(filepath.Join(s.dir, name))
			s.recov.DroppedSegments++
			continue
		default:
			continue
		}
		if id > maxID {
			maxID = id
		}
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i] < sealed[j] })
	sort.Slice(opens, func(i, j int) bool { return opens[i] < opens[j] })

	// A fresh, empty directory needs no manifest yet (the first seal
	// commits one); only a missing/corrupt manifest over EXISTING data is
	// a rebuild.
	rebuilt := !manOK && (manExisted || len(sealed) > 0 || len(opens) > 0)
	s.recov.ManifestRebuilt = rebuilt

	// Sealed segments: re-validate every frame. The manifest's game counts
	// are advisory — the frames' checksums are the truth.
	var newMan []segmentMeta
	manChanged := rebuilt
	for _, id := range sealed {
		res, size, err := s.scanFile(segSealedName(id), id)
		if err != nil {
			return err
		}
		if res.valid < size {
			s.recov.TornBytes += size - res.valid
			if err := s.fs.Truncate(filepath.Join(s.dir, segSealedName(id)), res.valid); err != nil {
				return fmt.Errorf("trajstore: truncate torn segment %d: %w", id, err)
			}
		}
		meta, had := manifested[id]
		if !had {
			s.recov.AdoptedSegments++
			manChanged = true
			meta = segmentMeta{ID: id, SealedAtUnix: time.Now().Unix()}
		}
		if meta.Games != len(res.frames) || meta.Bytes != res.valid {
			meta.Games, meta.Bytes = len(res.frames), res.valid
			manChanged = true
		}
		newMan = append(newMan, meta)
		s.index = append(s.index, res.frames...)
		delete(manifested, id)
	}
	// Manifest entries whose file vanished: drop them (committed data lost
	// to an external fault — record it, nothing to restore from).
	if len(manifested) > 0 {
		s.recov.DroppedSegments += len(manifested)
		manChanged = true
	}
	man.Segments = newMan

	// Active segments: at most one is expected; extras (unreachable with
	// this writer, possible with a meddled directory) get sealed too so no
	// data is silently shadowed. The newest stays active.
	for i, id := range opens {
		res, size, err := s.scanFile(segOpenName(id), id)
		if err != nil {
			return err
		}
		if res.valid < size {
			s.recov.TornBytes += size - res.valid
			if err := s.fs.Truncate(filepath.Join(s.dir, segOpenName(id)), res.valid); err != nil {
				return fmt.Errorf("trajstore: truncate torn segment %d: %w", id, err)
			}
		}
		last := i == len(opens)-1
		if !last {
			if err := s.fs.Rename(filepath.Join(s.dir, segOpenName(id)), filepath.Join(s.dir, segSealedName(id))); err != nil {
				return fmt.Errorf("trajstore: seal stray segment %d: %w", id, err)
			}
			man.Segments = append(man.Segments, segmentMeta{ID: id, Games: len(res.frames), Bytes: res.valid, SealedAtUnix: time.Now().Unix()})
			manChanged = true
			s.index = append(s.index, res.frames...)
			continue
		}
		s.active = id
		s.activeN = len(res.frames)
		s.activeSz = res.valid
		s.index = append(s.index, res.frames...)
	}
	sort.Slice(man.Segments, func(i, j int) bool { return man.Segments[i].ID < man.Segments[j].ID })

	s.man = man
	if s.active == 0 {
		s.active = maxID + 1
		if s.active <= man.DroppedBelow {
			s.active = man.DroppedBelow + 1
		}
	}
	if manChanged {
		if err := s.writeManifestLocked(); err != nil {
			return err
		}
	}
	return nil
}

// scanFile opens one segment file and validates it.
func (s *Store) scanFile(name string, id int64) (scanResult, int64, error) {
	path := filepath.Join(s.dir, name)
	info, err := s.fs.Stat(path)
	if err != nil {
		return scanResult{}, 0, fmt.Errorf("trajstore: %w", err)
	}
	r, err := s.fs.OpenRead(path)
	if err != nil {
		return scanResult{}, 0, fmt.Errorf("trajstore: %w", err)
	}
	defer r.Close()
	return scanSegment(r, info.Size(), id), info.Size(), nil
}

func matchSeg(name, ext string, id *int64) bool {
	var v int64
	pattern := "seg-%08d" + ext
	if n, _ := fmt.Sscanf(name, pattern, &v); n == 1 && name == fmt.Sprintf(pattern, v) {
		*id = v
		return true
	}
	return false
}

func (s *Store) readManifest() (man manifest, ok, existed bool) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return manifest{Format: 1}, false, false
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil || m.Format != 1 {
		return manifest{Format: 1}, false, true
	}
	return m, true, true
}

// writeManifestLocked commits the manifest atomically (manifest-last: the
// callers have already renamed any segment it references).
func (s *Store) writeManifestLocked() error {
	raw, err := json.MarshalIndent(&s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("trajstore: manifest: %w", err)
	}
	if err := faultfs.WriteAtomic(s.fs, filepath.Join(s.dir, manifestName), raw); err != nil {
		return fmt.Errorf("trajstore: manifest: %w", err)
	}
	return nil
}

// degradeLocked flips the store read-only, remembering the first error.
func (s *Store) degradeLocked(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.readOnly = true
	if s.activeF != nil {
		s.activeF.Close()
		s.activeF = nil
	}
}

// Recovery returns what Open repaired.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recov
}

// Games returns the number of committed episodes.
func (s *Store) Games() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Samples returns the total stored sample count across all episodes.
func (s *Store) Samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.index {
		n += int(f.samples)
	}
	return n
}

// ReadOnly reports whether a storage error has degraded the store.
func (s *Store) ReadOnly() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readOnly
}

// Err returns the error that degraded the store, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// Append durably commits one episode: the frame is written and (unless
// Config.NoSync) fsynced before Append returns nil. On any storage error
// the store degrades to read-only and the episode is NOT committed.
func (s *Store) Append(ep Episode) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("trajstore: store is closed")
	}
	if s.readOnly {
		return ErrReadOnly
	}
	if err := s.ensureActiveLocked(); err != nil {
		s.degradeLocked(err)
		return err
	}
	payload := encodeEpisode(ep)
	frame := encodeFrame(payload)
	if _, err := s.activeF.Write(frame); err != nil {
		// The write may have torn: recovery truncates it on next open; this
		// process must not serve the active segment past the last durable
		// frame, which the index (not advanced) already guarantees.
		s.degradeLocked(fmt.Errorf("trajstore: append: %w", err))
		return s.firstErr
	}
	if !s.cfg.NoSync {
		if err := s.activeF.Sync(); err != nil {
			s.degradeLocked(fmt.Errorf("trajstore: fsync: %w", err))
			return s.firstErr
		}
	}
	s.index = append(s.index, frameRef{
		seg:     s.active,
		off:     s.activeSz + frameHeader,
		size:    int32(len(payload)),
		samples: int32(len(ep.Samples)),
	})
	s.activeSz += int64(len(frame))
	s.activeN++
	if s.activeN >= s.cfg.SegmentGames {
		if err := s.sealLocked(); err != nil {
			s.degradeLocked(err)
			return s.firstErr
		}
		if err := s.applyRetentionLocked(); err != nil {
			s.degradeLocked(err)
			return s.firstErr
		}
	}
	return nil
}

// ensureActiveLocked opens (creating with magic) the active segment file.
func (s *Store) ensureActiveLocked() error {
	if s.activeF != nil {
		return nil
	}
	path := filepath.Join(s.dir, segOpenName(s.active))
	fresh := s.activeSz == 0
	f, err := s.fs.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("trajstore: open segment: %w", err)
	}
	if fresh {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("trajstore: segment header: %w", err)
		}
		s.activeSz = int64(len(segMagic))
	}
	s.activeF = f
	return nil
}

// Seal commits the active segment early (rename + manifest), e.g. on
// graceful shutdown. A store with an empty active segment is a no-op.
func (s *Store) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return ErrReadOnly
	}
	if s.activeN == 0 {
		return nil
	}
	if err := s.sealLocked(); err != nil {
		s.degradeLocked(err)
		return s.firstErr
	}
	return nil
}

// sealLocked: fsync + close the active file, rename .open -> .traj, then
// commit the manifest. The rename precedes the manifest write, so a crash
// between them leaves an adoptable sealed segment, never a lost one.
func (s *Store) sealLocked() error {
	if s.activeN == 0 {
		return nil
	}
	if err := s.ensureActiveLocked(); err != nil {
		return err
	}
	if err := s.activeF.Sync(); err != nil {
		return fmt.Errorf("trajstore: seal fsync: %w", err)
	}
	if err := s.activeF.Close(); err != nil {
		return fmt.Errorf("trajstore: seal close: %w", err)
	}
	s.activeF = nil
	id := s.active
	if err := s.fs.Rename(filepath.Join(s.dir, segOpenName(id)), filepath.Join(s.dir, segSealedName(id))); err != nil {
		return fmt.Errorf("trajstore: seal rename: %w", err)
	}
	// A cached read handle for the active segment now points at a renamed
	// file; the fd stays valid on POSIX, keep serving from it.
	s.man.Segments = append(s.man.Segments, segmentMeta{
		ID: id, Games: s.activeN, Bytes: s.activeSz, SealedAtUnix: time.Now().Unix(),
	})
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	s.active = id + 1
	s.activeN = 0
	s.activeSz = 0
	return nil
}

// applyRetentionLocked drops oldest sealed segments per Config.Retain.
// Order: manifest first (watermark raised), files second — a crash in
// between leaves orphans below the watermark that recovery deletes.
func (s *Store) applyRetentionLocked() error {
	ret := s.cfg.Retain
	if ret.MaxGames <= 0 && ret.MaxAge <= 0 {
		return nil
	}
	total := len(s.index)
	cutoff := time.Now().Add(-ret.MaxAge).Unix()
	var drop []segmentMeta
	for len(s.man.Segments) > 0 {
		m := s.man.Segments[0]
		tooMany := ret.MaxGames > 0 && total-m.Games >= ret.MaxGames
		tooOld := ret.MaxAge > 0 && m.SealedAtUnix < cutoff
		if !tooMany && !tooOld {
			break
		}
		drop = append(drop, m)
		total -= m.Games
		s.man.Segments = s.man.Segments[1:]
		if m.ID+1 > s.man.DroppedBelow {
			s.man.DroppedBelow = m.ID + 1
		}
	}
	if len(drop) == 0 {
		return nil
	}
	if err := s.writeManifestLocked(); err != nil {
		return err
	}
	dropIDs := make(map[int64]bool, len(drop))
	for _, m := range drop {
		dropIDs[m.ID] = true
		if r, ok := s.readers[m.ID]; ok {
			r.Close()
			delete(s.readers, m.ID)
		}
		s.fs.Remove(filepath.Join(s.dir, segSealedName(m.ID)))
	}
	kept := s.index[:0]
	for _, f := range s.index {
		if !dropIDs[f.seg] {
			kept = append(kept, f)
		}
	}
	s.index = kept
	return nil
}

// readerLocked returns (opening and caching) a read handle for a segment.
func (s *Store) readerLocked(seg int64) (faultfs.ReadAtCloser, error) {
	if r, ok := s.readers[seg]; ok {
		return r, nil
	}
	name := segSealedName(seg)
	if seg == s.active {
		name = segOpenName(seg)
	}
	r, err := s.fs.OpenRead(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("trajstore: %w", err)
	}
	s.readers[seg] = r
	return r, nil
}

// Get reads episode i (0 = oldest committed). The frame checksum is
// re-verified on every read, so bit rot after Open is still caught.
func (s *Store) Get(i int) (Episode, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(i)
}

func (s *Store) getLocked(i int) (Episode, error) {
	if i < 0 || i >= len(s.index) {
		return Episode{}, fmt.Errorf("trajstore: episode %d out of range [0,%d)", i, len(s.index))
	}
	ref := s.index[i]
	r, err := s.readerLocked(ref.seg)
	if err != nil {
		return Episode{}, err
	}
	buf := make([]byte, frameHeader+int(ref.size))
	if _, err := r.ReadAt(buf, ref.off-frameHeader); err != nil {
		return Episode{}, fmt.Errorf("trajstore: read episode %d: %w", i, err)
	}
	payload := buf[frameHeader:]
	if got := faultfs.Checksum(payload); got != binary.LittleEndian.Uint64(buf[4:12]) {
		return Episode{}, fmt.Errorf("%w: episode %d checksum mismatch", ErrCorrupt, i)
	}
	return decodeEpisode(payload)
}

// Close seals the active segment (best effort) and releases handles. A
// degraded store closes without writing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if !s.readOnly && s.activeN > 0 {
		err = s.sealLocked()
	}
	if s.activeF != nil {
		s.activeF.Close()
		s.activeF = nil
	}
	for id, r := range s.readers {
		r.Close()
		delete(s.readers, id)
	}
	return err
}
