package trajstore

import (
	"os"
	"sync"
	"testing"

	"github.com/parmcts/parmcts/internal/rng"
)

func TestMain(m *testing.M) {
	code := m.Run()
	if bench10k.dir != "" {
		os.RemoveAll(bench10k.dir)
	}
	os.Exit(code)
}

// benchEpisode is a small synthetic episode (4 samples of 8-input/4-policy)
// so the benchmarks measure store overhead, not float copying.
func benchEpisode(seq int) Episode {
	return testEpisode(seq % 64)
}

func BenchmarkTrajstoreAppend(b *testing.B) {
	for _, bc := range []struct {
		name   string
		noSync bool
	}{
		{"sync", false},
		{"nosync", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), Config{SegmentGames: 256, NoSync: bc.noSync})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(benchEpisode(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		})
	}
}

// bench10k lazily builds one shared 10k-game store (NoSync: the sampling
// benchmarks measure read-path latency, not disk flushes) and reuses it
// across benchmark runs within the process. Built outside b.TempDir —
// that is torn down when the creating benchmark ends, and this store
// outlives it; TestMain removes the directory.
var bench10k struct {
	once sync.Once
	dir  string
	err  error
}

func bench10kDir(b *testing.B) string {
	bench10k.once.Do(func() {
		dir, err := os.MkdirTemp("", "trajstore-bench-")
		if err != nil {
			bench10k.err = err
			return
		}
		s, err := Open(dir, Config{SegmentGames: 256, NoSync: true})
		if err != nil {
			os.RemoveAll(dir)
			bench10k.err = err
			return
		}
		for i := 0; i < 10000; i++ {
			if err := s.Append(benchEpisode(i)); err != nil {
				bench10k.err = err
				return
			}
		}
		bench10k.err = s.Close()
		bench10k.dir = dir
	})
	if bench10k.err != nil {
		b.Fatal(bench10k.err)
	}
	return bench10k.dir
}

// BenchmarkTrajstoreGet is one random read from a 10k-game store: one
// ReadAt, one re-checksum, one decode.
func BenchmarkTrajstoreGet(b *testing.B) {
	s, err := Open(bench10kDir(b), Config{SegmentGames: 256, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rnd := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(rnd.Intn(10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajstoreReopen measures the cost this design pays for having
// no trusted index on disk: every Open re-scans and re-checksums all
// segment frames. At 10k small games this is the recovery-time budget.
func BenchmarkTrajstoreReopen(b *testing.B) {
	dir := bench10kDir(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Config{SegmentGames: 256, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if s.Games() != 10000 {
			b.Fatalf("reopened store has %d games", s.Games())
		}
		s.Close()
	}
}
