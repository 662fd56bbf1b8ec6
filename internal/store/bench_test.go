package store

import (
	"io"
	"log/slog"
	"testing"
	"time"

	"corona/internal/core"
)

// benchCells is the batch a journal benchmark op commits: one campaign of
// the paper's 15 workloads on one machine.
const benchCells = 15

// benchStore opens a default-options store (fsync on) holding one submitted
// job, and returns it with benchCells cells to append.
func benchStore(b *testing.B) (*Store, []core.CellResult) {
	b.Helper()
	s, err := Open(b.TempDir(), Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.AppendSubmit("job-000001", testScenario, benchCells, time.Now().UTC(), 0); err != nil {
		b.Fatal(err)
	}
	return s, batchCells(benchCells)
}

func reportPerCell(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*benchCells), "us/cell")
}

// BenchmarkAppendCell commits benchCells cells one AppendCell (one write,
// one fsync) at a time.
func BenchmarkAppendCell(b *testing.B) {
	s, cells := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if err := s.AppendCell("job-000001", c); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerCell(b)
}

// BenchmarkAppendCells commits the same benchCells cells as one
// AppendCells batch: one write and one fsync for all of them.
func BenchmarkAppendCells(b *testing.B) {
	s, cells := benchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AppendCells("job-000001", cells); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCell(b)
}
