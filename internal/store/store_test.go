package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/sim"
)

var testScenario = json.RawMessage(`{"configs":[{"preset":"XBar/OCM"}],"workloads":["Uniform"],"requests":100}`)

func cell(idx int, cycles uint64) core.CellResult {
	return core.CellResult{Index: idx, Row: idx, Col: 0, Workload: "Uniform", Config: "XBar/OCM",
		Result: core.Result{Config: "XBar/OCM", Workload: "Uniform", Requests: 100, Cycles: sim.Time(cycles)}}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	sub := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if err := s.AppendSubmit("job-000001", testScenario, 2, sub, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	c0, c1 := cell(0, 100), cell(1, 200)
	c1.Index, c1.Row = 1, 1
	if err := s.AppendCell("job-000001", c0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCell("job-000001", c1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStatus("job-000001", "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	jobs := s2.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1", len(jobs))
	}
	j := jobs[0]
	if j.ID != "job-000001" || j.Total != 2 || j.Status != "done" ||
		j.Timeout != 3*time.Minute || !j.Submitted.Equal(sub) {
		t.Fatalf("replayed job = %+v", j)
	}
	if string(j.Scenario) != string(testScenario) {
		t.Fatalf("scenario round-trip: %s", j.Scenario)
	}
	if len(j.Cells) != 2 || j.Cells[0].Index != 0 || j.Cells[1].Index != 1 {
		t.Fatalf("cells = %+v", j.Cells)
	}
}

func TestInterruptedJobHasNoStatus(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendSubmit("job-000001", testScenario, 4, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCell("job-000001", cell(2, 50)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	jobs := mustOpen(t, dir).Jobs()
	if len(jobs) != 1 || jobs[0].Status != "" || len(jobs[0].Cells) != 1 {
		t.Fatalf("interrupted job = %+v", jobs)
	}
}

func TestDuplicateCellsDeduplicated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.AppendSubmit("j", testScenario, 1, time.Now().UTC(), 0)
	s.AppendCell("j", cell(0, 100))
	s.AppendCell("j", cell(0, 100))
	s.Close()
	jobs := mustOpen(t, dir).Jobs()
	if len(jobs[0].Cells) != 1 {
		t.Fatalf("duplicate cell survived replay: %d cells", len(jobs[0].Cells))
	}
}

// TestTornTailIsTruncated hand-corrupts the journal tail three ways — a
// frame cut mid-payload, a frame cut mid-header, a CRC flip — and asserts
// each reopens to exactly the intact prefix, with the debris physically
// truncated so later appends extend a clean file.
func TestTornTailIsTruncated(t *testing.T) {
	corruptions := []struct {
		name string
		mut  func(t *testing.T, path string)
	}{
		{"mid-payload", func(t *testing.T, path string) { chop(t, path, 5) }},
		{"mid-header", func(t *testing.T, path string) {
			// A crash can also land mid-frame-header: append 4 stray bytes
			// of a half-written length word to an otherwise intact file.
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{9, 0, 0, 0})
			f.Close()
		}},
		{"crc-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			s.AppendSubmit("j", testScenario, 2, time.Now().UTC(), 0)
			s.AppendCell("j", cell(0, 100))
			s.AppendCell("j", cell(1, 200)) // this frame gets damaged
			path := s.f.Name()
			s.Close()
			c.mut(t, path)

			s2 := mustOpen(t, dir)
			jobs := s2.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("replayed %d jobs, want 1", len(jobs))
			}
			wantCells := 1
			if c.name == "mid-header" {
				wantCells = 2 // the damage was appended after an intact file
			}
			if len(jobs[0].Cells) != wantCells {
				t.Fatalf("replayed %d cells, want %d", len(jobs[0].Cells), wantCells)
			}
			// The file must now end cleanly: append and reopen once more.
			if err := s2.AppendStatus("j", "done", ""); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			jobs = mustOpen(t, dir).Jobs()
			if jobs[0].Status != "done" {
				t.Fatalf("append after truncation lost: %+v", jobs[0])
			}
		})
	}
}

// chop removes the last n bytes of the file.
func chop(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	payload, _ := json.Marshal(Record{Type: "header", Schema: Schema + 1})
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(frame[8:], payload)
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("Open of future-schema journal: %v, want schema error", err)
	}
}

func TestCompactDropsEvictedJobs(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		s.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0)
		s.AppendCell(id, cell(0, 100))
		s.AppendStatus(id, "done", "")
	}
	before := s.f.Name()
	if err := s.Compact(func(id string) bool { return id != "job-000001" }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(before); !os.IsNotExist(err) {
		t.Fatalf("old segment %s still present after compaction", before)
	}
	// Appends continue into the new segment and everything replays.
	if err := s.AppendSubmit("job-000004", testScenario, 1, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	jobs := mustOpen(t, dir).Jobs()
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
	}
	want := []string{"job-000002", "job-000003", "job-000004"}
	if len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
		t.Fatalf("jobs after compaction = %v, want %v", ids, want)
	}
}

// TestCompactStreamsLargeJournal compacts a journal several times larger
// than one compaction write, so the rewrite spans many flushes, and
// checks every kept job replays with all its cells in order.
func TestCompactStreamsLargeJournal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const jobs, cells = 60, 8
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%06d", j+1)
		s.AppendSubmit(id, testScenario, cells, time.Now().UTC(), 0)
		if err := s.AppendCells(id, batchCells(cells)); err != nil {
			t.Fatal(err)
		}
		s.AppendStatus(id, "done", "")
	}
	if err := s.Compact(func(id string) bool { return id != "job-000001" }); err != nil {
		t.Fatal(err)
	}
	if info, err := s.f.Stat(); err != nil || info.Size() < 3*64<<10 {
		t.Fatalf("compacted segment is %v bytes (err %v); want several 64 KiB writes", info.Size(), err)
	}
	s.Close()
	replayed := mustOpen(t, dir).Jobs()
	if len(replayed) != jobs-1 {
		t.Fatalf("replayed %d jobs after compaction, want %d", len(replayed), jobs-1)
	}
	for _, js := range replayed {
		if js.Status != "done" || len(js.Cells) != cells {
			t.Fatalf("job %s replayed as %q with %d cells", js.ID, js.Status, len(js.Cells))
		}
		for i, c := range js.Cells {
			if c.Index != i {
				t.Fatalf("job %s cell %d has index %d", js.ID, i, c.Index)
			}
		}
	}
}

func TestOpenPrefersHighestSegment(t *testing.T) {
	// A crash between compaction's rename and the old segment's deletion
	// leaves two segments; the higher (newer) one is authoritative.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	s.AppendSubmit("keep", testScenario, 1, time.Now().UTC(), 0)
	s.Close()
	// Fabricate a stale lower segment by renaming the real one up.
	if err := os.Rename(filepath.Join(dir, "journal-000001.wal"),
		filepath.Join(dir, "journal-000002.wal")); err != nil {
		t.Fatal(err)
	}
	stale := mustOpen(t, t.TempDir())
	stale.AppendSubmit("stale", testScenario, 1, time.Now().UTC(), 0)
	stale.Close()
	raw, err := os.ReadFile(filepath.Join(stale.dir, "journal-000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "keep" {
		t.Fatalf("jobs = %+v, want only the higher segment's", jobs)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal-000001.wal")); !os.IsNotExist(err) {
		t.Error("superseded lower segment not removed at open")
	}
}

func TestEmptyAndFreshDirectories(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("fresh store has %d jobs", len(jobs))
	}
	s.Close()
	// Reopen of a header-only journal.
	s2 := mustOpen(t, dir)
	if jobs := s2.Jobs(); len(jobs) != 0 {
		t.Fatalf("header-only store has %d jobs", len(jobs))
	}
}

// TestFrameEncoderMatchesMarshal pins the on-disk payload: the reused
// encoder must frame exactly json.Marshal's bytes for every record type.
func TestFrameEncoderMatchesMarshal(t *testing.T) {
	c := cell(3, 42)
	recs := []Record{
		{Type: "header", Schema: Schema},
		{Type: "submit", Job: "j", Scenario: json.RawMessage(`{"configs": ["<&>"]}`), Total: 2,
			Submitted: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC), Timeout: time.Minute},
		{Type: "cell", Job: "j", Cell: &c},
		{Type: "status", Job: "j", Status: "failed", Error: "a <b> & c"},
	}
	e := newFrameEncoder()
	for i := range recs {
		e.buf = e.buf[:0]
		if err := e.frame(&recs[i]); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := e.buf[8:]; string(got) != string(want) {
			t.Fatalf("%s payload\n got %s\nwant %s", recs[i].Type, got, want)
		}
		if n := binary.LittleEndian.Uint32(e.buf); int(n) != len(want) {
			t.Fatalf("%s frame length %d, want %d", recs[i].Type, n, len(want))
		}
		if crc := binary.LittleEndian.Uint32(e.buf[4:]); crc != crc32.Checksum(want, crcTable) {
			t.Fatalf("%s frame CRC mismatch", recs[i].Type)
		}
	}
}
