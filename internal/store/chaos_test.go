package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
)

// scriptedAppends drives a fixed sequence of appends against s, stopping at
// the first error, and returns how many succeeded. The sequence is one
// submit, n-2 cells, and a terminal status — the exact write pattern of one
// served job.
func scriptedAppends(s *Store, n int) (ok int, err error) {
	if err = s.AppendSubmit("job-000001", testScenario, n-2, time.Now().UTC(), 0); err != nil {
		return 0, err
	}
	ok++
	for i := 0; i < n-2; i++ {
		if err = s.AppendCell("job-000001", cell(i, uint64(100*i+1))); err != nil {
			return ok, err
		}
		ok++
	}
	if err = s.AppendStatus("job-000001", "done", ""); err != nil {
		return ok, err
	}
	return ok + 1, nil
}

// scriptedBatchAppends is scriptedAppends with the n-2 cells committed as
// one AppendCells batch — the write pattern of a served job whose cells
// all queued behind one fsync. A batch acknowledges all its cells or none.
func scriptedBatchAppends(s *Store, n int) (ok int, err error) {
	if err = s.AppendSubmit("job-000001", testScenario, n-2, time.Now().UTC(), 0); err != nil {
		return 0, err
	}
	ok++
	if err = s.AppendCells("job-000001", batchCells(n-2)); err != nil {
		return ok, err
	}
	ok += n - 2
	if err = s.AppendStatus("job-000001", "done", ""); err != nil {
		return ok, err
	}
	return ok + 1, nil
}

func batchCells(n int) []core.CellResult {
	cells := make([]core.CellResult, n)
	for i := range cells {
		cells[i] = cell(i, uint64(100*i+1))
	}
	return cells
}

// tornBatchKeeps is how many whole frames of a batch of cells lie in the
// first half of the batch's bytes — what a crash at "store.append.torn"
// leaves on disk ahead of the torn frame.
func tornBatchKeeps(t *testing.T, cells []core.CellResult) int {
	t.Helper()
	var ends []int
	total := 0
	for i := range cells {
		payload, err := json.Marshal(&Record{Type: "cell", Job: "job-000001", Cell: &cells[i]})
		if err != nil {
			t.Fatal(err)
		}
		total += 8 + len(payload)
		ends = append(ends, total)
	}
	kept := 0
	for _, end := range ends {
		if end <= total/2 {
			kept++
		}
	}
	return kept
}

// durableAfterCrash is what each fault point promises survives the crash:
// the failing append itself is durable only for the post-write "sync"
// point, where the frame hit the file before the simulated death.
func durableAfterCrash(point string, completed int) int {
	if point == "store.append.sync" {
		return completed + 1
	}
	return completed
}

// TestChaosCrashAtEveryWritePoint kills the store (via fault injection) at
// every record ordinal of a job's write sequence, for every fault point —
// before any bytes, mid-frame (a torn half-frame reaches disk), and after
// the write — then reopens the directory and asserts the journal replays to
// exactly the durable prefix, the store stayed wedged after the hit, and
// the reopened journal accepts further appends cleanly. The "batch/" half
// writes the cells as one AppendCells: a crash at any of its records fails
// the whole batch — "before" leaves none of its frames, "torn" leaves the
// whole frames ahead of the torn one, "sync" leaves all of them.
func TestChaosCrashAtEveryWritePoint(t *testing.T) {
	const appends = 6 // submit + 4 cells + status
	points := []string{"store.append.before", "store.append.torn", "store.append.sync"}
	// The header frame of a fresh segment is written by Open, after arming
	// would normally happen; open the store BEFORE arming so hit 1 is the
	// first scripted append, not the header.
	for _, batched := range []bool{false, true} {
		for _, point := range points {
			for hit := 1; hit <= appends; hit++ {
				name := fmt.Sprintf("%s@%d", point, hit)
				if batched {
					name = "batch/" + name
				}
				t.Run(name, func(t *testing.T) { crashAtWritePoint(t, point, hit, appends, batched) })
			}
		}
	}
}

// crashAtWritePoint is one cell of the crash matrix: arm point at record
// ordinal hit, run the job's write script, and check what a reopen finds.
func crashAtWritePoint(t *testing.T, point string, hit, appends int, batched bool) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm(fmt.Sprintf("%s:error@%d", point, hit)); err != nil {
		t.Fatal(err)
	}
	script, wantOK, want := scriptedAppends, hit-1, durableAfterCrash(point, hit-1)
	if batched {
		script = scriptedBatchAppends
		if hit > 1 && hit < appends { // the fault lands in the cell batch
			wantOK = 1
			switch point {
			case "store.append.before":
				want = 1
			case "store.append.torn":
				want = 1 + tornBatchKeeps(t, batchCells(appends-2))
			case "store.append.sync":
				want = appends - 1
			}
		}
	}
	ok, err := script(s, appends)
	var fault *faultinject.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("appends completed %d, err = %v, want injected fault", ok, err)
	}
	if fault.Hit != uint64(hit) {
		t.Fatalf("fault fired at record %d, want %d", fault.Hit, hit)
	}
	if ok != wantOK {
		t.Fatalf("completed %d appends before the fault, want %d", ok, wantOK)
	}
	// The wedge must latch: nothing written after the crash point.
	if err := s.AppendStatus("job-000001", "done", ""); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("append after wedge = %v, want the latched fault", err)
	}
	if s.Err() == nil {
		t.Fatal("Err() nil on a wedged store")
	}
	s.Close()
	faultinject.Disarm()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash at %s hit %d: %v", point, hit, err)
	}
	defer s2.Close()
	jobs := s2.Jobs()
	got := 0
	if len(jobs) > 0 {
		got = 1 + len(jobs[0].Cells)
		if jobs[0].Status != "" {
			got++
		}
		for i, c := range jobs[0].Cells {
			if c.Index != i {
				t.Fatalf("replayed cell %d has index %d: not a prefix of the write order", i, c.Index)
			}
		}
	}
	if got != want {
		t.Fatalf("replayed %d records, want %d (crash at %s hit %d)", got, want, point, hit)
	}
	// Recovery must leave a journal that keeps working.
	id := "job-000002"
	if err := s2.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	found := false
	for _, j := range s3.Jobs() {
		found = found || j.ID == id
	}
	if !found {
		t.Fatal("append after recovery did not survive a further reopen")
	}
}

// TestChaosCrashDuringCompaction kills the store between writing the
// compacted temp segment and renaming it into place: the old segment must
// stay authoritative and the temp debris must be swept at reopen.
func TestChaosCrashDuringCompaction(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		s.AppendSubmit(id, testScenario, 1, time.Now().UTC(), 0)
		s.AppendStatus(id, "done", "")
	}
	if err := faultinject.Arm("store.compact.rename:error@1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(func(id string) bool { return id == "job-000002" }); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Compact = %v, want injected fault", err)
	}
	s.Close()
	faultinject.Disarm()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jobs := s2.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("crashed compaction lost jobs: %+v", jobs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name != "journal-000001.wal" {
			t.Errorf("debris left after recovery: %s", name)
		}
	}
}

// TestChaosProbabilisticAppendStorm drives many journals under a seeded
// probabilistic fault and asserts the invariant that matters: whatever
// subset of appends survived, reopening always yields a consistent prefix
// (cells contiguous with what was acknowledged, never a record after the
// wedge). Deterministic seeds make a failure reproducible.
func TestChaosProbabilisticAppendStorm(t *testing.T) {
	rounds := 8
	if os.Getenv("CORONA_CHAOS") != "" {
		rounds = 64
	}
	for seed := 1; seed <= rounds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			defer faultinject.Disarm()
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Rotate through the three points, one armed per round.
			point := []string{"store.append.before", "store.append.torn", "store.append.sync"}[seed%3]
			if err := faultinject.Arm(fmt.Sprintf("%s:error:p=0.2:seed=%d", point, seed)); err != nil {
				t.Fatal(err)
			}
			ok, err := scriptedAppends(s, 10)
			s.Close()
			faultinject.Disarm()
			if err == nil {
				ok = 10 // the fault never fired this round
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			jobs := s2.Jobs()
			floor := ok // every acknowledged append must have survived
			if len(jobs) == 0 {
				if floor != 0 {
					t.Fatalf("acknowledged %d appends but replay found no job", floor)
				}
				return
			}
			got := 1 + len(jobs[0].Cells)
			if jobs[0].Status != "" {
				got++
			}
			if got < floor || got > floor+1 {
				t.Fatalf("replayed %d records with %d acknowledged (crash point %s)", got, floor, point)
			}
		})
	}
}

// TestAppendCellsEmptyBatch pins that an empty batch is a no-op: no byte
// written, no fsync, and no fault-point hit.
func TestAppendCellsEmptyBatch(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := s.AppendSubmit("job-000001", testScenario, 1, time.Now().UTC(), 0); err != nil {
		t.Fatal(err)
	}
	before := journalSize(t, dir)
	if err := faultinject.Arm("store.append.before:error@1,store.append.sync:error@1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCells("job-000001", nil); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}
	if n := faultinject.Hits("store.append.before") + faultinject.Hits("store.append.sync"); n != 0 {
		t.Fatalf("empty batch hit the append fault points %d times", n)
	}
	if after := journalSize(t, dir); after != before {
		t.Fatalf("empty batch grew the journal from %d to %d bytes", before, after)
	}
}

// TestWedgedStoreRefusesBatches pins that a batch after the wedge returns
// the latched error and writes nothing.
func TestWedgedStoreRefusesBatches(t *testing.T) {
	defer faultinject.Disarm()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if err := faultinject.Arm("store.append.before:error@1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit("job-000001", testScenario, 2, time.Now().UTC(), 0); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed submit = %v, want injected fault", err)
	}
	faultinject.Disarm()
	before := journalSize(t, dir)
	for _, cells := range [][]core.CellResult{batchCells(2), nil} {
		if err := s.AppendCells("job-000001", cells); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("batch of %d on a wedged store = %v, want the latched fault", len(cells), err)
		}
	}
	if after := journalSize(t, dir); after != before {
		t.Fatalf("wedged store grew the journal from %d to %d bytes", before, after)
	}
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	info, err := os.Stat(dir + "/journal-000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
