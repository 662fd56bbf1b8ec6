package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/store"
)

// journaledCells reads the store directory's raw journal frames — no replay,
// so nothing is deduplicated — and returns the cell indices recorded for
// job id in append order, and whether a terminal status record follows
// them (a status frame before any of the job's cells fails the test).
func journaledCells(t *testing.T, dir, id string) (cells []int, status bool) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments in %s = %v (err %v), want exactly one", dir, segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if off+8+n > len(data) {
			t.Fatalf("journal ends in a partial frame at byte %d", off)
		}
		var rec store.Record
		if err := json.Unmarshal(data[off+8:off+8+n], &rec); err != nil {
			t.Fatalf("journal frame at byte %d: %v", off, err)
		}
		off += 8 + n
		if rec.Job != id {
			continue
		}
		switch rec.Type {
		case "cell":
			if status {
				t.Fatalf("cell %d journaled after the job's status", rec.Cell.Index)
			}
			cells = append(cells, rec.Cell.Index)
		case "status":
			status = true
		}
	}
	return cells, status
}

// streamedIndices drains the job's NDJSON results and returns the cell
// indices in stream order.
func streamedIndices(t *testing.T, c *Client, id string) []int {
	t.Helper()
	var idx []int
	if err := c.Stream(context.Background(), id, func(cell core.CellResult) error {
		idx = append(idx, cell.Index)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestJournalHoldsEveryStreamedCellBeforeDone pins the cell writer's
// durability order for both execution engines, with fsync on: the moment a
// job reports done, its journal already holds every cell it streamed,
// exactly once, ahead of any status record — and a coordinator's journal
// holds them in the merge's ascending index order.
func TestJournalHoldsEveryStreamedCellBeforeDone(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fleet    bool
		scenario string
	}{
		{"single-node", false, fleetScenario},
		{"coordinator", true, fleetScenario},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Logger: discardLogger()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() }) // after the servers' cleanups
			opts := Options{Store: st, Client: core.NewClient(core.WithWorkers(2))}
			var ts *httptest.Server
			if tc.fleet {
				_, ts, _ = newFleet(t, 2, Options{}, opts)
			} else {
				_, ts = newTestServer(t, opts)
			}
			v, resp := postScenario(t, ts, tc.scenario)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			waitStatus(t, ts, v.ID, statusDone)
			journaled, _ := journaledCells(t, dir, v.ID)

			streamed := streamedIndices(t, NewClient(ts.URL), v.ID)
			if len(streamed) != 6 {
				t.Fatalf("streamed %d cells, want 6", len(streamed))
			}
			if tc.fleet {
				if !slices.Equal(journaled, streamed) || !slices.IsSorted(journaled) {
					t.Fatalf("journal cells %v, want the streamed %v in ascending order", journaled, streamed)
				}
				return
			}
			slices.Sort(journaled)
			slices.Sort(streamed)
			if !slices.Equal(journaled, streamed) {
				t.Fatalf("journal cells %v, want each streamed cell %v exactly once", journaled, streamed)
			}
		})
	}
}

// TestGracefulShutdownDrainsJournalWriter closes the daemon in the middle
// of a job: by the time Close returns, every cell the job published is in
// the journal exactly once, and the job has no status record, so the next
// daemon resumes it.
func TestGracefulShutdownDrainsJournalWriter(t *testing.T) {
	slow := `{"configs": [{"preset": "XBar/OCM"}],
		"workloads": ["Uniform", "Hot Spot", "Tornado", "Transpose"],
		"requests": 200000, "seed": 3}`
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Store: st, Client: core.NewClient(core.WithWorkers(1)), Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v, resp := postScenario(t, ts, slow)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, _ := getStatus(t, ts, v.ID)
		if got.Done >= 1 {
			break
		}
		if got.Status != statusRunning && got.Status != statusQueued || time.Now().After(deadline) {
			t.Fatalf("job at %q with %d cells; wanted it running with a cell done", got.Status, got.Done)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	j := s.lookup(v.ID)
	j.mu.Lock()
	var published []int
	for _, c := range j.cells {
		published = append(published, c.Index)
	}
	j.mu.Unlock()
	if len(published) == 4 {
		t.Fatal("the job finished before Close; nothing was interrupted")
	}
	journaled, status := journaledCells(t, dir, v.ID)
	if status {
		t.Fatal("an interrupted job got a status record; the next daemon would not resume it")
	}
	if !slices.Equal(journaled, published) {
		t.Fatalf("journal cells %v after Close, want the published %v exactly once", journaled, published)
	}
}
