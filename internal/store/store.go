// Package store persists corona-serve's job registry as a schema-versioned,
// append-only journal, so a daemon killed at any instant restarts with every
// submission, every completed cell, and every terminal status it had durably
// written — the durability layer the restart-resume guarantee is built on.
//
// On-disk layout: the journal lives in one segment file, journal-NNNNNN.wal,
// inside the store directory. A segment is a sequence of frames
//
//	uint32 payload length (little endian)
//	uint32 CRC-32C of the payload (little endian)
//	payload (one JSON-encoded Record)
//
// whose first frame is a header record carrying the schema version. Appends
// go to the end of the highest-numbered segment, one write per call (a
// batch of cells is one call), and are fsynced by default. Replay tolerates
// a truncated or torn tail — a crash mid-append leaves a short or
// CRC-invalid final frame, which Open discards by truncating the file back
// to the last good frame, exactly as if the torn frame had never been
// started. Compaction (dropping evicted jobs, squeezing out superseded
// frames) writes a brand-new next-numbered segment through a temp file and
// an atomic rename, like the sweep cache's entry writes: a crash during
// compaction leaves either the old segment intact or the new one complete,
// never a half state. Open deletes leftover temp files and any superseded
// lower-numbered segments.
//
// Failure semantics: the first append or compaction error — a real disk
// failure or an injected one (internal/faultinject, points
// "store.append.before", "store.append.torn", "store.append.sync",
// "store.compact.rename"; the append points count one hit per record and
// fire at most once per batch) — wedges the store: the error is remembered,
// every later operation returns it, and nothing more is written. A wedged
// store is how the chaos suite models a machine dying at a write point: no
// byte after the failure reaches the journal, and reopening the directory
// must recover everything before it. See docs/OPERATIONS.md.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
)

// Schema versions the journal's record layout. Bump it whenever Record or
// core.CellResult gains, loses, or reinterprets a field; Open refuses a
// journal written by a different schema rather than resurrecting
// wrong-shaped jobs.
const Schema = 1

// maxFrame bounds a frame payload; anything larger on replay is corruption,
// not data (a whole 6x15 sweep cell is ~1 KiB).
const maxFrame = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal frame's payload. Type selects which fields are
// meaningful.
type Record struct {
	// Type is "header", "submit", "cell", or "status".
	Type string `json:"type"`
	// Schema is set on header records only.
	Schema int `json:"schema,omitempty"`
	// Job identifies the job every non-header record belongs to.
	Job string `json:"job,omitempty"`

	// Submit fields: the raw scenario JSON exactly as POSTed (re-parsed on
	// resume, so a stored job replays through the same validation as a live
	// one), the matrix size, the submission time, and the optional per-job
	// wall-clock deadline in nanoseconds.
	Scenario  json.RawMessage `json:"scenario,omitempty"`
	Total     int             `json:"total,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Timeout   time.Duration   `json:"timeout,omitempty"`

	// Cell is one completed sweep cell.
	Cell *core.CellResult `json:"cell,omitempty"`

	// Status fields: a terminal state ("done", "failed", "canceled",
	// "timed_out") and its error detail.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobState is one job as reconstructed by replay: its submission, every
// durably recorded cell (deduplicated by index, in append order), and its
// terminal status — or Status == "" for a job the daemon was still working
// on when it died, which the server resumes.
type JobState struct {
	ID        string
	Scenario  json.RawMessage
	Total     int
	Submitted time.Time
	Timeout   time.Duration
	Cells     []core.CellResult
	Status    string
	Error     string
}

// Options configures Open.
type Options struct {
	// Logger receives replay summaries, tail-truncation warnings, and wedge
	// reports. Nil uses slog.Default().
	Logger *slog.Logger
	// NoSync skips the per-append fsync. Appends then survive a process
	// crash (the OS has the bytes) but not a machine crash; meant for tests
	// and benchmarks.
	NoSync bool
}

// Store is an open journal. Its methods are safe for concurrent use.
type Store struct {
	dir string
	log *slog.Logger
	nos bool

	mu     sync.Mutex
	f      *os.File
	seg    int
	broken error
	enc    *frameEncoder // reused by every append and compaction

	jobs  map[string]*JobState
	order []string // job ids in first-submit order
	seen  map[string]map[int]bool
}

// Open opens (creating if needed) the journal in dir and replays it.
func Open(dir string, opts Options) (*Store, error) {
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:  dir,
		log:  log,
		nos:  opts.NoSync,
		enc:  newFrameEncoder(),
		jobs: make(map[string]*JobState),
		seen: make(map[string]map[int]bool),
	}
	seg, stale, err := scanSegments(dir)
	if err != nil {
		return nil, err
	}
	// Superseded segments and orphaned temp files are debris from a
	// completed (or crashed) compaction; the highest segment is the journal.
	for _, p := range stale {
		os.Remove(p)
	}
	if seg == 0 {
		seg = 1
	}
	s.seg = seg
	f, err := os.OpenFile(s.segPath(seg), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) segPath(seg int) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%06d.wal", seg))
}

// scanSegments returns the highest segment number in dir (0 when none) and
// the paths of everything superseded: lower-numbered segments and leftover
// compaction temp files.
func scanSegments(dir string) (int, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	highest, paths := 0, map[int]string{}
	var stale []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			stale = append(stale, filepath.Join(dir, name))
			continue
		}
		num, ok := strings.CutPrefix(name, "journal-")
		num, ok2 := strings.CutSuffix(num, ".wal")
		if !ok || !ok2 {
			continue
		}
		n, err := strconv.Atoi(num)
		if err != nil || n <= 0 {
			continue
		}
		paths[n] = filepath.Join(dir, name)
		if n > highest {
			highest = n
		}
	}
	for n, p := range paths {
		if n != highest {
			stale = append(stale, p)
		}
	}
	return highest, stale, nil
}

// replay reads the active segment, applies every intact frame, truncates a
// torn tail, and leaves the file positioned for appends. A fresh (empty)
// segment gets its header frame written here.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	var (
		off     int64 // end of the last intact frame
		n       int
		header  bool
		hdr     [8]byte
		payload []byte
	)
	for off < size {
		if size-off < int64(len(hdr)) {
			break // torn frame header
		}
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("store: replay read: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > maxFrame || off+8+int64(length) > size {
			break // absurd length or torn payload
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := s.f.ReadAt(payload, off+8); err != nil {
			return fmt.Errorf("store: replay read: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != crc {
			break // torn or bit-flipped frame
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // CRC-valid JSON garbage should be impossible; treat as tail
		}
		if !header {
			if rec.Type != "header" {
				return fmt.Errorf("store: %s does not start with a header frame", s.f.Name())
			}
			if rec.Schema != Schema {
				return fmt.Errorf("store: journal schema %d, this build speaks %d (migrate or move the directory aside)", rec.Schema, Schema)
			}
			header = true
		} else {
			s.apply(rec)
		}
		off += 8 + int64(length)
		n++
	}
	if off < size {
		s.log.Warn("store: truncating torn journal tail",
			"segment", s.f.Name(), "good_bytes", off, "dropped_bytes", size-off)
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if !header {
		// Brand-new segment (or one that died before the header landed).
		if err := s.writeFrames([]Record{{Type: "header", Schema: Schema}}); err != nil {
			return err
		}
		return nil
	}
	if _, err := s.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	interrupted := 0
	for _, js := range s.jobs {
		if js.Status == "" {
			interrupted++
		}
	}
	s.log.Info("store: journal replayed",
		"segment", s.f.Name(), "frames", n, "jobs", len(s.jobs), "interrupted", interrupted)
	return nil
}

// apply folds one replayed (or just-appended) record into the job state.
func (s *Store) apply(rec Record) {
	switch rec.Type {
	case "submit":
		if rec.Job == "" {
			return
		}
		if _, dup := s.jobs[rec.Job]; dup {
			s.log.Warn("store: duplicate submit record ignored", "job", rec.Job)
			return
		}
		s.jobs[rec.Job] = &JobState{
			ID:        rec.Job,
			Scenario:  rec.Scenario,
			Total:     rec.Total,
			Submitted: rec.Submitted,
			Timeout:   rec.Timeout,
		}
		s.order = append(s.order, rec.Job)
		s.seen[rec.Job] = make(map[int]bool)
	case "cell":
		js := s.jobs[rec.Job]
		if js == nil || rec.Cell == nil || s.seen[rec.Job][rec.Cell.Index] {
			return
		}
		s.seen[rec.Job][rec.Cell.Index] = true
		js.Cells = append(js.Cells, *rec.Cell)
	case "status":
		if js := s.jobs[rec.Job]; js != nil {
			js.Status, js.Error = rec.Status, rec.Error
		}
	}
}

// frameEncoder encodes records as frames (length, CRC-32C, JSON payload)
// into one reusable buffer, so appending a batch or rewriting the whole
// journal allocates no per-record payload.
type frameEncoder struct {
	buf []byte
	enc *json.Encoder // writes into buf through Write
}

func newFrameEncoder() *frameEncoder {
	e := &frameEncoder{}
	e.enc = json.NewEncoder(e)
	return e
}

// Write appends the JSON encoder's output to the buffer.
func (e *frameEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// frame appends rec's frame to the buffer.
func (e *frameEncoder) frame(rec *Record) error {
	start := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	if err := e.enc.Encode(rec); err != nil {
		e.buf = e.buf[:start]
		return err
	}
	e.buf = e.buf[:len(e.buf)-1] // Encode's trailing newline; the payload is json.Marshal's bytes
	payload := e.buf[start+8:]
	binary.LittleEndian.PutUint32(e.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(e.buf[start+4:], crc32.Checksum(payload, crcTable))
	return nil
}

// writeFrames encodes recs, writes all their frames with one write at the
// current file position, and fsyncs once (unless NoSync). The fault points
// bracket the batch, each counting one hit per record and firing at most
// once, so the chaos suite can kill the store before any byte of the batch,
// mid-write (the first half of the batch's bytes reach the disk, ending in
// a torn frame), or after the write. Any failure wedges the store. Callers
// hold s.mu (or are Open's single-threaded replay).
func (s *Store) writeFrames(recs []Record) error {
	if err := faultinject.FireN("store.append.before", len(recs)); err != nil {
		return s.wedge(err)
	}
	s.enc.buf = s.enc.buf[:0]
	for i := range recs {
		if err := s.enc.frame(&recs[i]); err != nil {
			return s.wedge(fmt.Errorf("store: encoding record: %w", err))
		}
	}
	buf := s.enc.buf
	if err := faultinject.FireN("store.append.torn", len(recs)); err != nil {
		// Simulated crash mid-write: half the batch reaches the disk, the
		// rest never does. Replay keeps the whole frames and discards the
		// torn one.
		s.f.Write(buf[:len(buf)/2])
		return s.wedge(err)
	}
	if _, err := s.f.Write(buf); err != nil {
		return s.wedge(fmt.Errorf("store: append: %w", err))
	}
	if err := faultinject.FireN("store.append.sync", len(recs)); err != nil {
		// Simulated crash after the write: the frames are on disk (the chaos
		// suite asserts they survive) but the caller sees a dead store.
		return s.wedge(err)
	}
	if !s.nos {
		if err := s.f.Sync(); err != nil {
			return s.wedge(fmt.Errorf("store: fsync: %w", err))
		}
	}
	return nil
}

// wedge latches the store's first error: every later operation returns it
// and no further bytes are written, so nothing can land in the journal
// after a torn frame.
func (s *Store) wedge(err error) error {
	if s.broken == nil {
		s.broken = err
		s.log.Error("store: wedged; no further writes will be attempted", "err", err)
	}
	return s.broken
}

// append serializes, writes, and applies a batch of records.
func (s *Store) append(recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if len(recs) == 0 {
		return nil
	}
	if err := s.writeFrames(recs); err != nil {
		return err
	}
	for _, rec := range recs {
		s.apply(rec)
	}
	return nil
}

// AppendSubmit durably records a new job: its raw scenario JSON, matrix
// size, submission time, and optional deadline.
func (s *Store) AppendSubmit(id string, scenario json.RawMessage, total int, submitted time.Time, timeout time.Duration) error {
	if id == "" {
		return errors.New("store: empty job id")
	}
	return s.append(Record{Type: "submit", Job: id, Scenario: scenario,
		Total: total, Submitted: submitted, Timeout: timeout})
}

// AppendCell durably records one completed cell of a job: the one-cell
// case of AppendCells.
func (s *Store) AppendCell(id string, cell core.CellResult) error {
	return s.append(Record{Type: "cell", Job: id, Cell: &cell})
}

// AppendCells durably records a batch of a job's completed cells, in order,
// with one write and one fsync. It succeeds or fails as a unit: on error
// the store is wedged and no cell of the batch is acknowledged, although a
// prefix of its frames may have reached the disk. An empty batch writes
// and syncs nothing.
func (s *Store) AppendCells(id string, cells []core.CellResult) error {
	recs := make([]Record, len(cells))
	for i := range cells {
		recs[i] = Record{Type: "cell", Job: id, Cell: &cells[i]}
	}
	return s.append(recs...)
}

// AppendStatus durably records a job's terminal status. Jobs without one
// are considered interrupted and are resumed by the next daemon to open the
// store.
func (s *Store) AppendStatus(id, status, errMsg string) error {
	return s.append(Record{Type: "status", Job: id, Status: status, Error: errMsg})
}

// Jobs returns every known job in first-submit order. The returned states
// are copies; mutating them does not affect the store.
func (s *Store) Jobs() []JobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobState, 0, len(s.order))
	for _, id := range s.order {
		js := s.jobs[id]
		cp := *js
		cp.Cells = append([]core.CellResult(nil), js.Cells...)
		out = append(out, cp)
	}
	return out
}

// Err returns the error that wedged the store, or nil while it is healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Compact rewrites the journal as a fresh next-numbered segment containing
// only the jobs keep reports true for (nil keeps everything), dropping
// evicted jobs and duplicate frames. The new segment is written to a temp
// file, fsynced, and renamed into place — a crash mid-compaction leaves the
// old segment authoritative — and only then is the old segment deleted.
func (s *Store) Compact(keep func(id string) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	next := s.seg + 1
	dst := s.segPath(next)
	tmp, err := os.CreateTemp(s.dir, "compact-*.tmp")
	if err != nil {
		return s.wedge(fmt.Errorf("store: compact: %w", err))
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	var kept []string
	for _, id := range s.order {
		if keep == nil || keep(id) {
			kept = append(kept, id)
		}
	}
	frames, err := s.writeCompacted(tmp, kept)
	if err != nil {
		tmp.Close()
		return s.wedge(err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return s.wedge(fmt.Errorf("store: compact sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return s.wedge(fmt.Errorf("store: compact close: %w", err))
	}
	if err := faultinject.Fire("store.compact.rename"); err != nil {
		return s.wedge(err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return s.wedge(fmt.Errorf("store: compact rename: %w", err))
	}
	syncDir(s.dir)
	f, err := os.OpenFile(dst, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return s.wedge(fmt.Errorf("store: compact reopen: %w", err))
	}
	old := s.f
	oldPath := s.segPath(s.seg)
	s.f, s.seg = f, next
	old.Close()
	os.Remove(oldPath)
	// Drop evicted jobs from the in-memory state to match the new segment.
	if len(kept) != len(s.order) {
		keptSet := make(map[string]bool, len(kept))
		for _, id := range kept {
			keptSet[id] = true
		}
		for id := range s.jobs {
			if !keptSet[id] {
				delete(s.jobs, id)
				delete(s.seen, id)
			}
		}
		s.order = kept
	}
	s.log.Info("store: compacted", "segment", dst, "jobs", len(kept), "frames", frames)
	return nil
}

// writeCompacted streams the header and the kept jobs' records into the
// compaction temp file through the encoder, in writes of about 64 KiB, and
// returns how many frames it wrote.
func (s *Store) writeCompacted(tmp *os.File, kept []string) (int, error) {
	frames := 0
	rec := new(Record) // one reused record: encoding makes it escape
	s.enc.buf = s.enc.buf[:0]
	flush := func() error {
		_, err := tmp.Write(s.enc.buf)
		s.enc.buf = s.enc.buf[:0]
		if err != nil {
			return fmt.Errorf("store: compact write: %w", err)
		}
		return nil
	}
	emit := func(r Record) error {
		*rec = r
		frames++
		if err := s.enc.frame(rec); err != nil {
			return fmt.Errorf("store: compact encode: %w", err)
		}
		if len(s.enc.buf) < 64<<10 {
			return nil
		}
		return flush()
	}
	if err := emit(Record{Type: "header", Schema: Schema}); err != nil {
		return 0, err
	}
	for _, id := range kept {
		js := s.jobs[id]
		if err := emit(Record{Type: "submit", Job: id, Scenario: js.Scenario,
			Total: js.Total, Submitted: js.Submitted, Timeout: js.Timeout}); err != nil {
			return 0, err
		}
		for i := range js.Cells {
			if err := emit(Record{Type: "cell", Job: id, Cell: &js.Cells[i]}); err != nil {
				return 0, err
			}
		}
		if js.Status != "" {
			if err := emit(Record{Type: "status", Job: id, Status: js.Status, Error: js.Error}); err != nil {
				return 0, err
			}
		}
	}
	return frames, flush()
}

// syncDir fsyncs a directory so a just-renamed file survives power loss;
// best-effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close syncs and closes the journal. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	var err error
	if s.broken == nil && !s.nos {
		err = s.f.Sync()
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// SortCells orders cells by matrix index — the canonical order restart-
// resume equivalence is asserted in, since completion order is inherently
// timing-dependent at any worker count.
func SortCells(cells []core.CellResult) {
	sort.Slice(cells, func(a, b int) bool { return cells[a].Index < cells[b].Index })
}
