// Package server implements the corona-serve HTTP/JSON daemon: a small,
// job-oriented API over the core Client that lets remote callers submit
// experiment scenarios, watch their progress, and stream cell results as
// shards finish — the production-facing seam the context-aware engine was
// redesigned for.
//
// Endpoints:
//
//	POST   /v1/jobs              submit a scenario (the corona-sweep -config
//	                             JSON schema, plus an optional "timeout"
//	                             duration); 202 with the job id, 400 on
//	                             invalid input, 503 + Retry-After when the
//	                             queue is full
//	GET    /v1/jobs              list known jobs
//	GET    /v1/jobs/{id}         status and progress
//	GET    /v1/jobs/{id}/results NDJSON stream of completed cells, following
//	                             the job live until it finishes
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/fabrics           the registered interconnect catalog
//	GET    /healthz              liveness, queue depth/capacity, store state
//
// Jobs are admitted into a bounded queue and executed by a fixed set of
// runner goroutines; within one job, cells fan out over the client's worker
// pool, and all jobs share the client's on-disk result cache.
//
// Durability: with Options.Store set, every submission, completed cell, and
// terminal status is appended to the job journal. Cells are group-committed
// by a per-job writer off the stream path, and all of a job's cells are
// durable before its terminal status is observable. A daemon restarted
// against the same store directory replays the journal, restores finished
// jobs for querying, marks jobs that were still in flight "resuming", and
// re-runs only their missing cells (the recorded ones are fed back through
// core.Precomputed); deterministic seeding makes the merged result set
// byte-identical to an uninterrupted run. A graceful Close deliberately
// does NOT write a terminal status for interrupted jobs — that is what lets
// the next daemon resume them. See docs/OPERATIONS.md for the full
// failure-semantics table.
//
// Failure containment: a panicking cell fails only its own job (the core
// engine converts cell panics to *core.PanicError, and runJob has a second
// barrier), per-job wall-clock deadlines land jobs in "timed_out", and a
// wedged store degrades the daemon to in-memory operation with loud logs
// rather than killing it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/core"
	"corona/internal/faultinject"
	"corona/internal/noc"
	"corona/internal/store"
)

// Options configures a Server.
type Options struct {
	// Client executes submitted jobs; nil builds a default client
	// (GOMAXPROCS workers, no cache).
	Client *core.Client
	// QueueDepth bounds jobs admitted but not yet finished being picked up;
	// submissions beyond it are rejected with 503. Default 16. Jobs resumed
	// from the Store do not count against it.
	QueueDepth int
	// Runners is how many jobs execute concurrently. Default 1: cells within
	// a job already fan out over the client's worker pool, so more runners
	// trade per-job latency for cross-job fairness.
	Runners int
	// MaxBodyBytes bounds the scenario JSON accepted by POST /v1/jobs.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RetainJobs bounds how many finished jobs (and their accumulated cell
	// results) stay queryable: when a submission would exceed it, the oldest
	// terminal jobs are evicted (and eventually compacted out of the Store).
	// Live jobs are never evicted. Default 256.
	RetainJobs int
	// Store, when non-nil, is the durable job journal: submissions, cells,
	// and terminal statuses are persisted to it, and jobs it reports as
	// interrupted are resumed at startup. The caller owns the store and
	// closes it after Close. Nil runs fully in memory (the pre-durability
	// behavior).
	Store *store.Store
	// Logger receives structured job-lifecycle logs. Nil uses slog.Default().
	Logger *slog.Logger
	// Peers turns the daemon into a fleet coordinator: submitted campaigns
	// are split into contiguous cell shards, dispatched to these worker
	// daemons as shard sub-jobs, merged into one index-ordered stream, and
	// retried on surviving workers when a worker fails. Empty (the default)
	// executes jobs locally through Client.
	Peers []*Client
	// Tuning parameterizes the coordinator's availability layer (heartbeat
	// cadence, breaker thresholds, straggler speculation). Zero fields take
	// the documented defaults; ignored without Peers.
	Tuning FleetTuning
}

// Server owns the job registry, the bounded queue, and the runner pool.
// Create one with New, mount Handler on an http.Server, and Close it on
// shutdown.
type Server struct {
	client  *core.Client
	maxBody int64
	retain  int
	depth   int // configured queue depth (the admission bound)
	st      *store.Store
	log     *slog.Logger

	// Fleet coordination (empty on a plain daemon): the workers (each a
	// dispatch client plus its health state and circuit breaker), their
	// display names, the availability tuning, the dispatch/retry/speculation
	// counters /metrics exports, and the job-completion ring feeding the
	// drain-rate Retry-After estimator.
	workers   []*worker
	peerNames []string
	tuning    FleetTuning
	fleet     fleetMetrics
	doneMu    sync.Mutex
	doneTimes []time.Time

	started   time.Time     // for /metrics uptime
	cellsDone atomic.Uint64 // cells appended to any job, for /metrics

	mxMu     sync.Mutex     // guards the cells/sec scrape window
	mxScrape []scrapeSample // recent (time, cellsDone) samples

	ctx    context.Context // canceled by Close: stops every running job
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *job

	mu           sync.Mutex
	closed       bool
	nextID       uint64
	jobs         map[string]*job
	order        []string // job ids in submission order, for bounded eviction
	sinceCompact int      // evictions since the journal was last compacted
}

// New builds a Server, resumes any interrupted jobs found in the store, and
// starts the runner goroutines.
func New(opts Options) *Server {
	if opts.Client == nil {
		opts.Client = core.NewClient()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Runners <= 0 {
		opts.Runners = 1
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 256
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		client:  opts.Client,
		maxBody: opts.MaxBodyBytes,
		retain:  opts.RetainJobs,
		depth:   opts.QueueDepth,
		st:      opts.Store,
		log:     opts.Logger,
		tuning:  opts.Tuning.withDefaults(),
		started: time.Now(),
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
	}
	for _, p := range opts.Peers {
		s.workers = append(s.workers, newWorker(p, s.tuning))
		s.peerNames = append(s.peerNames, p.BaseURL())
	}
	resumed := s.restoreJobs()
	// Resumed jobs get dedicated queue slots so a full restart never
	// deadlocks against its own backlog or eats the admission budget.
	s.queue = make(chan *job, opts.QueueDepth+len(resumed))
	for _, j := range resumed {
		s.queue <- j
	}
	for i := 0; i < opts.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	for _, w := range s.workers {
		s.wg.Add(1)
		go s.heartbeatLoop(w)
	}
	return s
}

// restoreJobs replays the store into the in-memory registry: terminal jobs
// come back queryable (status, cells, stream), interrupted ones are marked
// "resuming" and returned for enqueueing. Callers run before the runners
// start, so no locking is needed yet.
func (s *Server) restoreJobs() []*job {
	if s.st == nil {
		return nil
	}
	var resumed []*job
	for _, js := range s.st.Jobs() {
		j := &job{
			id:        js.ID,
			total:     js.Total,
			submitted: js.Submitted,
			timeout:   js.Timeout,
			cells:     js.Cells,
		}
		j.cond = sync.NewCond(&j.mu)
		if n := parseJobID(js.ID); n > s.nextID {
			s.nextID = n
		}
		if js.Status != "" {
			j.status, j.errMsg = js.Status, js.Error
		} else if sc, subset, err := reparseSubmission(js.Scenario); err != nil {
			// The stored scenario no longer parses (schema drift, registry
			// change): fail it durably rather than retrying forever.
			j.status = statusFailed
			j.errMsg = "resume: " + err.Error()
			s.persistStatus(js.ID, statusFailed, j.errMsg)
			s.log.Error("job resume rejected", "job", js.ID, "err", err)
		} else {
			j.scenario, j.subset, j.raw = sc, subset, js.Scenario
			j.status = statusResuming
			j.restored = make(map[int]bool, len(js.Cells))
			for _, c := range js.Cells {
				j.restored[c.Index] = true
			}
			resumed = append(resumed, j)
			s.log.Info("job marked for resume", "job", js.ID,
				"done", len(js.Cells), "total", js.Total)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	return resumed
}

// reparseSubmission re-derives a journaled job's scenario and shard subset
// from the raw body the submit recorded; the stored Timeout field carries
// the deadline, so the extras timeout is not re-read here.
func reparseSubmission(body json.RawMessage) (*core.Scenario, []int, error) {
	sc, err := core.ParseScenario(body)
	if err != nil {
		return nil, nil, err
	}
	_, subset, err := parseExtras(body, len(sc.Configs)*len(sc.Workloads))
	if err != nil {
		return nil, nil, err
	}
	return sc, subset, nil
}

// parseJobID extracts the sequence number from a "job-NNNNNN" id, 0 when it
// does not fit the shape.
func parseJobID(id string) uint64 {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Close rejects further submissions, cancels queued and running jobs, and
// waits for the runners to drain. Completed cells keep their cache entries
// and journal records; interrupted jobs are deliberately left without a
// terminal status in the journal, so the next daemon on this store resumes
// them.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/fabrics", s.handleFabrics)
	return mux
}

// Job lifecycle states. "resuming" is the restart path: the job was
// interrupted by a crash or shutdown and is queued to re-run its missing
// cells. "timed_out" is terminal: the job's submitted wall-clock deadline
// expired.
const (
	statusQueued   = "queued"
	statusResuming = "resuming"
	statusRunning  = "running"
	statusDone     = "done"
	statusFailed   = "failed"
	statusCanceled = "canceled"
	statusTimedOut = "timed_out"
)

// job is one submitted scenario and everything observers need: state,
// accumulated cells (the NDJSON stream replays them to late readers), and a
// cond that broadcasts every state or cell change.
type job struct {
	id        string
	scenario  *core.Scenario // nil for restored terminal jobs
	total     int
	submitted time.Time
	timeout   time.Duration

	// subset is the shard-subset of matrix indices this job executes (the
	// submission's "cells" field); nil runs the full matrix. raw is the
	// submitted scenario body, kept for fleet dispatch (the coordinator
	// rewrites it per shard) and recovered from the journal on resume.
	subset []int
	raw    json.RawMessage

	// restored marks cell indices replayed from the journal (resumed jobs
	// only): they are already in cells, already durable, and must not be
	// double-appended when the resumed sweep re-surfaces them. It is filled
	// before the job is queued and only read afterwards.
	restored map[int]bool

	// journal commits the job's published cells to the store; installed by
	// startJob before any cell is published, nil without a store.
	journal *cellWriter

	mu       sync.Mutex
	cond     *sync.Cond
	status   string
	cells    []core.CellResult
	errMsg   string
	canceled bool               // cancel requested (possibly before running)
	cancel   context.CancelFunc // non-nil while running
}

func newJob(id string, sc *core.Scenario, timeout time.Duration, subset []int, raw json.RawMessage) *job {
	total := len(sc.Configs) * len(sc.Workloads)
	if subset != nil {
		total = len(subset)
	}
	j := &job{
		id:        id,
		scenario:  sc,
		total:     total,
		submitted: time.Now().UTC(),
		timeout:   timeout,
		subset:    subset,
		raw:       raw,
		status:    statusQueued,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// terminal reports whether the job has reached a final state. Callers hold
// j.mu.
func (j *job) terminal() bool {
	switch j.status {
	case statusDone, statusFailed, statusCanceled, statusTimedOut:
		return true
	}
	return false
}

// JobView is the JSON shape of a job for status responses (and the shape
// Client decodes).
type JobView struct {
	ID         string    `json:"id"`
	Status     string    `json:"status"`
	Done       int       `json:"done"`
	Total      int       `json:"total"`
	Error      string    `json:"error,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Timeout    string    `json:"timeout,omitempty"`
	ResultsURL string    `json:"results_url"`
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Status:     j.status,
		Done:       len(j.cells),
		Total:      j.total,
		Error:      j.errMsg,
		Submitted:  j.submitted,
		ResultsURL: "/v1/jobs/" + j.id + "/results",
	}
	if j.timeout > 0 {
		v.Timeout = j.timeout.String()
	}
	return v
}

// persistSubmit/persistStatus write through to the journal when one is
// configured; cells go through the job's cellWriter. A store failure (a
// wedged journal, a dead disk) is loud but not fatal: the daemon degrades
// to in-memory operation — visible in /healthz — rather than dying
// mid-campaign.
func (s *Server) persistSubmit(id string, scenario []byte, total int, submitted time.Time, timeout time.Duration) {
	if s.st == nil {
		return
	}
	if err := s.st.AppendSubmit(id, scenario, total, submitted, timeout); err != nil {
		s.log.Error("job store write failed; durability degraded", "job", id, "record", "submit", "err", err)
	}
}

func (s *Server) persistStatus(id, status, errMsg string) {
	if s.st == nil {
		return
	}
	if err := s.st.AppendStatus(id, status, errMsg); err != nil {
		s.log.Error("job store write failed; durability degraded", "job", id, "record", "status", "err", err)
	}
}

// cellWriter group-commits one job's cells to the journal off the stream
// path. Publishers enqueue without blocking on I/O; one goroutine drains
// whatever has queued into a single store.AppendCells — one write, one
// fsync — while the next batch queues behind it. Cells commit in enqueue
// order. The job closes its writer before its terminal status becomes
// visible, so every streamed cell is durable by the time a client sees the
// job finish. A nil *cellWriter (no store) drops everything.
type cellWriter struct {
	st  *store.Store
	log *slog.Logger
	id  string

	mu      sync.Mutex
	wake    *sync.Cond
	queue   []core.CellResult
	closing bool
	done    chan struct{} // closed once run has committed everything and exited
}

func (s *Server) newCellWriter(id string) *cellWriter {
	if s.st == nil {
		return nil
	}
	w := &cellWriter{st: s.st, log: s.log, id: id, done: make(chan struct{})}
	w.wake = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// enqueue queues one published cell for the next batch. It must not be
// called after close.
func (w *cellWriter) enqueue(c core.CellResult) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.queue = append(w.queue, c)
	w.mu.Unlock()
	w.wake.Signal()
}

// close commits every queued cell, stops the writer, and returns once the
// last batch is durable (or the store has refused it). Calling it again is
// harmless.
func (w *cellWriter) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.closing = true
	w.mu.Unlock()
	w.wake.Signal()
	<-w.done
}

func (w *cellWriter) run() {
	defer close(w.done)
	var batch []core.CellResult
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closing {
			w.wake.Wait()
		}
		if len(w.queue) == 0 {
			w.queue = nil // a finished job keeps its writer, not its buffers
			w.mu.Unlock()
			return
		}
		// Swap buffers: the committed batch's array takes the next queue.
		batch, w.queue = w.queue, batch[:0]
		w.mu.Unlock()
		if err := w.st.AppendCells(w.id, batch); err != nil {
			w.log.Error("job store write failed; durability degraded", "job", w.id,
				"record", "cell", "cells", len(batch), "err", err)
		}
	}
}

// publish appends a completed cell to the job, wakes its observers, and
// queues the cell for the journal, so the journal's cell order is the
// stream's whenever publishers are serialized.
func (s *Server) publish(j *job, c core.CellResult) {
	j.mu.Lock()
	j.cells = append(j.cells, c)
	j.cond.Broadcast()
	j.mu.Unlock()
	j.journal.enqueue(c)
	s.cellsDone.Add(1)
}

// runner executes queued jobs until the queue closes: locally on a plain
// daemon, scattered across the worker fleet on a coordinator.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		if len(s.workers) > 0 {
			s.runFleetJob(j)
		} else {
			s.runJob(j)
		}
	}
}

// containPanic is the runner's backstop barrier, installed with defer: core
// already converts cell panics into errors, so anything recovered here is a
// bug in the job plumbing itself — fail the one job, keep the daemon and
// its sibling jobs alive.
func (s *Server) containPanic(j *job) {
	if v := recover(); v != nil {
		msg := fmt.Sprintf("job runner panicked: %v", v)
		s.log.Error("job runner panic contained", "job", j.id, "panic", v,
			"stack", string(debug.Stack()))
		j.journal.close()
		j.mu.Lock()
		if !j.terminal() {
			j.status, j.errMsg = statusFailed, msg
			j.cancel = nil
			j.cond.Broadcast()
			j.mu.Unlock()
			s.persistStatus(j.id, statusFailed, msg)
			return
		}
		j.mu.Unlock()
	}
}

// startJob moves a dequeued job into "running": it installs the cancel
// function (bounded by the job's deadline when one was submitted) and the
// journal's cell writer, and returns the run context. ok=false means there
// is nothing to run — the job was finalized while queued, or the daemon is
// shutting down, in which case the job is marked canceled WITHOUT a
// journaled terminal status so the next daemon on this store resumes it.
func (s *Server) startJob(j *job) (ctx context.Context, cancel context.CancelFunc, from string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal() {
		// Canceled while queued: handleCancel already finalized the state.
		return nil, nil, "", false
	}
	if j.canceled || s.ctx.Err() != nil {
		j.status = statusCanceled
		j.errMsg = "canceled before start"
		j.cond.Broadcast()
		return nil, nil, "", false
	}
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(s.ctx, j.timeout)
	} else {
		ctx, cancel = context.WithCancel(s.ctx)
	}
	j.cancel = cancel
	j.journal = s.newCellWriter(j.id)
	from = j.status
	j.status = statusRunning
	j.cond.Broadcast()
	return ctx, cancel, from, true
}

// finishJob commits the job's queued cells, then maps the run's terminal
// error onto the job state machine and persists the verdict — except for a
// shutdown-interrupted job, which must stay statusless in the journal so
// the next daemon resumes it exactly where the cells left off. Committing
// first keeps the journal's submit → cells → status order and makes every
// streamed cell durable before the terminal status is visible.
func (s *Server) finishJob(j *job, err error, started time.Time) {
	j.journal.close()
	j.mu.Lock()
	j.cancel = nil
	var status, detail string
	switch {
	case err == nil:
		status = statusDone
	case errors.Is(err, context.DeadlineExceeded) && j.timeout > 0 && !j.canceled:
		status = statusTimedOut
		detail = fmt.Sprintf("deadline %v exceeded: %v", j.timeout, err)
	case isCancellation(err):
		status = statusCanceled
		detail = err.Error()
	default:
		status = statusFailed
		detail = err.Error()
		var pe *core.PanicError
		if errors.As(err, &pe) {
			s.log.Error("cell panic contained", "job", j.id, "panic", pe.Value,
				"stack", string(pe.Stack))
		}
	}
	j.status, j.errMsg = status, detail
	j.cond.Broadcast()
	userCanceled := j.canceled
	done := len(j.cells)
	j.mu.Unlock()

	interrupted := status == statusCanceled && !userCanceled && s.ctx.Err() != nil
	if !interrupted {
		s.persistStatus(j.id, status, detail)
		s.noteJobDone(time.Now())
	}
	s.log.Info("job finished", "job", j.id, "status", status,
		"done", done, "total", j.total, "duration", time.Since(started).Round(time.Millisecond),
		"interrupted", interrupted, "err", detail)
}

func (s *Server) runJob(j *job) {
	defer s.containPanic(j)
	ctx, cancel, from, ok := s.startJob(j)
	if !ok {
		return
	}
	defer cancel()
	j.mu.Lock()
	resumedCells := len(j.restored)
	j.mu.Unlock()
	s.log.Info("job running", "job", j.id, "from", from,
		"total", j.total, "resumed_cells", resumedCells, "timeout", j.timeout)
	started := time.Now()

	// A resumed job feeds its journal-recorded cells back as precomputed
	// results: the engine re-runs only the missing ones, deterministically
	// identical to what an uninterrupted run would have produced. A shard
	// sub-job (a coordinator-dispatched slice of a campaign) runs only its
	// subset of the matrix.
	var opts []core.Option
	if j.subset != nil {
		opts = append(opts, core.Subset(j.subset))
	}
	if resumedCells > 0 {
		pre := make(map[int]core.Result, resumedCells)
		j.mu.Lock()
		for _, c := range j.cells {
			pre[c.Index] = c.Result
		}
		j.mu.Unlock()
		opts = append(opts, core.Precomputed(pre))
	}

	// server.shard.run is the fleet chaos point: arming it kills a worker's
	// shard sub-job at pickup, the coarsest failure a coordinator must retry
	// (core.cell.run covers the mid-shard cell-level one).
	var cj *core.Job
	var err error
	if j.subset != nil {
		err = faultinject.Fire("server.shard.run")
	}
	if err == nil {
		cj, err = s.client.Submit(ctx, j.scenario.Sweep(), opts...)
	}
	if err == nil {
		for cell := range cj.Results() {
			if j.restored[cell.Index] {
				// Already durable and already in cells from the journal.
				continue
			}
			s.publish(j, cell)
		}
		err = cj.Wait(context.Background())
	}
	s.finishJob(j, err, started)
}

// isCancellation reports a context cancellation or deadline, wrapped or not.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// evictLocked drops the oldest terminal jobs once the registry exceeds the
// retention bound, so a long-lived daemon's memory stays proportional to
// retain + live jobs rather than to its submission history. Live (queued or
// running) jobs are never evicted. Once enough evictions accumulate, the
// journal is compacted so disk tracks the registry too. Callers hold s.mu.
func (s *Server) evictLocked() {
	evicted := 0
	for i := 0; len(s.jobs) > s.retain && i < len(s.order); {
		j := s.jobs[s.order[i]]
		j.mu.Lock()
		dead := j.terminal()
		j.mu.Unlock()
		if !dead {
			i++
			continue
		}
		delete(s.jobs, s.order[i])
		s.order = append(s.order[:i], s.order[i+1:]...)
		evicted++
	}
	if evicted == 0 || s.st == nil {
		return
	}
	// Compact once an eighth of the retention window has been evicted —
	// often enough to bound the journal, rare enough that steady-state
	// submissions do not rewrite it every time.
	if s.sinceCompact += evicted; s.sinceCompact*8 < s.retain {
		return
	}
	s.sinceCompact = 0
	keep := make(map[string]bool, len(s.jobs))
	for id := range s.jobs {
		keep[id] = true
	}
	if err := s.st.Compact(func(id string) bool { return keep[id] }); err != nil {
		s.log.Error("journal compaction failed", "err", err)
	}
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeUnavailable is the 503 path: every queue-full or shutting-down
// rejection carries a Retry-After hint (seconds) so backoff clients have a
// real signal instead of a guess.
func writeUnavailable(w http.ResponseWriter, retryAfter int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeError(w, http.StatusServiceUnavailable, msg)
}

// HealthView is the /healthz body: liveness plus the backpressure and
// durability signals a fleet scheduler (or a backoff client) needs. It is
// exported because it is also the shape Client.Health decodes — the fleet
// heartbeat reads QueueDepth/QueueCapacity for admission accounting. On a
// coordinator, Workers reports the health registry's per-worker verdicts.
type HealthView struct {
	Status        string         `json:"status"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          int            `json:"jobs"`
	Live          int            `json:"live"`
	Store         string         `json:"store"`
	Workers       []WorkerHealth `json:"workers,omitempty"`
}

// WorkerHealth is one worker's row in a coordinator's /healthz: the health
// state machine's verdict (healthy/suspect/dead/recovered), the circuit
// breaker's state (closed/open/half_open), and the queue figures its last
// live heartbeat reported.
type WorkerHealth struct {
	Name          string `json:"name"`
	State         string `json:"state"`
	Breaker       string `json:"breaker"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	v := HealthView{
		Status:        "ok",
		QueueDepth:    len(s.queue),
		QueueCapacity: s.depth,
		Jobs:          len(s.jobs),
	}
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if !j.terminal() {
			v.Live++
		}
		j.mu.Unlock()
	}
	switch {
	case s.st == nil:
		v.Store = "disabled"
	case s.st.Err() != nil:
		v.Store = "wedged: " + s.st.Err().Error()
	default:
		v.Store = "ok"
	}
	for _, wk := range s.workers {
		v.Workers = append(v.Workers, wk.snapshot())
	}
	writeJSON(w, http.StatusOK, v)
}

// submitExtras are the submission fields that belong to the serving layer,
// not the scenario: they ride in the same JSON body (core.ParseScenario
// ignores unknown fields) so one POST carries both.
type submitExtras struct {
	// Timeout is an optional per-job wall-clock deadline ("90s", "15m").
	// When it expires the job lands in "timed_out".
	Timeout string `json:"timeout"`
	// Cells restricts the job to a subset of the scenario's cell matrix —
	// the shard-subset protocol a fleet coordinator uses to scatter one
	// campaign across worker daemons. Omitted runs the full matrix.
	Cells *cellRange `json:"cells"`
}

// cellRange selects matrix cells by linear index (row*len(configs)+col):
// either a contiguous half-open range {"lo": L, "hi": H} or an explicit
// {"list": [i, j, ...]}. Deterministic per-cell seeding makes a subset
// job's results byte-identical to the same cells of a full run, so a
// coordinator can merge shards from many workers into one single-node-
// identical stream.
type cellRange struct {
	Lo   *int  `json:"lo"`
	Hi   *int  `json:"hi"`
	List []int `json:"list"`
}

// resolve expands the selector into validated cell indices for a
// total-cell matrix.
func (c *cellRange) resolve(total int) ([]int, error) {
	switch {
	case c.List != nil && (c.Lo != nil || c.Hi != nil):
		return nil, fmt.Errorf(`cells: "list" and "lo"/"hi" are mutually exclusive`)
	case c.List != nil:
		if len(c.List) == 0 {
			return nil, fmt.Errorf("cells: list selects no cells")
		}
		seen := make(map[int]bool, len(c.List))
		for _, i := range c.List {
			if i < 0 || i >= total {
				return nil, fmt.Errorf("cells: index %d outside the %d-cell matrix", i, total)
			}
			if seen[i] {
				return nil, fmt.Errorf("cells: index %d duplicated", i)
			}
			seen[i] = true
		}
		return c.List, nil
	case c.Lo != nil && c.Hi != nil:
		lo, hi := *c.Lo, *c.Hi
		if lo < 0 || hi > total || lo >= hi {
			return nil, fmt.Errorf("cells: range [%d,%d) invalid for the %d-cell matrix", lo, hi, total)
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		return idx, nil
	default:
		return nil, fmt.Errorf(`cells: want {"lo": L, "hi": H} or {"list": [i, ...]}`)
	}
}

// parseExtras decodes the serving-layer submission fields riding the
// scenario body. It is also the resume path's way to recover a journaled
// job's shard subset, so it must accept every body handleSubmit accepted.
func parseExtras(body []byte, total int) (timeout time.Duration, subset []int, err error) {
	var extras submitExtras
	if err := json.Unmarshal(body, &extras); err != nil {
		return 0, nil, fmt.Errorf("submission fields: %w", err)
	}
	if extras.Timeout != "" {
		timeout, err = time.ParseDuration(extras.Timeout)
		if err != nil || timeout <= 0 {
			return 0, nil, fmt.Errorf("timeout %q is not a positive duration", extras.Timeout)
		}
	}
	if extras.Cells != nil {
		if subset, err = extras.Cells.resolve(total); err != nil {
			return 0, nil, err
		}
	}
	return timeout, subset, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("scenario body exceeds %d bytes", s.maxBody))
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return
	}
	sc, err := core.ParseScenario(body)
	if err != nil {
		// Every ParseScenario rejection is a *core.ConfigError — the
		// caller's input, not our failure — hence 400 across the board.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, subset, err := parseExtras(body, len(sc.Configs)*len(sc.Workloads))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(s.workers) > 0 {
		// Coordinator overload control: admit only what the fleet can absorb.
		// Accepting a campaign no live worker can take just parks it behind a
		// saturated queue; shedding it now with a measured Retry-After lets
		// the client's backoff do something useful.
		if retry, reason, ok := s.fleetAdmission(); !ok {
			s.log.Warn("campaign shed by fleet admission control",
				"reason", reason, "retry_after", retry)
			writeUnavailable(w, retry, reason)
			return
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeUnavailable(w, retryAfterShutdown, "server is shutting down")
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%06d", s.nextID), sc, timeout, subset, body)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.evictLocked()
		s.mu.Unlock()
	default:
		s.nextID-- // the id was never visible
		s.mu.Unlock()
		retry := retryAfterFull
		if len(s.workers) > 0 {
			// A coordinator knows its drain rate; hint with a measurement.
			retry = s.drainRetryAfter()
		}
		writeUnavailable(w, retry, "job queue full; retry later")
		return
	}
	s.persistSubmit(j.id, body, j.total, j.submitted, timeout)
	s.log.Info("job submitted", "job", j.id, "cells", j.total, "timeout", timeout)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

// Retry-After hints, in seconds. A full queue usually drains within a job
// or two; a shutting-down daemon will not come back on its own, so steer
// clients away for longer.
const (
	retryAfterFull     = 2
	retryAfterShutdown = 60
)

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		views = append(views, j.view())
	}
	// Zero-padded sequential ids make lexical order submission order.
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleResults streams the job's cells as NDJSON — one core.CellResult per
// line — replaying already-completed cells immediately and then following
// the live job until it reaches a terminal state or the client goes away.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ctx := r.Context()
	// cond.Wait cannot watch a context, so a disconnecting client pokes the
	// cond awake and the wait loop re-checks ctx.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	for i := 0; ; i++ {
		j.mu.Lock()
		for len(j.cells) <= i && !j.terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		if ctx.Err() != nil || len(j.cells) <= i {
			j.mu.Unlock()
			return // client gone, or job finished with no further cells
		}
		cell := j.cells[i]
		j.mu.Unlock()
		if enc.Encode(cell) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	j.mu.Lock()
	j.canceled = true
	finalizedNow := false
	switch {
	case j.cancel != nil:
		// Running: the runner observes the context and finalizes the state.
		j.cancel()
	case !j.terminal():
		// Still queued: finalize immediately so status reflects the cancel
		// now; the runner skips terminal jobs when it dequeues this one.
		j.status = statusCanceled
		j.errMsg = "canceled while queued"
		finalizedNow = true
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	if finalizedNow {
		// A user cancel is a real terminal state: persist it so a restart
		// does not resurrect the job.
		s.persistStatus(j.id, statusCanceled, "canceled while queued")
		s.log.Info("job canceled while queued", "job", j.id)
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// fabricView is one row of the interconnect catalog: the registry metadata
// at the paper's 64-cluster scale.
type fabricView struct {
	Name             string  `json:"name"`
	Display          string  `json:"display"`
	Description      string  `json:"description,omitempty"`
	BisectionTBs     float64 `json:"bisection_tbs,omitempty"`
	MinTransitCycles uint64  `json:"min_transit_cycles,omitempty"`
}

func (s *Server) handleFabrics(w http.ResponseWriter, _ *http.Request) {
	views := []fabricView{}
	for _, name := range noc.Names() {
		f, ok := noc.Lookup(name)
		if !ok {
			continue
		}
		v := fabricView{
			Name:             name,
			Display:          noc.DisplayName(name),
			Description:      f.Description,
			MinTransitCycles: uint64(f.MinTransitCycles),
		}
		if f.BisectionBytesPerSec != nil {
			// The analytic metadata is quoted at the paper's 64-cluster scale,
			// matching corona-inventory -table fabrics.
			v.BisectionTBs = f.BisectionBytesPerSec(noc.FabricParams{Clusters: 64}) / 1e12
		}
		views = append(views, v)
	}
	writeJSON(w, http.StatusOK, views)
}
