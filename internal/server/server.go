// Package server is the hgserve verification daemon: an HTTP control
// plane over the engine layer. Requests become queued jobs; a bounded
// worker pool runs them under cancellable contexts against one shared
// visited-set memory accountant and one compiled-table artifact cache, so
// a fleet of checks behaves like one well-budgeted process instead of N
// independent ones. Progress streams to clients over SSE, compiled
// artifacts are downloadable, and /metrics exposes the pool, the cache
// and the job table.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
)

// Config sizes the daemon.
type Config struct {
	// JobWorkers is the number of jobs run concurrently (0 = 2).
	JobWorkers int
	// MaxWorkersPerJob clamps each job's search parallelism — the
	// per-job worker budget. A request asking for 0 (all cores) or more
	// than the budget gets exactly the budget. 0 = no clamp.
	MaxWorkersPerJob int
	// MemPoolBytes sizes the server-wide visited-set memory pool every
	// job's storage acquires from (0 = no shared pool; each job budgets
	// independently).
	MemPoolBytes int64
	// CompileCache is the content-addressed compiled-table cache
	// directory every compile job reads and writes — the cross-request
	// table cache ("" = none). Requests cannot name another.
	CompileCache string
	// Backlog bounds the queued-job count (0 = 64); submissions beyond
	// it are rejected with 503.
	Backlog int
	// ProgressEvery is the progress cadence jobs report at (0 = 1s).
	ProgressEvery time.Duration
	// Logger receives the structured server log (nil = slog.Default).
	Logger *slog.Logger
}

// Server is the daemon state shared by the worker pool and the handlers.
type Server struct {
	cfg  Config
	log  *slog.Logger
	jobs *jobs
	pool *mcheck.MemPool

	// base is the context every job context derives from; hard-cancel
	// fires it.
	base       context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool
	closeOnce  sync.Once
	wg         sync.WaitGroup
	start      time.Time

	// Metrics counters (see metrics.go).
	jobsRun     atomic.Int64
	statesTotal atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 64
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		jobs:       newJobs(cfg.Backlog),
		base:       base,
		cancelBase: cancel,
		start:      time.Now(),
	}
	if cfg.MemPoolBytes > 0 {
		s.pool = mcheck.NewMemPool(cfg.MemPoolBytes)
	}
	for w := 0; w < cfg.JobWorkers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// Submit validates defaults onto a request and queues it. The returned
// job is already visible to GET and DELETE.
func (s *Server) Submit(kind JobKind, req any) (*Job, error) {
	if s.draining.Load() {
		return nil, fmt.Errorf("server is draining, not accepting jobs")
	}
	j, err := s.jobs.submit(s.base, kind, req)
	if err != nil {
		return nil, err
	}
	s.log.Info("job queued", "job", j.ID, "kind", string(kind))
	return j, nil
}

// worker drains the queue until Close closes it.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for j := range s.jobs.queue {
		if !s.jobs.start(j) {
			continue // cancelled while queued
		}
		s.run(j)
	}
}

// run executes one job against the engine.
func (s *Server) run(j *Job) {
	s.jobsRun.Add(1)
	log := s.log.With("job", j.ID, "kind", string(j.Kind))
	log.Info("job started")
	// A panic in an engine call (a component bug, or one re-raised from a
	// search worker) fails this job; the worker goes on to the next.
	defer func() {
		if r := recover(); r != nil {
			log.Error("job panicked", "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
			s.jobs.finish(j, nil, nil, fmt.Errorf("internal error: %v", r))
			log.Info("job finished", "state", string(s.jobs.state(j)))
		}
	}()
	ctx := j.runCtx
	hooks := engine.Hooks{
		ProgressEvery: s.cfg.ProgressEvery,
		OnProgress: func(p engine.Progress) {
			s.jobs.progress(j, p)
		},
		OnCompiled: func(name string, stats core.CompileStats) {
			if stats.Source == core.SourceCache {
				s.cacheHits.Add(1)
			} else {
				s.cacheMisses.Add(1)
			}
			log.Info("table ready", "fusion", name, "source", stats.Source,
				"extract_states", stats.ExtractStates)
		},
		MemPool:      s.pool,
		CompileCache: s.cfg.CompileCache,
	}

	var result any
	var artifact []byte
	var err error
	switch j.Kind {
	case KindCheck:
		req := *j.request.(*engine.CheckRequest)
		req.Search = s.applyPolicy(req.Search)
		var r *engine.CheckResult
		r, err = engine.Check(ctx, req, hooks)
		if r != nil {
			result = r
			s.statesTotal.Add(int64(r.States))
		}
	case KindLitmus:
		req := *j.request.(*engine.LitmusRequest)
		req.Search = s.applyPolicy(req.Search)
		var r *engine.LitmusResult
		r, err = engine.Litmus(ctx, req, hooks)
		if r != nil {
			result = r
			for _, t := range r.Results {
				s.statesTotal.Add(int64(t.States))
			}
		}
	case KindCompile:
		req := *j.request.(*engine.CompileRequest)
		req.Search = s.applyPolicy(req.Search)
		var r *engine.CompileResult
		r, err = engine.Compile(ctx, req, hooks)
		if r != nil {
			result = r
			artifact = r.Compiled().Artifact()
			s.statesTotal.Add(int64(r.Stats.ExtractStates))
		}
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	s.jobs.finish(j, result, artifact, err)
	log.Info("job finished", "state", string(j.State), "elapsed", j.Ended.Sub(j.Started).String())
}

// applyPolicy imposes the server's budgets on a request's search
// options: the per-job worker clamp.
func (s *Server) applyPolicy(o engine.SearchOptions) engine.SearchOptions {
	if max := s.cfg.MaxWorkersPerJob; max > 0 && (o.Workers == 0 || o.Workers > max) {
		o.Workers = max
	}
	return o
}

// Drain stops accepting jobs and, once the queued backlog and running
// jobs finish, returns. Safe to call more than once.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.closeOnce.Do(func() { s.jobs.closeQueue() })
	s.wg.Wait()
}

// HardCancel fires every outstanding job's context (second-signal
// shutdown): running searches return partial Cancelled results, queued
// jobs go terminal immediately.
func (s *Server) HardCancel() {
	s.draining.Store(true)
	for _, j := range s.jobs.list() {
		s.jobs.requestCancel(j)
	}
	s.cancelBase()
}

// Pool exposes the shared accountant (nil when unconfigured).
func (s *Server) Pool() *mcheck.MemPool { return s.pool }

// Handler builds the HTTP API (see handlers.go for the routes).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.routes(mux)
	return mux
}
