// Command hgserve is the verification daemon: an HTTP job queue over the
// engine layer (see docs/SERVER.md for the API). Checks, litmus runs and
// compiles submitted as jobs run on a bounded worker pool against one
// shared visited-set memory pool and one compiled-table artifact cache;
// progress streams over SSE; compiled tables download as .hgcf (or any
// textual emission). Logs are structured, one stream on stderr.
//
// Usage:
//
//	hgserve -addr :8080
//	hgserve -addr :8080 -job-workers 4 -max-job-workers 2
//	hgserve -mem-pool 4GiB -compile-cache ~/.cache/hg
//
// SIGTERM or SIGINT drains: the listener stops, queued and running jobs
// finish, then the process exits. A second signal hard-cancels every
// outstanding job (their partial results stay retrievable until exit).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"heterogen/internal/cliopts"
	"heterogen/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobWorkers := flag.Int("job-workers", 2, "jobs run concurrently")
	maxJobWorkers := flag.Int("max-job-workers", 0, "per-job search-parallelism budget (0 = no clamp)")
	memPool := flag.String("mem-pool", "", "server-wide visited-set memory pool, e.g. 4GiB (empty = unpooled)")
	compileCache := flag.String("compile-cache", "", "compiled-table artifact cache directory shared across jobs")
	backlog := flag.Int("backlog", 64, "queued-job limit before submissions get 503")
	progress := flag.Duration("progress", time.Second, "job progress report cadence")
	verbose := flag.Bool("v", false, "debug-level logging")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if err := run(*addr, *jobWorkers, *maxJobWorkers, *memPool, *compileCache, *backlog, *progress, log); err != nil {
		fmt.Fprintln(os.Stderr, "hgserve:", err)
		os.Exit(1)
	}
}

func run(addr string, jobWorkers, maxJobWorkers int, memPool, compileCache string, backlog int, progress time.Duration, log *slog.Logger) error {
	poolBytes, err := cliopts.ParseBytes(memPool)
	if err != nil {
		return fmt.Errorf("-mem-pool: %w", err)
	}
	srv := server.New(server.Config{
		JobWorkers:       jobWorkers,
		MaxWorkersPerJob: maxJobWorkers,
		MemPoolBytes:     poolBytes,
		CompileCache:     compileCache,
		Backlog:          backlog,
		ProgressEvery:    progress,
		Logger:           log,
	})

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Info("listening", "addr", addr, "job_workers", jobWorkers, "mem_pool_bytes", poolBytes)
		errCh <- hs.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		log.Info("draining on signal; queued and running jobs will finish", "signal", sig.String())
	}

	// Second signal during the drain hard-cancels outstanding jobs.
	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()
	for {
		select {
		case sig := <-sigCh:
			log.Warn("hard-cancelling outstanding jobs", "signal", sig.String())
			srv.HardCancel()
		case <-drained:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			log.Info("drained, exiting")
			return nil
		}
	}
}
