// /metrics: a flat text exposition (Prometheus-style `name{labels} value`
// lines, hand-rolled — no client library) of the job table, the shared
// memory pool, the compile cache, the aggregate search throughput and the
// process's heap.

package server

import (
	"fmt"
	"net/http"
	"runtime/metrics"
	"time"
)

// goMetrics maps exposition names to the runtime/metrics samples they
// report (both uint64-valued).
var goMetrics = [...]struct{ name, sample string }{
	{"hgserve_go_heap_bytes", "/memory/classes/heap/objects:bytes"},
	{"hgserve_go_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	counts := s.jobs.counts()
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "hgserve_jobs{state=%q} %d\n", string(st), counts[st])
	}
	fmt.Fprintf(w, "hgserve_jobs_run_total %d\n", s.jobsRun.Load())
	fmt.Fprintf(w, "hgserve_states_total %d\n", s.statesTotal.Load())

	// Instantaneous throughput: the latest progress report of every
	// running job (each report carries its own window rate).
	var rate float64
	for _, j := range s.jobs.list() {
		if s.jobs.state(j) != StateRunning {
			continue
		}
		if p := s.jobs.latestProgress(j); p != nil {
			rate += p.StatesPerSec
		}
	}
	fmt.Fprintf(w, "hgserve_states_per_second %.1f\n", rate)

	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	fmt.Fprintf(w, "hgserve_compile_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "hgserve_compile_cache_misses_total %d\n", misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "hgserve_compile_cache_hit_ratio %.3f\n", ratio)

	fmt.Fprintf(w, "hgserve_mem_pool_bytes{kind=\"total\"} %d\n", s.pool.Total())
	fmt.Fprintf(w, "hgserve_mem_pool_bytes{kind=\"used\"} %d\n", s.pool.Used())

	fmt.Fprintf(w, "hgserve_retained_bytes %d\n", s.jobs.retainedBytes())
	var samples [len(goMetrics)]metrics.Sample
	for i, m := range goMetrics {
		samples[i].Name = m.sample
	}
	metrics.Read(samples[:])
	for i, m := range goMetrics {
		fmt.Fprintf(w, "%s %d\n", m.name, samples[i].Value.Uint64())
	}

	fmt.Fprintf(w, "hgserve_uptime_seconds %.0f\n", time.Since(s.start).Seconds())
}
