package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
)

// testServer builds a server with quiet logs and an httptest front end,
// and tears both down with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 5 * time.Millisecond
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.HardCancel()
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// postJob submits one request body and returns the accepted job ID.
func postJob(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	return j.ID
}

// getJob fetches a job's JSON view.
func getJob(t *testing.T, ts *httptest.Server, id string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls a job until it reaches a terminal state (or the given
// one) and returns its final view.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) map[string]json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m := getJob(t, ts, id)
		var state JobState
		json.Unmarshal(m["state"], &state)
		if state == want || (want == "" && state.Terminal()) {
			return m
		}
		if state.Terminal() {
			t.Fatalf("job %s ended %q while waiting for %q: %s", id, state, want, m["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, state, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentChecksMatchDirect submits two check jobs at once and
// verifies both results are byte-identical to the engine run the CLI
// would have done directly — the server adds queueing, not semantics.
func TestConcurrentChecksMatchDirect(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 2})
	reqJSON := `{"check":{"protocol":"MSI","caches":2,"addrs":1,"search":{"workers":1,"hash":true}}}`
	id1 := postJob(t, ts, reqJSON)
	id2 := postJob(t, ts, reqJSON)

	direct, err := engine.Check(context.Background(), engine.CheckRequest{
		Protocol: "MSI", Caches: 2, Addrs: 1,
		Search: engine.SearchOptions{Workers: 1, Hash: true},
	}, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)

	for _, id := range []string{id1, id2} {
		m := waitState(t, ts, id, StateDone)
		got := m["result"]
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			t.Fatalf("job %s result differs from the direct engine run:\n got %s\nwant %s", id, got, want)
		}
	}
}

// textKinds are the textual artifact kinds a compile job downloads as.
var textKinds = []string{"table", "pcc", "murphi", "dot"}

// download fetches one kind of a job's artifact.
func download(t *testing.T, ts *httptest.Server, id, kind string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact?kind=" + kind)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || len(data) == 0 {
		t.Fatalf("job %s artifact %s: status %d, %d bytes: %s", id, kind, resp.StatusCode, len(data), data)
	}
	return data
}

// directEmits compiles req as the CLI does and emits its table in every
// kind.
func directEmits(t *testing.T, req engine.CompileRequest) map[string][]byte {
	t.Helper()
	r, err := engine.Compile(context.Background(), req, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, kind := range append([]string{"hgcf"}, textKinds...) {
		var b bytes.Buffer
		if err := engine.Emit(r.Compiled(), kind, &b); err != nil {
			t.Fatal(err)
		}
		out[kind] = b.Bytes()
	}
	return out
}

// compileJob runs one compile job to done and returns its ID and its
// result's source and digest.
func compileJob(t *testing.T, ts *httptest.Server, body string) (id, source, digest string) {
	t.Helper()
	id = postJob(t, ts, body)
	m := waitState(t, ts, id, StateDone)
	var res struct {
		Stats struct {
			Source string `json:"Source"`
		} `json:"stats"`
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(m["result"], &res); err != nil {
		t.Fatalf("decoding compile result: %v (%s)", err, m["result"])
	}
	return id, res.Stats.Source, res.Digest
}

// metricsText fetches /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// TestCompileCacheAcrossJobs: the second identical compile job is served
// from the server's shared artifact cache. Both jobs download the cache
// file's bytes as hgcf, and every textual kind as the CLI's direct
// compile emits it. (A request cannot name a cache directory of its own:
// TestSubmitRejectsUnknownFields.)
func TestCompileCacheAcrossJobs(t *testing.T) {
	cache := t.TempDir()
	_, ts := testServer(t, Config{JobWorkers: 1, CompileCache: cache})
	body := `{"compile":{"pair":["MSI","MSI"],"search":{"workers":1}}}`
	want := directEmits(t, engine.CompileRequest{Pair: []string{"MSI", "MSI"}, Search: engine.SearchOptions{Workers: 1}})

	var sources, ids []string
	var digest string
	for i := 0; i < 2; i++ {
		id, source, d := compileJob(t, ts, body)
		ids, sources, digest = append(ids, id), append(sources, source), d
	}
	if sources[0] != "compiler" || sources[1] != "cache" {
		t.Fatalf("compile sources %v, want [compiler cache]", sources)
	}
	if entries, err := os.ReadDir(cache); err != nil {
		t.Fatal(err)
	} else if len(entries) != 1 {
		t.Errorf("%s holds %d entries, want 1", cache, len(entries))
	}
	file, err := os.ReadFile(filepath.Join(cache, digest+core.ArtifactExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want["hgcf"]) {
		t.Fatal("the cache file differs from the direct compile's artifact")
	}
	for i, id := range ids {
		if got := download(t, ts, id, "hgcf"); !bytes.Equal(got, file) {
			t.Errorf("job %s (%s): hgcf download differs from the cache file (%d vs %d bytes)", id, sources[i], len(got), len(file))
		}
		for _, kind := range textKinds {
			if got := download(t, ts, id, kind); !bytes.Equal(got, want[kind]) {
				t.Errorf("job %s (%s): %s download differs from the direct compile's emit", id, sources[i], kind)
			}
		}
	}

	metrics := metricsText(t, ts)
	for _, want := range []string{
		"hgserve_compile_cache_hits_total 1",
		"hgserve_compile_cache_misses_total 1",
		`hgserve_jobs{state="done"} 2`,
		"hgserve_mem_pool_bytes",
		"hgserve_states_total",
		"hgserve_retained_bytes ",
		"hgserve_go_heap_bytes ",
		"hgserve_go_gc_cycles_total ",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCompileWithoutCache: a server with no compile cache serves a
// compile job's downloads byte for byte as the direct compile emits them,
// and an unknown kind is a 400.
func TestCompileWithoutCache(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1})
	want := directEmits(t, engine.CompileRequest{Pair: []string{"MSI", "RCC"}, Search: engine.SearchOptions{Workers: 1}})
	id, source, _ := compileJob(t, ts, `{"compile":{"pair":["MSI","RCC"],"search":{"workers":1}}}`)
	if source != "compiler" {
		t.Fatalf("compile source %q, want compiler", source)
	}
	for _, kind := range append([]string{"hgcf"}, textKinds...) {
		if got := download(t, ts, id, kind); !bytes.Equal(got, want[kind]) {
			t.Errorf("%s download differs from the direct compile's emit (%d vs %d bytes)", kind, len(got), len(want[kind]))
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact?kind=svg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown artifact kind: status %d, want 400", resp.StatusCode)
	}
}

// TestFinishedJobsKeepOnlyWireForm: after 8 compile jobs the job table
// retains at most their artifacts and rendered results, and no finished
// job still holds its request, context or subscribers; cancelling a
// finished job leaves it as it is.
func TestFinishedJobsKeepOnlyWireForm(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1, CompileCache: t.TempDir()})
	var sum, artifacts int
	for i := 0; i < 8; i++ {
		pair := [][2]string{{"MSI", "MSI"}, {"MSI", "RCC"}}[i%2]
		id, _, _ := compileJob(t, ts, fmt.Sprintf(`{"compile":{"pair":[%q,%q],"search":{"workers":1}}}`, pair[0], pair[1]))
		n := len(download(t, ts, id, "hgcf"))
		artifacts += n
		sum += n + len(getJob(t, ts, id)["result"])

		j, _ := srv.jobs.get(id)
		srv.jobs.mu.Lock()
		held := j.request != nil || j.runCtx != nil || j.cancel != nil || j.subs != nil
		srv.jobs.mu.Unlock()
		if held {
			t.Fatalf("finished job %s still holds its request, context or subscribers", id)
		}
		if state := srv.jobs.requestCancel(j); state != StateDone {
			t.Fatalf("cancelling finished job %s left it %s", id, state)
		}
	}
	var retained int
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		if v, ok := strings.CutPrefix(line, "hgserve_retained_bytes "); ok {
			retained, _ = strconv.Atoi(v)
		}
	}
	if retained < artifacts || retained > sum {
		t.Fatalf("hgserve_retained_bytes %d, want between the artifacts' %d and their sum with the results, %d", retained, artifacts, sum)
	}
}

// TestCancelRunningJob starts a deliberately large check, watches its SSE
// stream for progress, cancels it over the API and verifies the partial
// result comes back flagged — then reruns a small job to show the worker
// survived.
func TestCancelRunningJob(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1, MemPoolBytes: 256 << 20})
	// MESI×RCC-O at 2 caches/cluster runs for minutes uncancelled; the
	// max_states bound keeps the worst case finite if cancellation broke.
	id := postJob(t, ts, `{"check":{"pair":["MESI","RCC-O"],"caches":2,
		"search":{"workers":1,"hash":true,"max_states":4000000}}}`)
	waitState(t, ts, id, StateRunning)

	// SSE: read events until the first progress report proves the search
	// is actually expanding states.
	sseResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sc := bufio.NewScanner(sseResp.Body)
	sawEvent := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			sawEvent = true
		}
		if strings.HasPrefix(line, "event: progress") {
			break
		}
		if strings.HasPrefix(line, "event: state") {
			// Keep reading; progress may follow.
			continue
		}
	}
	if !sawEvent {
		t.Fatal("SSE stream delivered no events")
	}

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()

	m := waitState(t, ts, id, StateCancelled)
	var res struct {
		Cancelled bool `json:"Cancelled"`
		States    int  `json:"States"`
	}
	if err := json.Unmarshal(m["result"], &res); err != nil {
		t.Fatalf("decoding cancelled result: %v (%s)", err, m["result"])
	}
	if !res.Cancelled || res.States == 0 {
		t.Fatalf("cancelled job result: Cancelled=%v States=%d", res.Cancelled, res.States)
	}
	if used := srv.Pool().Used(); used != 0 {
		t.Fatalf("memory pool still holds %d bytes after the cancelled job", used)
	}

	// The worker pool is intact: a follow-up job completes.
	id2 := postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id2, StateDone)
}

// TestMemPoolBoundsExactJobs: the server-wide memory pool bounds every
// search, exact storage included. Under a 64 KiB pool a default (exact)
// check job of 3,614 states ends truncated with BudgetFull, and a compile
// job's extraction fails as truncated instead of growing the daemon; the
// pool is empty after each, and a search that fits still completes.
func TestMemPoolBoundsExactJobs(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1, MemPoolBytes: 64 << 10})
	emptyPool := func(after string) {
		t.Helper()
		if used := srv.Pool().Used(); used != 0 {
			t.Fatalf("memory pool holds %d bytes after %s", used, after)
		}
	}

	id := postJob(t, ts, `{"check":{"protocol":"MSI","caches":2,"addrs":1,"search":{"workers":1}}}`)
	m := waitState(t, ts, id, StateDone)
	var res struct {
		Truncated  bool   `json:"Truncated"`
		BudgetFull bool   `json:"BudgetFull"`
		Storage    string `json:"Storage"`
		States     int    `json:"States"`
	}
	if err := json.Unmarshal(m["result"], &res); err != nil {
		t.Fatalf("decoding check result: %v (%s)", err, m["result"])
	}
	if !res.Truncated || !res.BudgetFull || res.Storage != "exact" || res.States >= 3614 {
		t.Fatalf("exact check under a 64 KiB pool: %+v, want a BudgetFull truncation short of 3614 states", res)
	}
	emptyPool("the truncated check")

	id = postJob(t, ts, `{"compile":{"pair":["MSI","RCC"],"full":true}}`)
	m = waitState(t, ts, id, StateFailed)
	var msg string
	json.Unmarshal(m["error"], &msg)
	if !strings.Contains(msg, core.ErrCompileTruncated.Error()) || !strings.Contains(msg, "memory budget") {
		t.Fatalf("compile under a 64 KiB pool failed with %q, want a memory-budget %q", msg, core.ErrCompileTruncated)
	}
	emptyPool("the truncated compile")

	id = postJob(t, ts, `{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1}}}`)
	m = waitState(t, ts, id, StateDone)
	res.Truncated = true
	if err := json.Unmarshal(m["result"], &res); err != nil || res.Truncated {
		t.Fatalf("small check under the pool: %+v (%v), want a complete search", res, err)
	}
	emptyPool("the small check")
}

// TestSubmitRejectsUnknownFields: a request naming a field the API does
// not have — the removed "bitstate", "symmetry" and "spill_dir" knobs,
// the retired "compiled" and "compile_cache" fields (a client cannot
// redirect the server's artifact cache), a misspelling, an unknown job
// kind — or carrying trailing data or a negative search size fails with a
// 400 naming the problem, and no job is queued that would run the
// defaults instead.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1})
	for body, want := range map[string]string{
		`{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1,"bitstate":true}}}`:    `unknown field "bitstate"`,
		`{"check":{"pair":["MSI","RCC"],"caches":1,"addrs":1,"compiled":true}}`:                       `unknown field "compiled"`,
		`{"compile":{"pair":["MSI","MSI"],"search":{"workers":1,"compile_cache":"/tmp/elsewhere"}}}`:  `unknown field "compile_cache"`,
		`{"check":{"protocol":"MSI","cache":1}}`:                                                      `unknown field "cache"`,
		`{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1,"symmetry":true}}}`:    `unknown field "symmetry"`,
		`{"compile":{"pair":["MSI","MSI"],"search":{"symmetry":true}}}`:                               `unknown field "symmetry"`,
		`{"verify":{"protocol":"MSI"}}`:                                                               `unknown field "verify"`,
		`{"check":{"protocol":"MSI","caches":1,"addrs":1,"search":{"workers":1,"spill_dir":"/tmp"}}}`: `unknown field "spill_dir"`,
		`{"check":{"protocol":"MSI","search":{"mem_budget":-1048576}}}`:                               "search.mem_budget -1048576 must not be negative",
		`{"litmus":{"protocol":"MSI","search":{"max_states":-1}}}`:                                    "search.max_states -1 must not be negative",
		`{"compile":{"pair":["MSI","MSI"],"search":{"workers":-2}}}`:                                  "search.workers -2 must not be negative",
		`{"litmus":{"protocol":"MSI","max_threads":-1}}`:                                              "max_threads -1 must not be negative",
		`{"check":{"protocol":"MSI"}} {"check":{"protocol":"MSI"}}`:                                   "trailing data",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
			t.Errorf("body %s: status %d, error %q; want 400 naming %s", body, resp.StatusCode, e.Error, want)
		}
	}
	if n := len(srv.jobs.list()); n != 0 {
		t.Fatalf("%d jobs queued from rejected requests", n)
	}
}

// TestSubmitValidationAndHealth covers the request envelope rules, 404s
// and the health endpoint's drain behavior.
func TestSubmitValidationAndHealth(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1})

	for _, body := range []string{`{}`, `{"check":{},"compile":{"pair":["MSI","MSI"]}}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"check":{"protocol":"MSI"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestWorkerBudgetClamp pins the per-job parallelism budget: a request
// asking for the whole machine gets the server's cap instead.
func TestWorkerBudgetClamp(t *testing.T) {
	srv := New(Config{JobWorkers: 1, MaxWorkersPerJob: 2,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Drain()
	for req, want := range map[int]int{0: 2, 8: 2, 1: 1} {
		got := srv.applyPolicy(engine.SearchOptions{Workers: req}).Workers
		if got != want {
			t.Errorf("workers %d clamped to %d, want %d", req, got, want)
		}
	}
}

// TestPanickingJobFailsOnlyThatJob: a panic inside a job's run fails that
// job with an internal error, and the worker goes on to run the next job.
// A check job carrying a litmus request panics in run's type assertion.
func TestPanickingJobFailsOnlyThatJob(t *testing.T) {
	srv, ts := testServer(t, Config{JobWorkers: 1})
	bad, err := srv.Submit(KindCheck, &engine.LitmusRequest{})
	if err != nil {
		t.Fatal(err)
	}
	m := waitState(t, ts, bad.ID, StateFailed)
	var msg string
	json.Unmarshal(m["error"], &msg)
	if !strings.HasPrefix(msg, "internal error: ") || !strings.Contains(msg, "*engine.LitmusRequest") {
		t.Fatalf("panicking job error %q, want the internal error from the type assertion", msg)
	}
	id := postJob(t, ts, `{"check":{"protocol":"MSI","caches":2,"addrs":1,"search":{"workers":1}}}`)
	waitState(t, ts, id, StateDone)
}
