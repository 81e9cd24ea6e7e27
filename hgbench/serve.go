package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/server"
)

// Serve-mix shape: every job type repeats serveRepeats times in a
// seed-shuffled sequence, driven by serveClients closed-loop clients.
const (
	serveRepeats = 4
	serveClients = 2
)

// serveMix drives an in-process hgserve on loopback: a closed loop of
// serveClients clients, each submitting its next job only after the
// previous one's terminal SSE state event. The daemon runs one job at a
// time, one search worker per job, against a compile cache that set-up
// fills, so compile jobs load their tables from it.
type serveMix struct {
	base
	exp *expectations
	out string

	srv    *server.Server
	hs     *http.Server
	client *http.Client
	url    string
	cache  string
	types  []serveJob
	seq    []int // indexes into types
	serveW sync.WaitGroup
}

// serveJob is one job type of the mix.
type serveJob struct {
	key    string // expectation key
	body   string // POST /v1/jobs body
	digest string // compile jobs: the table's content digest
}

// serveJobTypes lists the mix: homogeneous checks of the Table I
// protocols at 2 caches, of the self-invalidating ones at 3, fused checks
// of the Table II pairs at 1 cache per cluster (all 1 address), and quick
// Table II compiles of the pairs. It compiles each pair's table into
// cache, so the daemon's compile jobs load it from there.
func serveJobTypes(tr *Tracer, cache string) ([]serveJob, error) {
	var out []serveJob
	check := func(proto string, caches int) {
		out = append(out, serveJob{
			key:  fmt.Sprintf("check %s %dc1a", proto, caches),
			body: fmt.Sprintf(`{"check":{"protocol":%q,"caches":%d,"addrs":1,"search":{"workers":%d}}}`, proto, caches, singleWorker),
		})
	}
	for _, p := range protocols.TableINames() {
		check(p, 2)
	}
	for _, p := range []string{protocols.NameTSOCC, protocols.NamePLOCC, protocols.NameRCCO, protocols.NameRCC, protocols.NameGPU} {
		check(p, 3)
	}
	for _, pair := range core.TableIIPairs() {
		out = append(out, serveJob{
			key:  fmt.Sprintf("check %s&%s 1c1a", pair[0], pair[1]),
			body: fmt.Sprintf(`{"check":{"pair":[%q,%q],"caches":1,"addrs":1,"search":{"workers":%d}}}`, pair[0], pair[1], singleWorker),
		})
	}
	for _, pair := range core.TableIIPairs() {
		f, err := fuse(tr, -1, 0, core.Options{}, pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		cf, _, err := core.CompileOrLoad(f, core.TableIICompileConfig(true, singleWorker), cache)
		if err != nil {
			return nil, err
		}
		out = append(out, serveJob{
			key:    fmt.Sprintf("compile %s&%s quick", pair[0], pair[1]),
			body:   fmt.Sprintf(`{"compile":{"pair":[%q,%q],"search":{"workers":%d}}}`, pair[0], pair[1], singleWorker),
			digest: cf.Digest(),
		})
	}
	return out, nil
}

func (w *serveMix) ops() int               { return len(w.seq) }
func (w *serveMix) nominal() time.Duration { return 3300 * time.Millisecond }

func (w *serveMix) overlapping() bool { return true }

func (w *serveMix) setup(seed int64, tr *Tracer) error {
	if err := os.MkdirAll(w.out, 0o755); err != nil {
		return err
	}
	var err error
	if w.cache, err = os.MkdirTemp(w.out, "serve-cache-"); err != nil {
		return err
	}
	types, err := serveJobTypes(tr, w.cache)
	if err != nil {
		return err
	}
	w.types, w.seq = types, nil
	for r := 0; r < serveRepeats; r++ {
		for i := range types {
			w.seq = append(w.seq, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.seq), func(i, j int) { w.seq[i], w.seq[j] = w.seq[j], w.seq[i] })

	w.srv = server.New(server.Config{
		JobWorkers:       singleWorker,
		MaxWorkersPerJob: singleWorker,
		CompileCache:     w.cache,
		Backlog:          4 * serveClients,
		Logger:           slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.serveW.Add(1)
	go func() {
		defer w.serveW.Done()
		_ = w.hs.Serve(ln) // always ErrServerClosed, from close's Shutdown
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	return nil
}

func (w *serveMix) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		// Every client has finished its op before close runs, so no
		// request is in flight for Shutdown to time out on.
		_ = w.hs.Shutdown(ctx)
		cancel()
		w.serveW.Wait()
		w.srv.Drain()
		w.client.CloseIdleConnections()
		w.hs = nil
	}
	if w.cache != "" {
		_ = os.RemoveAll(w.cache) // a leftover cache dir under --out is harmless
		w.cache = ""
	}
}

func (w *serveMix) pass(ctx context.Context, tr *Tracer, rec *recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.seq) {
					return
				}
				w.op(ctx, tr, rec, i, w.types[w.seq[i]])
			}
		}()
	}
	wg.Wait()
}

// jobSnapshot is the part of GET /v1/jobs/{id} the benchmark reads.
type jobSnapshot struct {
	ID      string    `json:"id"`
	State   string    `json:"state"`
	Error   string    `json:"error"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started"`
	Ended   time.Time `json:"ended"`
	Result  struct {
		// check results (mcheck.Result's untagged fields)
		States      int64
		Transitions int64
		Deadlocks   int64
		Truncated   bool
		Cancelled   bool
		// compile results
		Digest     string `json:"digest"`
		FlatStates int64  `json:"flat_states"`
		FlatEdges  int64  `json:"flat_edges"`
		Stats      struct {
			Source string
		} `json:"stats"`
	} `json:"result"`
}

// op submits one job and waits for its terminal state event; the op's
// latency runs from the POST to that event. The job's snapshot is then
// fetched, outside the latency, for the checks and the server timings.
func (w *serveMix) op(ctx context.Context, tr *Tracer, rec *recorder, i int, job serveJob) {
	clock := startOp()
	id := tr.Start("server.job", i, 0)
	jobID, err := w.submitAndWait(ctx, job)
	tr.End(id)
	took := clock.stop()
	d := took.wall
	var snap jobSnapshot
	if err == nil {
		err = w.getJSON(ctx, "/v1/jobs/"+jobID, &snap)
	}
	if err == nil {
		err = w.check(job, &snap)
	}
	rec.op(i, took, err)
	if err != nil || tr == nil {
		return
	}
	tr.Observe("server.queue_wait_ms", ms(snap.Started.Sub(snap.Created)))
	tr.Observe("server.run_ms", ms(snap.Ended.Sub(snap.Started)))
	tr.Observe("server.overhead_ms", ms(d-snap.Ended.Sub(snap.Created)))
	if job.digest != "" {
		tr.Add("server.compile_jobs", 1)
		if snap.Result.Stats.Source == core.SourceCache {
			tr.Add("server.cache_hits", 1)
		}
	}
}

func (w *serveMix) check(job serveJob, snap *jobSnapshot) error {
	if snap.State != string(server.StateDone) {
		return fmt.Errorf("%s: job %s ended %s %s", job.key, snap.ID, snap.State, snap.Error)
	}
	r := snap.Result
	if job.digest != "" {
		if r.Digest != job.digest {
			return fmt.Errorf("%s: digest %s, want %s", job.key, r.Digest, job.digest)
		}
		return w.exp.verify("serve-mix", job.key, r.FlatStates, r.FlatEdges)
	}
	if r.Truncated || r.Cancelled || r.Deadlocks > 0 {
		return fmt.Errorf("%s: truncated=%v cancelled=%v deadlocks=%d", job.key, r.Truncated, r.Cancelled, r.Deadlocks)
	}
	return w.exp.verify("serve-mix", job.key, r.States, r.Transitions)
}

// submitAndWait posts the job and reads its SSE stream until the
// terminal state event.
func (w *serveMix) submitAndWait(ctx context.Context, job serveJob) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/jobs", strings.NewReader(job.body))
	if err != nil {
		return "", err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return "", err
	}
	var sub jobSnapshot
	err = decodeBody(resp, http.StatusAccepted, &sub)
	if err != nil {
		return "", fmt.Errorf("%s: submit: %w", job.key, err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err = w.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return "", fmt.Errorf("%s: event: %w", job.key, err)
		}
		if ev.Type == "state" && ev.State.Terminal() {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			return sub.ID, nil
		}
	}
	return "", fmt.Errorf("%s: event stream ended without a terminal state (%v)", job.key, sc.Err())
}

func (w *serveMix) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

// decodeBody decodes a JSON response with the wanted status and closes
// the body.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// info reports completed jobs per second of a pass.
func (w *serveMix) info(passWall float64) []string {
	return []string{fmt.Sprintf("jobs_per_s %.2f", float64(len(w.seq))/passWall)}
}
