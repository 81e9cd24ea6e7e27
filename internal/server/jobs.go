// Job queue: the server decouples accepting a request from running it so
// a bounded worker pool owns all verification work. A job carries one
// engine request, runs under its own cancellable context and streams
// engine progress to any number of SSE subscribers. Once it ends it keeps
// only its wire form: the result rendered as JSON and, for a compile, the
// table's .hgcf bytes. The request, the context and the engine objects
// are dropped.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"heterogen/internal/engine"
)

// JobKind names the engine entry point a job runs.
type JobKind string

const (
	KindCheck   JobKind = "check"
	KindLitmus  JobKind = "litmus"
	KindCompile JobKind = "compile"
)

// JobState is the lifecycle: queued → running → done | failed | cancelled.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one queued verification request and everything that accumulates
// around it while it runs.
type Job struct {
	ID      string    `json:"id"`
	Kind    JobKind   `json:"kind"`
	State   JobState  `json:"state"`
	Created time.Time `json:"created"`
	Started time.Time `json:"started,omitzero"`
	Ended   time.Time `json:"ended,omitzero"`
	// Error carries the failure message in StateFailed.
	Error string `json:"error,omitempty"`
	// Result is the engine result (CheckResult, LitmusResult or
	// CompileResult), rendered once when the job ends; a cancelled
	// check/litmus job still has one — the partial result.
	Result json.RawMessage `json:"result,omitempty"`
	// Progress is the most recent engine progress report.
	Progress *engine.Progress `json:"progress,omitempty"`

	// request is the decoded engine request the worker runs; nil once
	// the job ends.
	request any
	// runCtx/cancel are the job's context pairing, derived from the
	// server's base context at submission; nil once the job ends.
	runCtx context.Context
	cancel context.CancelFunc
	// cancelled records an explicit DELETE (distinguishes a cancelled
	// job from one that failed for other reasons).
	cancelled bool
	// artifact holds a finished compile job's .hgcf bytes for downloads.
	artifact []byte
	// subs receive progress events while the job runs; closed and
	// dropped when it ends.
	subs map[chan Event]struct{}
}

// Event is one SSE payload: either a progress report or the terminal
// state notification.
type Event struct {
	// Type is "progress" or "state".
	Type string `json:"type"`
	// State accompanies a "state" event.
	State JobState `json:"state,omitempty"`
	// Progress accompanies a "progress" event.
	Progress *engine.Progress `json:"progress,omitempty"`
}

// jobs is the server's job table plus the queue feeding the worker pool.
type jobs struct {
	mu     sync.Mutex
	next   int
	byID   map[string]*Job
	order  []string // insertion order, for listing
	queue  chan *Job
	closed bool
	// retained is the bytes of the rendered results and artifacts the
	// finished jobs hold.
	retained int64
}

func newJobs(backlog int) *jobs {
	return &jobs{byID: make(map[string]*Job), queue: make(chan *Job, backlog)}
}

// submit creates a queued job and enqueues it. The job's context is
// derived from base (the server's hard-cancel context) so a shutdown
// cancels queued and running jobs alike. The enqueue happens under the
// lock so it cannot race closeQueue.
func (js *jobs) submit(base context.Context, kind JobKind, req any) (*Job, error) {
	ctx, cancel := context.WithCancel(base)
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.closed {
		cancel()
		return nil, fmt.Errorf("server is draining, not accepting jobs")
	}
	js.next++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", js.next),
		Kind:    kind,
		State:   StateQueued,
		Created: time.Now(),
		request: req,
		runCtx:  ctx,
		cancel:  cancel,
		subs:    make(map[chan Event]struct{}),
	}
	select {
	case js.queue <- j:
	default:
		cancel()
		js.next--
		return nil, fmt.Errorf("job queue full (%d jobs backlogged)", cap(js.queue))
	}
	js.byID[j.ID] = j
	js.order = append(js.order, j.ID)
	return j, nil
}

// closeQueue stops the worker pool's feed; idempotence is the caller's
// job (Server.Drain guards with a sync.Once).
func (js *jobs) closeQueue() {
	js.mu.Lock()
	defer js.mu.Unlock()
	if !js.closed {
		js.closed = true
		close(js.queue)
	}
}

// get returns a job by ID.
func (js *jobs) get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.byID[id]
	return j, ok
}

// list snapshots every job, oldest first.
func (js *jobs) list() []*Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	out := make([]*Job, 0, len(js.order))
	for _, id := range js.order {
		out = append(out, js.byID[id])
	}
	return out
}

// counts tallies jobs by state for /metrics.
func (js *jobs) counts() map[JobState]int {
	js.mu.Lock()
	defer js.mu.Unlock()
	c := make(map[JobState]int, 5)
	for _, j := range js.byID {
		c[j.State]++
	}
	return c
}

// start marks a job running (worker side). Returns false when the job
// was cancelled while still queued — the worker skips it.
func (js *jobs) start(j *Job) bool {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j.State != StateQueued {
		return false
	}
	j.State = StateRunning
	j.Started = time.Now()
	js.broadcastLocked(j, Event{Type: "state", State: StateRunning})
	return true
}

// finish records a job's outcome: it renders the result once, keeps it
// and a compile's artifact bytes, closes the subscribers and releases the
// job's context and request. A result that does not render fails the job.
func (js *jobs) finish(j *Job, result any, artifact []byte, err error) {
	var raw json.RawMessage
	if result != nil {
		var merr error
		if raw, merr = json.Marshal(result); merr != nil && err == nil {
			err = fmt.Errorf("rendering result: %w", merr)
		}
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	if j.State.Terminal() {
		return
	}
	j.Ended = time.Now()
	j.Result, j.artifact = raw, artifact
	js.retained += int64(len(raw) + len(artifact))
	switch {
	case j.cancelled || (err == nil && resultCancelled(result)):
		j.State = StateCancelled
		if err != nil {
			j.Error = err.Error()
		}
	case err != nil:
		j.State = StateFailed
		j.Error = err.Error()
	default:
		j.State = StateDone
	}
	js.endLocked(j)
}

// endLocked tells a job's subscribers its terminal state, closes them and
// drops what only a running job needs: the request, the context and the
// subscriber set.
func (js *jobs) endLocked(j *Job) {
	js.broadcastLocked(j, Event{Type: "state", State: j.State})
	for ch := range j.subs {
		close(ch)
	}
	j.cancel()
	j.request, j.runCtx, j.cancel, j.subs = nil, nil, nil, nil
}

// resultCancelled inspects an engine result for its partial-result flag.
func resultCancelled(result any) bool {
	switch r := result.(type) {
	case *engine.CheckResult:
		return r.Cancelled
	case *engine.LitmusResult:
		return r.Cancelled
	}
	return false
}

// requestCancel fires a job's context. A queued job goes terminal
// immediately; a running one keeps state until the worker observes the
// cancellation and finishes with the partial result. A terminal job is
// left as it is.
func (js *jobs) requestCancel(j *Job) JobState {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j.State.Terminal() {
		return j.State
	}
	j.cancelled = true
	if j.State == StateQueued {
		j.State = StateCancelled
		j.Ended = time.Now()
		js.endLocked(j)
		return j.State
	}
	j.cancel()
	return j.State
}

// progress records the latest report and fans it out to subscribers.
func (js *jobs) progress(j *Job, p engine.Progress) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j.Progress = &p
	js.broadcastLocked(j, Event{Type: "progress", Progress: &p})
}

// subscribe attaches an event channel to a job. Terminal jobs get the
// final state event and an immediately-closed channel, so SSE clients
// that arrive late still see the outcome.
func (js *jobs) subscribe(j *Job) chan Event {
	ch := make(chan Event, 16)
	js.mu.Lock()
	defer js.mu.Unlock()
	if j.State.Terminal() {
		ch <- Event{Type: "state", State: j.State}
		close(ch)
		return ch
	}
	j.subs[ch] = struct{}{}
	return ch
}

// unsubscribe detaches a channel (client went away before the job ended).
func (js *jobs) unsubscribe(j *Job, ch chan Event) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// broadcastLocked fans an event out without blocking: a subscriber that
// stopped draining loses intermediate progress events, never state ones
// (the channel buffer is reserved for those by dropping progress first).
func (js *jobs) broadcastLocked(j *Job, e Event) {
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
			// Slow consumer: drop this event rather than block the
			// search's progress callback.
		}
	}
}

// state reads a job's state under the lock.
func (js *jobs) state(j *Job) JobState {
	js.mu.Lock()
	defer js.mu.Unlock()
	return j.State
}

// latestProgress reads a job's most recent progress report.
func (js *jobs) latestProgress(j *Job) *engine.Progress {
	js.mu.Lock()
	defer js.mu.Unlock()
	return j.Progress
}

// artifact returns a finished compile job's .hgcf bytes (nil otherwise).
// The caller must not modify them.
func (js *jobs) artifact(j *Job) []byte {
	js.mu.Lock()
	defer js.mu.Unlock()
	return j.artifact
}

// retainedBytes is the bytes of the rendered results and artifacts the
// job table holds.
func (js *jobs) retainedBytes() int64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.retained
}

// snapshot renders the job's public view. The fields the worker mutates
// are copied under the lock; the result is already rendered and never
// changes once set, so the copy is marshalled outside it.
func (js *jobs) snapshot(j *Job) []byte {
	js.mu.Lock()
	view := Job{ID: j.ID, Kind: j.Kind, State: j.State, Created: j.Created, Started: j.Started,
		Ended: j.Ended, Error: j.Error, Result: j.Result, Progress: j.Progress}
	js.mu.Unlock()
	b, err := json.Marshal(&view)
	if err != nil {
		b, _ = json.Marshal(map[string]string{"id": j.ID, "error": err.Error()})
	}
	return b
}
