package mcheck

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heterogen/internal/memmodel"
	"heterogen/internal/spec"
)

// Invariant inspects a reachable state and returns an error if violated.
type Invariant func(*System) error

// DefaultMaxStates is the visited-state budget when Options.MaxStates is
// zero: 4M states, mirroring Murphi's default memory bound.
const DefaultMaxStates = 4 << 20

// Options configure a search.
type Options struct {
	// Evictions explores spontaneous replacements of stable lines ("we
	// ensure that loads and stores are executed based on the litmus test,
	// while permitting evictions at any time", §VII-B).
	Evictions bool
	// MaxStates aborts the search beyond this many visited states
	// (0 = DefaultMaxStates, 4M). Mirrors Murphi's memory bound.
	MaxStates int
	// HashCompaction stores 64-bit state fingerprints instead of exact
	// keys — one 8-byte slot per state in the visited set's table —
	// trading a vanishing omission probability for memory (reported in
	// Result.OmissionProb), the technique §VII-C uses for >1 cache per
	// cluster. Without it the visited set is exact: every key, a state's
	// numbered vector (number.go), is stored whole (storage.go).
	HashCompaction bool
	// MemBudget bounds the search's state memory in bytes, in either
	// storage mode: every visited-set slot and arena growth is charged to
	// it, and so are the keys queued on the frontier. A charge it denies
	// truncates the search with BudgetFull. 0 defaults to 8 GiB.
	MemBudget int64
	// Workers sets the search parallelism: 0 uses runtime.NumCPU() workers,
	// N ≥ 1 exactly N, all running the same loop over one shared FIFO
	// frontier. Worker 0 runs on the calling goroutine, so Workers: 1 starts
	// no goroutine and expands states in plain breadth-first order
	// (deterministic visit order and truncation counts). Every worker count
	// visits the same state set and reports the same counts, outcomes and
	// DeadlockAt (the ample choice under POR is a pure function of the
	// state, so this holds with the reduction on too); only the exact
	// state count at truncation depends on scheduling.
	Workers int
	// POR selects ample-set partial order reduction (por.go): PORAuto (the
	// zero value) prunes commuting interleavings whenever that provably
	// preserves deadlock counts and litmus outcome sets, falling back to
	// the full search per state — and disabling itself entirely when
	// Invariants or OnDeliver demand every intermediate state. POROff is
	// the -por=0 escape hatch. Result.PORReduced counts the ample-hit
	// states.
	POR PORMode
	// Invariants are checked at every reachable state. A non-empty list
	// disables POR: the reduction only preserves terminal states.
	Invariants []Invariant
	// LoadKeys labels each core's loads for outcome collection; absent
	// entries use "T<core>:<n-th load>".
	LoadKeys [][]string
	// ObserveMem adds the final shared-memory value of each listed address
	// to every outcome under key "m:<addr>". Programs should flush dirty
	// lines (eviction epilogue) for the observation to equal the
	// write-serialization-final value.
	ObserveMem []spec.Addr
	// ProgressEvery, with OnProgress, emits periodic Progress reports from
	// a ticker goroutine while the search runs (0 = no reports).
	ProgressEvery time.Duration
	// OnProgress receives each report; it runs on the ticker goroutine and
	// must not block for long.
	OnProgress func(Progress)
	// MemPool, when non-nil, is a shared accountant the visited set and
	// the frontier acquire their memory from (see MemPool): MemBudget
	// stays this search's private cap, but the bytes under it must also
	// fit in the pool, so concurrent searches on one host share one
	// budget. A denied charge truncates with BudgetFull, exactly like a
	// private cap.
	MemPool *MemPool
}

// Progress is one periodic report of a running search (Options.OnProgress).
type Progress struct {
	Elapsed      time.Duration
	Visited      int     // distinct states in the visited set so far
	StatesPerSec float64 // visited-set growth rate since the last report
	Frontier     int     // states queued awaiting expansion
	LoadFactor   float64 // visited-table occupancy over all its slots
	HeapBytes    uint64  // runtime.ReadMemStats HeapAlloc (RSS proxy)
}

// EffectiveWorkers resolves Workers to the search parallelism a search
// with these options runs at.
func (o Options) EffectiveWorkers() int {
	w := o.Workers
	if w == 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result summarizes a search.
type Result struct {
	States      int                 // distinct states visited
	Transitions int                 // moves applied
	Deadlocks   int                 // states with pending work but no moves
	DeadlockAt  string              // snapshot of the lexicographically least deadlock state (stable across worker counts)
	Outcomes    memmodel.OutcomeSet // outcomes at quiescent states
	Violations  []string            // invariant failures
	Truncated   bool                // MaxStates (or the memory budget) hit
	Cancelled   bool                // the context was cancelled mid-search (partial result)
	MaxStates   int                 // the state budget that was in effect
	PORReduced  int                 // states expanded through an ample subset only (0 = POR off or never hit)
	Engine      string              // System.Engine() label of the searched system ("" = unlabeled)

	// State-storage accounting (see storage.go).
	BudgetFull     bool    // truncation came from the storage MemBudget, not MaxStates
	Storage        string  // "exact" or "hash-compaction"
	TableBytes     int64   // visited-set memory: its slots and, in exact mode, key arenas
	BytesPerState  float64 // TableBytes per distinct visited state
	PeakLoadFactor float64 // highest visited-table occupancy over all its slots
	OmissionProb   float64 // estimated probability ≥1 state was omitted (lossy modes)
}

// Ok reports whether the search finished with no deadlocks or violations.
func (r *Result) Ok() bool {
	return r.Deadlocks == 0 && len(r.Violations) == 0 && !r.Truncated && !r.Cancelled
}

// String summarizes the search one-line, naming the bound that fired on
// truncation so callers know which knob to raise. Lossy storage modes
// report their omission probability the way Murphi does after compacted
// runs, and a truncated compacted count is labeled the lower bound it is
// (fingerprint collisions can only hide states, never invent them).
func (r *Result) String() string {
	s := fmt.Sprintf("%d states, %d transitions, %d deadlocks, %d outcomes",
		r.States, r.Transitions, r.Deadlocks, len(r.Outcomes))
	if r.Engine != "" {
		s += fmt.Sprintf(" [%s]", r.Engine)
	}
	if r.PORReduced > 0 {
		s += fmt.Sprintf(" (por: %d ample states)", r.PORReduced)
	}
	if lossy(r.Storage) {
		s += fmt.Sprintf(" (%s: %.1f bytes/state, pr. of omitted states ≤ %.3g)",
			r.Storage, r.BytesPerState, r.OmissionProb)
	}
	if len(r.Violations) > 0 {
		s += fmt.Sprintf(", %d invariant violations", len(r.Violations))
	}
	if r.Truncated {
		bound := fmt.Sprintf("MaxStates=%d budget", r.MaxStates)
		knob := "raise MaxStates"
		if r.BudgetFull {
			bound = "storage MemBudget"
			knob = "raise MemBudget"
		}
		s += fmt.Sprintf("; truncated: %s exhausted, %d states expanded", bound, r.States)
		if lossy(r.Storage) {
			s += " — a lower bound under " + r.Storage
		}
		s += " (" + knob + ")"
	}
	if r.Cancelled {
		s += fmt.Sprintf("; cancelled: partial result, %d states expanded", r.States)
		if lossy(r.Storage) {
			s += " — a lower bound under " + r.Storage
		}
	}
	return s
}

// lossy reports whether a Result.Storage label names a lossy visited-set
// mode (anything but exact).
func lossy(storage string) bool {
	return storage != "" && storage != "exact"
}

// searchCtx is the per-search context shared by all workers: resolved
// options, the numbering tables and the outcome key tables precomputed
// once instead of fmt.Sprintf-ed per quiescent state.
type searchCtx struct {
	opts      Options
	maxStates int
	initial   *System       // cloned by each worker to materialize states
	num       *numbering    // the search's state tables (number.go)
	por       bool          // ample-set reduction active for this search
	porCands  []spec.NodeID // reduction candidates (top-level caches)
	loadKeys  [][]string    // per core, per completed-load index
	memKeys   []string      // per ObserveMem entry
	// tried, when set, sees every move the search tries, materialized
	// with its parent and successor (nil when the move stalls), before
	// the visited set sees the successor (the differential tests' probe).
	tried func(parent *System, m Move, succ *System)
	// cancelled is raised by the context watcher goroutine; the search
	// loop polls it at the same cadence as the state-budget check, so
	// cancellation is cooperative and costs one atomic load per expansion.
	cancelled atomic.Bool
}

// newSearchCtx builds a search's context, its numbering charged to
// visited's budget.
func newSearchCtx(initial *System, opts Options, maxStates, workers int, visited *visitedSet) *searchCtx {
	ctx := &searchCtx{
		opts: opts, maxStates: maxStates, initial: initial,
		num: newNumbering(initial, workers, visited),
	}
	if opts.POR != POROff && len(opts.Invariants) == 0 && initial.OnDeliver == nil {
		// Invariants and delivery observers inspect intermediate states,
		// which the reduction does not preserve; candidates are empty when
		// any component fails the locality analysis.
		ctx.porCands = porCandidates(initial)
		ctx.por = len(ctx.porCands) > 0
	}
	ctx.loadKeys = make([][]string, len(initial.Cores))
	for t, core := range initial.Cores {
		nLoads := 0
		for _, op := range core.Prog {
			if op.Op == spec.OpLoad {
				nLoads++
			}
		}
		keys := make([]string, nLoads)
		for i := range keys {
			if t < len(opts.LoadKeys) && i < len(opts.LoadKeys[t]) {
				keys[i] = opts.LoadKeys[t][i]
			} else {
				keys[i] = fmt.Sprintf("T%d:%d", t, i)
			}
		}
		ctx.loadKeys[t] = keys
	}
	ctx.memKeys = make([]string, len(opts.ObserveMem))
	for i, a := range opts.ObserveMem {
		ctx.memKeys[i] = fmt.Sprintf("m:%d", a)
	}
	return ctx
}

// loadKey returns the outcome key of core t's i-th load.
func (ctx *searchCtx) loadKey(t, i int) string {
	if t < len(ctx.loadKeys) && i < len(ctx.loadKeys[t]) {
		return ctx.loadKeys[t][i]
	}
	return fmt.Sprintf("T%d:%d", t, i)
}

// outcome extracts the litmus outcome of a quiescent state using the
// precomputed key tables.
func (ctx *searchCtx) outcome(s *System) memmodel.Outcome {
	out := memmodel.Outcome{}
	for t, core := range s.Cores {
		for i, v := range core.Loads {
			out[ctx.loadKey(t, i)] = v
		}
	}
	for i, a := range ctx.opts.ObserveMem {
		out[ctx.memKeys[i]] = s.Mem.Read(a)
	}
	return out
}

// Explore runs an exhaustive breadth-first search from the initial system
// state over Workers workers sharing one FIFO frontier and one visited set.
// It visits every reachable state (modulo the MaxStates budget) and reports
// the same state/transition/deadlock counts and outcome set at every worker
// count.
func Explore(initial *System, opts Options) *Result {
	return ExploreCtx(context.Background(), initial, opts)
}

// ExploreCtx is Explore under a context: when cctx is cancelled (deadline,
// SIGINT, a server DELETE-ing the job) the search stops cooperatively at
// the next expansion boundary and returns the partial Result it has, with
// Cancelled set and every storage/omission accounting field filled in —
// the same shape a BudgetFull or MaxStates truncation reports. All worker
// goroutines, the progress ticker and the context watcher have exited by
// the time ExploreCtx returns; a cancelled search leaks nothing and a
// rerun from the same inputs produces the identical full Result. A panic
// on any worker (a component bug) is re-raised on the calling goroutine
// after the same cleanup. The initial system is never mutated.
func ExploreCtx(cctx context.Context, initial *System, opts Options) *Result {
	return exploreProbed(cctx, initial, opts, nil)
}

// exploreProbed is ExploreCtx with the searchCtx.tried probe.
func exploreProbed(cctx context.Context, initial *System, opts Options, tried func(*System, Move, *System)) *Result {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	workers := opts.EffectiveWorkers()
	if initial.OnDeliver != nil {
		// Delivery observers (sequence charts) are shared
		// by clones and not synchronized; keep those walks on one worker.
		workers = 1
	}
	visited := newVisited(opts, workers)
	defer visited.release()
	ctx := newSearchCtx(initial, opts, maxStates, workers, visited)
	ctx.tried = tried
	stopWatch := watchCancel(cctx, ctx)
	defer stopWatch()
	root := ctx.num.number(initial).appendKey(nil)
	visited.Insert(root)
	f := newFrontier(visited, root)

	stopProgress := startProgress(ctx, visited, f)
	defer stopProgress()
	res := explore(ctx, workers, visited, f)
	res.Engine = initial.Engine()

	st := visited.stats()
	res.Storage = st.mode
	res.TableBytes = st.tableBytes
	if n := visited.Size(); n > 0 {
		res.BytesPerState = float64(st.tableBytes) / float64(n)
	}
	res.PeakLoadFactor = st.peakLoad
	res.OmissionProb = st.omission
	if visited.Full() {
		res.Truncated = true
		res.BudgetFull = true
	}
	return res
}

// watchCancel bridges a context's Done channel onto the search's polled
// cancellation flag: the hot loops never select on a channel, they load
// one atomic. The watcher goroutine exits when the context fires or when
// the returned stop function runs (search finished first), so a completed
// ExploreCtx leaves no goroutine behind. A context that can never be
// cancelled (Background) spawns nothing.
func watchCancel(cctx context.Context, ctx *searchCtx) func() {
	if cctx.Done() == nil {
		return func() {}
	}
	if cctx.Err() != nil { // already cancelled: skip the goroutine too
		ctx.cancelled.Store(true)
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-cctx.Done():
			ctx.cancelled.Store(true)
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// startProgress spawns the Options.OnProgress ticker goroutine and returns
// its stop function (a no-op closure when progress is off).
func startProgress(ctx *searchCtx, visited *visitedSet, f *frontier) func() {
	if ctx.opts.ProgressEvery <= 0 || ctx.opts.OnProgress == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(finished)
		t := time.NewTicker(ctx.opts.ProgressEvery)
		defer t.Stop()
		lastN, lastT := 0, start
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				n := visited.Size()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				p := Progress{
					Elapsed:    now.Sub(start),
					Visited:    n,
					Frontier:   int(f.queued.Load()),
					LoadFactor: visited.load(),
					HeapBytes:  ms.HeapAlloc,
				}
				if dt := now.Sub(lastT).Seconds(); dt > 0 {
					p.StatesPerSec = float64(n-lastN) / dt
				}
				lastN, lastT = n, now
				ctx.opts.OnProgress(p)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// explore runs the search loop on workers workers and merges their
// results. Worker 0 runs on the calling goroutine, so a one-worker search
// starts no goroutine and its panics unwind straight to the caller. A
// spawned worker that panics stops the frontier instead of killing the
// process; once every worker has exited, its panic value is re-raised
// here, on the caller's goroutine.
func explore(ctx *searchCtx, workers int, visited *visitedSet, f *frontier) *Result {
	results := make([]*Result, workers)
	ws := make([]*worker, workers)
	for w := range ws {
		ws[w] = newWorker(ctx)
	}
	panics := make(chan any, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					f.stop()
					panics <- p
				}
			}()
			results[w] = ctx.work(ws[w], visited, f)
		}(w)
	}
	func() {
		// Runs on worker 0's panic too: siblings stop and exit before the
		// panic unwinds past ExploreCtx's cleanup.
		defer func() { f.stop(); wg.Wait() }()
		results[0] = ctx.work(ws[0], visited, f)
	}()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	// Hand the memo hits over only once every worker has ended normally:
	// a panicking search counts nothing, and a component whose Replayed
	// takes a lock its panicking Deliver held is never called mid-unwind.
	for _, w := range ws {
		w.flushReplayed()
	}

	merged := &Result{Outcomes: memmodel.OutcomeSet{}, MaxStates: ctx.maxStates}
	for _, res := range results {
		merged.States += res.States
		merged.Transitions += res.Transitions
		merged.Deadlocks += res.Deadlocks
		merged.PORReduced += res.PORReduced
		merged.Truncated = merged.Truncated || res.Truncated
		merged.Cancelled = merged.Cancelled || res.Cancelled
		if res.DeadlockAt != "" && (merged.DeadlockAt == "" || res.DeadlockAt < merged.DeadlockAt) {
			merged.DeadlockAt = res.DeadlockAt
		}
		merged.Violations = append(merged.Violations, res.Violations...)
		for k, o := range res.Outcomes {
			merged.Outcomes[k] = o
		}
	}
	sort.Strings(merged.Violations) // stable report order across runs
	return merged
}

// work is one worker's search loop: trade the successors admitted while
// expanding the last batch for the next batch and expand each taken
// state's key. Admitted successors enter the frontier as their keys. The
// loop ends when the frontier drains or stops, or when the state budget,
// the visited set's memory budget or cancellation fires.
func (ctx *searchCtx) work(w *worker, visited *visitedSet, f *frontier) *Result {
	res := &Result{Outcomes: memmodel.OutcomeSet{}}
	var batch [][]byte
	var pend pending
	for done := 0; ; {
		batch = f.exchange(pend.keys, done, batch)
		pend.published()
		if len(batch) == 0 {
			return res
		}
		done = len(batch)
		for i, key := range batch {
			batch[i] = nil
			if visited.Size() > ctx.maxStates || visited.Full() {
				res.Truncated = true
				f.stop()
				return res
			}
			if ctx.cancelled.Load() {
				res.Cancelled = true
				f.stop()
				return res
			}
			w.cur.decode(key, ctx.num)
			w.expand(res, visited.Insert, pend.admit)
		}
	}
}

// slabSize is the size of the blocks pending copies admitted keys into.
const slabSize = 64 << 10

// pending holds a worker's admitted keys until its next exchange. Each
// key is copied into an append-only slab and kept as a capped sub-slice
// of it, so admitting a state costs an allocation per 64 KiB of keys, not
// one per key. No byte of a slab is written twice, so the frontier may
// hold a key as long as it likes; the collector frees a slab once its
// last key is dropped.
type pending struct {
	keys [][]byte
	slab []byte
}

// admit queues a copy of key, which the caller may reuse.
func (p *pending) admit(key []byte) {
	if len(key) > cap(p.slab)-len(p.slab) {
		p.slab = make([]byte, 0, max(slabSize, len(key)))
	}
	i := len(p.slab)
	p.slab = append(p.slab, key...)
	p.keys = append(p.keys, p.slab[i:len(p.slab):len(p.slab)])
}

// published empties the queue once the frontier owns its keys.
func (p *pending) published() {
	clear(p.keys)
	p.keys = p.keys[:0]
}

// worker is one search worker's scratch: the expanded state, the
// successor being built and its key, the move lists, a System to
// materialize states into and run memo misses on, and its memo hits per
// position.
type worker struct {
	ctx   *searchCtx
	num   *numbering
	cur   vec
	next  vec
	key   []byte
	moves []vmove
	amp   []vmove // ample-partition scratch (por.go)
	rest  []vmove
	sends sendCapture // messages a memo miss sent
	img   []byte      // intern scratch
	dec   spec.Dec    // miss-path decode cursor
	sys   *System     // materialization target and miss-path instances
	hits  []int64     // memo hits by position, for Replayer positions
}

// sendCapture is the spec.Env a worker runs components against.
type sendCapture struct{ msgs []spec.Msg }

func (e *sendCapture) Send(m spec.Msg) { e.msgs = append(e.msgs, m) }

// vmove is one enabled move of a vector: a delivery from channel index i,
// an issue by core i or an eviction of addr at position i. node is the
// cache whose move class it belongs to (POR): the channel's destination,
// the core's cache or the evicting cache.
type vmove struct {
	kind MoveKind
	i    int
	addr spec.Addr
	node spec.NodeID
}

func newWorker(ctx *searchCtx) *worker {
	return &worker{ctx: ctx, num: ctx.num, sys: ctx.initial.Clone(), hits: make([]int64, len(ctx.num.pos))}
}

// flushReplayed hands each Replayer position the memo hits the worker
// served there.
func (w *worker) flushReplayed() {
	for p, r := range w.num.replay {
		if r != nil && w.hits[p] > 0 {
			r.Replayed(w.hits[p])
			w.hits[p] = 0
		}
	}
}

// expand processes the taken state w.cur: invariants, successor
// generation (insert filters duplicates, enqueue receives the new ones'
// keys, borrowed) and deadlock/outcome classification.
//
// With POR active, an ample subset is tried first: if any ample move
// progressed, the remaining moves are pruned. No cycle proviso is needed:
// the classical ignoring problem only endangers properties of
// intermediate states, and the reduction already turns itself off for
// those (Invariants, OnDeliver) — the properties that remain (deadlock
// states, quiescent litmus outcomes) are terminal-state properties, which
// persistent-set search preserves exactly with no proviso (see por.go).
// If no ample move progressed (all stalled), the ample set was empty in
// the progressing transition system and reduction would misclassify the
// state as terminal; full expansion resumes there. Because the ample
// choice is a pure function of the state — never of visit order or
// visited-set contents — the reduced graph is a fixed subgraph and every
// worker count reports the same counts.
func (w *worker) expand(res *Result, insert func([]byte) bool, enqueue func([]byte)) {
	ctx := w.ctx
	res.States++
	if len(ctx.opts.Invariants) > 0 {
		w.num.materialize(w.sys, &w.cur)
		for _, inv := range ctx.opts.Invariants {
			if err := inv(w.sys); err != nil {
				res.Violations = append(res.Violations, err.Error())
			}
		}
	}
	w.appendMoves()
	if len(w.moves) > 0 && w.successors(res, insert, enqueue) {
		return
	}
	w.num.materialize(w.sys, &w.cur)
	if w.sys.Quiescent() {
		res.Outcomes.Add(ctx.outcome(w.sys))
		return
	}
	res.Deadlocks++
	// Which worker meets which deadlock first depends on the schedule;
	// keeping the lexicographically least snapshot (here and at merge)
	// makes the diagnostic the same at every worker count.
	if snap := w.sys.Snapshot(); res.DeadlockAt == "" || snap < res.DeadlockAt {
		res.DeadlockAt = snap
	}
}

// successors applies each move to a copy of w.cur and keys the
// successor; admitted keys are handed to enqueue borrowed — valid only
// until the callback returns. Returns whether any move progressed.
func (w *worker) successors(res *Result, insert func([]byte) bool, enqueue func([]byte)) bool {
	try := func(i int) bool {
		ok := w.apply(w.moves[i])
		if w.ctx.tried != nil {
			w.probe(w.moves[i], ok)
		}
		if !ok {
			return false
		}
		res.Transitions++
		w.key = w.next.appendKey(w.key[:0])
		if insert(w.key) {
			enqueue(w.key)
		}
		return true
	}
	progressed := false
	start := 0
	if w.ctx.por && len(w.moves) > 1 {
		if amp := w.selectAmple(); amp > 0 {
			for i := 0; i < amp; i++ {
				if try(i) {
					progressed = true
				}
			}
			if progressed {
				res.PORReduced++
				return true
			}
			start = amp // every ample move stalled: full expansion
		}
	}
	for i := start; i < len(w.moves); i++ {
		if try(i) {
			progressed = true
		}
	}
	return progressed
}

// probe hands the tried move, its parent w.cur and (when the move
// progressed) its successor w.next to ctx.tried, each materialized
// afresh; a stalled move's successor is nil.
func (w *worker) probe(m vmove, progressed bool) {
	parent := w.ctx.initial.Clone()
	w.num.materialize(parent, &w.cur)
	var succ *System
	if progressed {
		succ = w.ctx.initial.Clone()
		w.num.materialize(succ, &w.next)
	}
	mv := Move{Kind: m.kind}
	switch m.kind {
	case MoveDeliver:
		mv.Chan = w.num.chanKey(w.cur.chans[m.i].ch)
	case MoveIssue:
		mv.Core = m.i
	case MoveEvict:
		mv.Cache, mv.Addr = m.node, m.addr
	}
	w.ctx.tried(parent, mv, succ)
}

// appendMoves lists w.cur's enabled moves in System.AppendMoves' order:
// deliveries by channel, issues by core, evictions by component and
// line.
func (w *worker) appendMoves() {
	num, v := w.num, &w.cur
	w.moves = w.moves[:0]
	for i, cf := range v.chans {
		w.moves = append(w.moves, vmove{kind: MoveDeliver, i: i, node: num.chanDst(cf.ch)})
	}
	for i, p := range num.corePos {
		word := v.cores[num.coreOff[i]]
		pc := int(word >> 1)
		if word&1 != 0 || pc >= len(num.progReq[i]) || p < 0 {
			continue
		}
		if e := num.pos[p].at(v.comps[p]); e.cache.CanIssue(num.reqs[num.progReq[i][pc]]) {
			w.moves = append(w.moves, vmove{kind: MoveIssue, i: i, node: e.cache.ID()})
		}
	}
	if w.ctx.opts.Evictions {
		for p, t := range num.pos {
			e := t.at(v.comps[p])
			if e.cache == nil || !e.cache.Idle() {
				continue
			}
			for _, a := range e.evicts {
				w.moves = append(w.moves, vmove{kind: MoveEvict, i: p, addr: a, node: e.cache.ID()})
			}
		}
	}
}

// apply builds the successor of w.cur under m in w.next, reporting
// whether the move progressed.
func (w *worker) apply(m vmove) bool {
	num, cur, next := w.num, &w.cur, &w.next
	switch m.kind {
	case MoveDeliver:
		cf := cur.chans[m.i]
		f := num.fifo(cf.fifo)
		me := num.msg(f.msgs[0])
		p := num.position(me.m.Dst)
		out := w.step(p, cur.comps[p], memoKey(cur.comps[p], inDeliver, f.msgs[0]))
		if out.next == stall {
			return false
		}
		next.copyFrom(cur)
		next.comps[p] = out.next
		if f.pop == 0 {
			next.chans = append(next.chans[:m.i], next.chans[m.i+1:]...)
		} else {
			next.chans[m.i].fifo = f.pop
		}
		w.push(out.sends)
		if od := w.ctx.initial.OnDeliver; od != nil {
			od(me.m)
		}
	case MoveIssue:
		p, off := num.corePos[m.i], num.coreOff[m.i]
		rq := num.progReq[m.i][cur.cores[off]>>1]
		out := w.step(p, cur.comps[p], memoKey(cur.comps[p], inIssue, rq))
		if out.next == stall {
			return false
		}
		next.copyFrom(cur)
		next.comps[p] = out.next
		next.cores[off] |= 1
		w.push(out.sends)
	case MoveEvict:
		p := m.i
		if m.addr < 0 {
			panic(fmt.Sprintf("mcheck: eviction of negative address %d", m.addr))
		}
		out := w.step(p, cur.comps[p], memoKey(cur.comps[p], inEvict, uint32(m.addr)))
		if out.next == stall {
			return false
		}
		next.copyFrom(cur)
		next.comps[p] = out.next
		w.push(out.sends)
	}
	w.syncCores()
	return true
}

// step returns the memoized move key of table position p in state n. A
// miss decodes state n into the worker's own instance of the component
// (w.sys, which materialize rewrites before every other use) and runs the
// move on it.
func (w *worker) step(p int, n uint32, key uint64) memoOut {
	t := w.num.pos[p]
	if out, ok := t.lookup(key); ok {
		w.hits[p]++
		return out
	}
	e, c := t.at(n), w.sys.Components[p]
	mustDecode(&w.dec, c, e.img[:e.split])
	var mem *spec.Memory
	if p == w.num.owner {
		mem = w.sys.Mem
		mustDecode(&w.dec, mem, e.img[e.split:])
	}
	w.sends.msgs = w.sends.msgs[:0]
	var ok bool
	switch in := uint32(key) &^ (3 << inputBits); uint32(key) >> inputBits {
	case inDeliver:
		ok = c.Deliver(&w.sends, w.num.msg(in).m)
	case inIssue:
		ok = c.(*spec.CacheInst).Issue(&w.sends, w.num.reqs[in])
	case inEvict:
		ok = c.(*spec.CacheInst).Evict(&w.sends, spec.Addr(in))
	}
	out := memoOut{next: stall}
	if ok {
		out.sends = make([]uint32, len(w.sends.msgs))
		for i, s := range w.sends.msgs {
			out.sends[i] = w.num.msgNum(s)
		}
		out.next = t.intern(c, mem, &w.img)
	}
	return t.record(key, out)
}

// push appends the sent messages to their channels in w.next.
func (w *worker) push(sends []uint32) {
	next := &w.next
	for _, s := range sends {
		ch := w.num.msg(s).ch
		i := 0
		for i < len(next.chans) && next.chans[i].ch < ch {
			i++
		}
		if i < len(next.chans) && next.chans[i].ch == ch {
			next.chans[i].fifo = w.num.push(next.chans[i].fifo, s)
			continue
		}
		next.chans = append(next.chans, chanFIFO{})
		copy(next.chans[i+1:], next.chans[i:])
		next.chans[i] = chanFIFO{ch, w.num.push(0, s)}
	}
}

// syncCores advances w.next's cores whose issued op has completed, as
// System.syncCores does.
func (w *worker) syncCores() {
	num, next := w.num, &w.next
	for i, p := range num.corePos {
		off := num.coreOff[i]
		word := next.cores[off]
		if word&1 == 0 || p < 0 {
			continue
		}
		e := num.pos[p].at(next.comps[p])
		if !e.cache.Idle() {
			continue
		}
		pc := int(word >> 1)
		if num.reqs[num.progReq[i][pc]].Op == spec.OpLoad {
			next.cores[off+1+num.loadsAt[i][pc]] = zigzag(e.cache.LastLoad())
		}
		next.cores[off] = uint32(pc+1) << 1
	}
}

// SWMRInvariant returns an invariant asserting the Single-Writer-Multiple-
// Reader property: for every address, at most one cache holds the line in
// one of the listed write states, and none may while another holds a read
// state... the classic check for invalidation protocols (not applicable to
// the self-invalidation family, which is not SWMR by design).
func SWMRInvariant(writeStates ...spec.State) Invariant {
	ws := map[spec.State]bool{}
	for _, s := range writeStates {
		ws[s] = true
	}
	return func(sys *System) error {
		writers := map[spec.Addr][]spec.NodeID{}
		for _, c := range sys.Components {
			cache, ok := c.(*spec.CacheInst)
			if !ok {
				continue
			}
			for _, a := range cache.Addrs() {
				if ws[cache.Protocol().Cache.StateName(cache.LineState(a))] {
					writers[a] = append(writers[a], cache.ID())
				}
			}
		}
		for a, w := range writers {
			if len(w) > 1 {
				return fmt.Errorf("mcheck: SWMR violated at a%d: writers %v", a, w)
			}
		}
		return nil
	}
}

// SingleOwnerInvariant asserts that at most one cache holds a line in an
// owned state per address (holds for the ownership-based relaxed protocols
// as well as for SWMR ones).
func SingleOwnerInvariant(ownStates ...spec.State) Invariant {
	return SWMRInvariant(ownStates...)
}
