package mcheck

import (
	"bytes"
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
	// HashCompaction stores 64-bit state fingerprints instead of full
	// encodings — in a lock-free open-addressing table of ~8–10 bytes per
	// state — trading a vanishing omission probability for memory (reported
	// in Result.OmissionProb), the technique §VII-C uses for >1 cache per
	// cluster.
	HashCompaction bool
	// Bitstate stores each state as 3 bits of a fixed-size Bloom filter
	// (Holzmann's bitstate/supertrace search): a fraction of a bit per
	// state at useful fills, for sweeps whose state count exceeds even a
	// fingerprint table's budget. Omission grows with the filter's fill
	// (Result.OmissionProb); takes precedence over HashCompaction.
	Bitstate bool
	// MemBudget bounds visited-set memory in bytes: the growth cap of the
	// fingerprint table under HashCompaction (the search truncates with
	// Truncated=true when the table saturates), or the Bloom filter size
	// under Bitstate (which never truncates — omission just grows). 0
	// defaults to 8 GiB for the table cap and 64 MiB for the filter.
	// Ignored in exact mode.
	MemBudget int64
	// SpillDir, when nonempty, bounds frontier memory too. The frontier
	// always holds compact state images (System.EncodeBinary, rehydrated
	// on take by decodeImage); with SpillDir, beyond a bounded in-memory
	// ring of 32Ki entries per window they spill in waves to temp files
	// under this directory, streamed back FIFO. Without it the ring is
	// unbounded and no file is created. I/O failures panic: a half-lost
	// frontier cannot produce a trustworthy verdict.
	SpillDir string
	// Workers sets the search parallelism: 0 uses runtime.NumCPU() workers,
	// N ≥ 1 exactly N, all running the same loop over one shared FIFO
	// frontier. Worker 0 runs on the calling goroutine, so Workers: 1 starts
	// no goroutine and expands states in plain breadth-first order
	// (deterministic visit order and truncation counts). Every worker count
	// visits the same state set and reports the same counts, outcomes and
	// DeadlockAt (the ample choice under POR is a pure function of the
	// state, or of its orbit under Symmetry, so this holds with the
	// reductions on too); only the exact state count at truncation depends
	// on scheduling.
	Workers int
	// Symmetry enables scalarset-style symmetry reduction: states are
	// keyed in the visited set by their canonical representative under
	// permutations of interchangeable caches (same protocol, same
	// directory, cores running identical programs), auto-detected from the
	// configuration — see canonical.go for when detection declines and
	// the reduction silently falls back to the exact search. Deadlock
	// counts and outcome sets are orbit-corrected so they match the
	// unreduced search; user Invariants must not distinguish
	// interchangeable caches.
	Symmetry bool
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
	// MemPool, when non-nil, is a shared accountant the lossy visited sets
	// acquire their memory from (see MemPool): MemBudget stays this
	// search's private cap, but the bytes under it must also fit in the
	// pool, so concurrent searches on one host share one budget. Denied
	// growth truncates with BudgetFull, exactly like a private cap.
	MemPool *MemPool

	// spillRing caps in-memory frontier entries per window when spilling
	// (0 = defaultSpillRing). Tests shrink it to force wave files.
	spillRing int
}

// Progress is one periodic report of a running search (Options.OnProgress).
type Progress struct {
	Elapsed       time.Duration
	Visited       int     // distinct states in the visited set so far
	StatesPerSec  float64 // visited-set growth rate since the last report
	Frontier      int     // states queued awaiting expansion
	LoadFactor    float64 // visited-table occupancy (0 in exact mode)
	SpilledStates int64   // cumulative frontier states written to disk
	HeapBytes     uint64  // runtime.ReadMemStats HeapAlloc (RSS proxy)
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
	States        int                 // distinct states visited (canonical under symmetry)
	Transitions   int                 // moves applied
	Deadlocks     int                 // states with pending work but no moves (orbit-corrected)
	DeadlockAt    string              // snapshot of the lexicographically least deadlock state (stable across worker counts)
	Outcomes      memmodel.OutcomeSet // outcomes at quiescent states
	Violations    []string            // invariant failures
	Truncated     bool                // MaxStates (or the visited-table budget) hit
	Cancelled     bool                // the context was cancelled mid-search (partial result)
	MaxStates     int                 // the state budget that was in effect
	SymmetryPerms int                 // symmetry group order in effect (1 = unreduced)
	PORReduced    int                 // states expanded through an ample subset only (0 = POR off or never hit)
	Engine        string              // System.Engine() label of the searched system ("" = unlabeled)

	// State-storage accounting (see storage.go).
	BudgetFull     bool    // truncation came from the storage MemBudget, not MaxStates
	Storage        string  // "exact", "hash-compaction" or "bitstate", "+spill" when the frontier spilled to disk
	TableBytes     int64   // visited-set memory (exact mode: encoding bytes + map overhead estimate)
	BytesPerState  float64 // TableBytes per distinct visited state
	PeakLoadFactor float64 // highest visited-table occupancy (0 in exact mode)
	OmissionProb   float64 // estimated probability ≥1 state was omitted (lossy modes)
	SpilledStates  int64   // cumulative frontier states written to disk
	SpilledBytes   int64   // cumulative bytes written to spill files
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
	if r.SymmetryPerms > 1 {
		s += fmt.Sprintf(" (symmetry ×%d)", r.SymmetryPerms)
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
	return storage != "" && storage != "exact" && storage != "exact+spill"
}

// searchCtx is the per-search immutable context shared by all workers:
// resolved options, the symmetry group (nil when unreduced) and the
// outcome key tables precomputed once instead of fmt.Sprintf-ed per
// quiescent state.
type searchCtx struct {
	opts      Options
	maxStates int
	canon     *canonicalizer
	por       bool       // ample-set reduction active for this search
	porCands  []porCand  // reduction candidates (top-level caches)
	loadKeys  [][]string // per core, per completed-load index
	memKeys   []string   // per ObserveMem entry
	// cancelled is raised by the context watcher goroutine; the search
	// loop polls it at the same cadence as the state-budget check, so
	// cancellation is cooperative and costs one atomic load per expansion.
	cancelled atomic.Bool
}

// expandScratch is the per-worker reusable buffer set.
type expandScratch struct {
	moves  []Move
	amp    []Move // ample-partition scratch (por.go)
	rest   []Move
	iso    []porCand // isolated ample candidates (por.go)
	ranked []porCand
	key    []byte // symmetric visited-set key of the latest successor
	img    []byte // its state image
	segs   []int  // decodeImage's offsets into the expanded state's image
	saved  tailCopy
	canon  canonScratch
}

func newSearchCtx(initial *System, opts Options, maxStates int) *searchCtx {
	ctx := &searchCtx{opts: opts, maxStates: maxStates}
	if opts.Symmetry {
		ctx.canon = detectSymmetry(initial)
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

// encode appends the visited-set key of s: the canonical representative
// under symmetry, the state image otherwise.
func (ctx *searchCtx) encode(s *System, sc *expandScratch, buf []byte) []byte {
	if ctx.canon != nil {
		return ctx.canon.canonical(s, &sc.canon, buf)
	}
	return s.EncodeBinary(buf)
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

// orbitOutcomes adds the outcome of s under every non-identity group
// permutation: the reduced search reaches one representative per orbit of
// quiescent states, so the permuted siblings' outcomes (same loaded
// values, observed by the permuted cores) are synthesized here to keep the
// reported outcome set equal to the unreduced search's.
func (ctx *searchCtx) orbitOutcomes(s *System, set memmodel.OutcomeSet) {
	for pi := 1; pi < len(ctx.canon.perms); pi++ {
		p := &ctx.canon.perms[pi]
		out := memmodel.Outcome{}
		for t, ti := range p.core {
			core := s.Cores[ti]
			for i, v := range core.Loads {
				out[ctx.loadKey(t, i)] = v
			}
		}
		for i, a := range ctx.opts.ObserveMem {
			out[ctx.memKeys[i]] = s.Mem.Read(a)
		}
		set.Add(out)
	}
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
// the time ExploreCtx returns, and spill temp files are removed; a
// cancelled search leaks nothing and a rerun from the same inputs
// produces the identical full Result. A panic on any worker (a component
// bug, a spill I/O error) is re-raised on the calling goroutine after the
// same cleanup. The initial system is never mutated.
func ExploreCtx(cctx context.Context, initial *System, opts Options) *Result {
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
	ctx := newSearchCtx(initial, opts, maxStates)
	stopWatch := watchCancel(cctx, ctx)
	defer stopWatch()
	visited := newVisited(opts, workers)
	defer visited.release()
	var seed expandScratch
	visited.handle(0).Insert(ctx.encode(initial, &seed, nil))

	sq, err := newSpillQueue(opts.SpillDir, opts.spillRing)
	if err != nil {
		panic(err.Error())
	}
	defer sq.close()
	f := newFrontier(sq, initial.EncodeBinary(nil))

	stopProgress := startProgress(ctx, visited, f)
	defer stopProgress()
	res := explore(initial, ctx, workers, visited, f)
	res.SymmetryPerms = ctx.canon.Perms()
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
	if opts.SpillDir != "" {
		res.Storage += "+spill"
		res.SpilledStates = sq.spilledStates.Load()
		res.SpilledBytes = sq.spilledBytes.Load()
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
func startProgress(ctx *searchCtx, visited visitedSet, f *frontier) func() {
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
					Elapsed:       now.Sub(start),
					Visited:       n,
					Frontier:      int(f.queued.Load()),
					LoadFactor:    visited.load(),
					SpilledStates: f.q.spilledStates.Load(),
					HeapBytes:     ms.HeapAlloc,
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
func explore(initial *System, ctx *searchCtx, workers int, visited visitedSet, f *frontier) *Result {
	freezeComponents(initial)
	results := make([]*Result, workers)
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
			results[w] = ctx.work(initial.Clone(), visited, visited.handle(w), f)
		}(w)
	}
	func() {
		// Runs on worker 0's panic too: siblings stop and exit before the
		// panic unwinds past ExploreCtx's cleanup.
		defer func() { f.stop(); wg.Wait() }()
		results[0] = ctx.work(initial.Clone(), visited, visited.handle(0), f)
	}()
	select {
	case p := <-panics:
		panic(p)
	default:
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
// expanding the last batch for the next batch, rehydrate each taken state
// into the worker's own System cur, and expand it in place. Admitted
// successors enter the frontier as their state images, so no System
// outlives its expansion. The loop ends when the frontier drains or
// stops, or when the state budget, the visited set's memory budget or
// cancellation fires.
func (ctx *searchCtx) work(cur *System, visited visitedSet, ins inserter, f *frontier) *Result {
	res := &Result{Outcomes: memmodel.OutcomeSet{}}
	// A panic mid-expansion must not leave the handle's window open: a
	// sibling growing the fingerprint table would wait on it forever.
	defer ins.End()
	var sc expandScratch
	var batch, pend [][]byte
	admit := func(img []byte) { pend = append(pend, bytes.Clone(img)) }
	for done := 0; ; {
		batch = f.exchange(pend, done, batch)
		clear(pend) // the frontier owns the published encodings now
		pend = pend[:0]
		if len(batch) == 0 {
			return res
		}
		done = len(batch)
		for i, enc := range batch {
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
			if err := decodeImage(cur, enc, &sc.segs); err != nil {
				panic(err.Error())
			}
			ins.Begin()
			ctx.expand(cur, enc, res, &sc, ins.Insert, admit)
			ins.End()
		}
	}
}

// expand processes one taken state, cur decoded from its image pre:
// invariants, successor generation (insert filters duplicates, enqueue
// receives the new ones) and deadlock/outcome classification.
//
// Successors are generated in place (successorsInPlace): each move is
// applied to cur directly, the successor's image is spliced from pre and
// keyed, the image is handed to enqueue *borrowed* only if the visited
// set actually admits it, and cur is restored before the next move. Most
// applied moves reach already-visited states, so this trades a full clone
// per transition — the checker's dominant allocation and the GC pressure
// behind it — for a partial decode and a few copies. The restore is lazy
// (a stalled Apply leaves the system unchanged, so only a progressed move
// dirties cur), which also means a state whose moves all stall reaches
// classification untouched.
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
func (ctx *searchCtx) expand(cur *System, pre []byte, res *Result, sc *expandScratch, insert func([]byte) bool, enqueue func([]byte)) {
	res.States++
	for _, inv := range ctx.opts.Invariants {
		if err := inv(cur); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}

	sc.moves = cur.AppendMoves(sc.moves[:0], ctx.opts.Evictions)
	if len(sc.moves) > 0 && ctx.successorsInPlace(cur, pre, res, sc, insert, enqueue) {
		return
	}
	if cur.Quiescent() {
		o := ctx.outcome(cur)
		res.Outcomes.Add(o)
		if ctx.canon != nil {
			ctx.orbitOutcomes(cur, res.Outcomes)
		}
		return
	}
	if ctx.canon != nil {
		// Report the orbit size so the count matches the unreduced
		// search, which visits every permuted sibling separately.
		res.Deadlocks += ctx.canon.orbitSize(cur, &sc.canon)
	} else {
		res.Deadlocks++
	}
	// Which worker meets which deadlock first depends on the schedule;
	// keeping the lexicographically least snapshot (here and at merge)
	// makes the diagnostic the same at every worker count.
	if snap := cur.Snapshot(); res.DeadlockAt == "" || snap < res.DeadlockAt {
		res.DeadlockAt = snap
	}
}

// successorsInPlace generates the successors of cur, decoded from pre with
// offsets sc.segs, by mutating cur directly. The state is read from bytes
// once, by that decode: the channels and cores are saved once here, and
// after each progressed move restore re-decodes only the dirtied
// component and the memory from their segments of pre and copies the
// channels and cores back. A successor's image is spliced: pre's bytes
// for every component the move left alone, a fresh encode of the rest
// (the full encode when Apply reports no component). Under symmetry the
// visited key is the canonical encode, and the image is built only for
// an admitted successor. Admitted images are handed to enqueue borrowed —
// valid only until the callback returns — so the callback must copy what
// it keeps. Returns whether any move progressed; when none did, cur was
// never dirtied and is still the expanded state.
func (ctx *searchCtx) successorsInPlace(cur *System, pre []byte, res *Result, sc *expandScratch, insert func([]byte) bool, enqueue func([]byte)) bool {
	sc.saved.save(cur)
	dirty := false
	// try applies move i to a clean cur and, when it progresses, admits
	// the successor; cur stays dirty until the next try restores it.
	try := func(i int) bool {
		if dirty {
			if err := cur.restore(pre, sc.segs, &sc.saved); err != nil {
				panic(err.Error())
			}
			dirty = false
		}
		if !cur.Apply(sc.moves[i]) {
			return false
		}
		dirty = true
		res.Transitions++
		if ctx.canon == nil {
			sc.img = cur.spliceImage(sc.img[:0], pre, sc.segs) // the key is the image
			if insert(sc.img) {
				enqueue(sc.img)
			}
			return true
		}
		sc.key = ctx.canon.canonical(cur, &sc.canon, sc.key[:0])
		if insert(sc.key) {
			sc.img = cur.spliceImage(sc.img[:0], pre, sc.segs)
			enqueue(sc.img)
		}
		return true
	}
	progressed := false
	start := 0
	if ctx.por && len(sc.moves) > 1 {
		if amp := ctx.selectAmple(cur, sc); amp > 0 {
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
	for i := start; i < len(sc.moves); i++ {
		if try(i) {
			progressed = true
		}
	}
	return progressed
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
				if ws[cache.LineState(a)] {
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
