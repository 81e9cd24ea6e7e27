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
	// SpillDir, when nonempty, bounds frontier memory too: frontier entries
	// become compact binary encodings (rehydrated on pop via the bijective
	// spill codec), and beyond a bounded in-memory ring they spill in waves
	// to temp files under this directory, streamed back FIFO. Use CanSpill
	// to check a system qualifies (all do in this repo); Explore falls back
	// to the in-memory frontier when it doesn't. I/O failures panic: a
	// half-lost frontier cannot produce a trustworthy verdict.
	SpillDir string
	// SpillRing caps in-memory frontier entries per window when spilling
	// (0 = 32Ki entries).
	SpillRing int
	// Workers sets the search parallelism: 0 uses runtime.NumCPU() workers
	// over a shared frontier, 1 forces the sequential breadth-first search
	// (deterministic visit order; exact first-deadlock and truncation
	// reporting), N>1 uses exactly N workers. Parallel searches visit the
	// same state set and report the same counts and outcomes as the
	// sequential search (the ample choice under POR is a pure function of
	// the state, so this holds with the reduction on too); only the exact
	// state count at truncation depends on scheduling.
	Workers int
	// Encoding keys the visited set: EncodingBinary (default, compact and
	// allocation-lean) or EncodingSnapshot (the human-readable string
	// form).
	Encoding Encoding
	// Symmetry enables scalarset-style symmetry reduction: states are
	// keyed in the visited set by their canonical representative under
	// permutations of interchangeable caches (same protocol, same
	// directory, cores running identical programs), auto-detected from the
	// configuration — see canonical.go for when detection declines and
	// the reduction silently falls back to the exact search. Deadlock
	// counts and outcome sets are orbit-corrected so they match the
	// unreduced search; user Invariants must not distinguish
	// interchangeable caches. Requires EncodingBinary.
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
	DeadlockAt    string              // snapshot of a deadlock (first in sequential mode, lex-least in parallel)
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
	parallel  bool
	por       bool       // ample-set reduction active for this search
	restore   bool       // in-place successor generation via the spill codec (see expand)
	initial   *System    // caller-owned root state, exempt from pool recycling
	porCands  []porCand  // reduction candidates (top-level caches)
	loadKeys  [][]string // per core, per completed-load index
	memKeys   []string   // per ObserveMem entry
	stats     searchStats
	// cancelled is raised by the context watcher goroutine; the search
	// loops poll it at the same cadence as the state-budget check, so
	// cancellation is cooperative and costs one atomic load per expansion.
	cancelled atomic.Bool
}

// expandScratch is the per-worker reusable buffer set.
type expandScratch struct {
	moves    []Move
	amp      []Move // ample-partition scratch (por.go)
	rest     []Move
	encBuf   []byte
	spillBuf []byte
	preImg   []byte // expanded state's spill image (in-place restore)
	preSegs  []int  // per-component end offsets into preImg (partial restore)
	canon    canonScratch
	pool     []*System // recycled expanded states (claim/recycle)
	copyBuf  []byte    // claim's spill-image scratch
}

// poolCap bounds one worker's claim pool; beyond it recycle drops states
// for the collector, so a draining frontier cannot pin its peak footprint
// in recycled Systems.
const poolCap = 256

// claim converts a successor handed to an enqueue callback into a System
// the frontier may own. In restore mode the callback's argument is
// borrowed — successorsInPlace restores it right after the callback
// returns — so claim deep-copies it, preferably onto a recycled System
// through the spill codec: the in-place decode reuses the recycled
// state's allocations (lines, channels, bridges, tasks), collapsing the
// checker's per-admitted-state allocation cost to a byte copy. Without
// the codec, successorsCloned already hands over a fresh clone, which
// claim passes through untouched.
func (ctx *searchCtx) claim(next *System, sc *expandScratch) *System {
	if !ctx.restore {
		return next
	}
	n := len(sc.pool)
	if n == 0 {
		return next.Clone()
	}
	s := sc.pool[n-1]
	sc.pool[n-1] = nil
	sc.pool = sc.pool[:n-1]
	sc.copyBuf = appendSpill(next, sc.copyBuf[:0])
	if err := decodeSpill(s, sc.copyBuf); err != nil {
		panic(err.Error())
	}
	s.mc = next.mc // carry the incremental move cache, exactly as Clone does
	return s
}

// recycle returns an expanded state to the worker's claim pool once the
// search is finished with it. Callers must never recycle the caller-owned
// initial state or a System an enqueue callback took ownership of.
func (sc *expandScratch) recycle(s *System) {
	if len(sc.pool) < poolCap {
		sc.pool = append(sc.pool, s)
	}
}

// searchStats is the live-counter block the progress ticker reads while
// workers run.
type searchStats struct {
	frontier atomic.Int64
}

func newSearchCtx(initial *System, opts Options, maxStates int, parallel bool) *searchCtx {
	ctx := &searchCtx{opts: opts, maxStates: maxStates, parallel: parallel,
		initial: initial}
	ctx.restore = CanSpill(initial)
	if opts.Symmetry {
		ctx.canon = detectSymmetry(initial, opts)
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
// under symmetry, the plain encoding otherwise.
func (ctx *searchCtx) encode(s *System, sc *expandScratch, buf []byte) []byte {
	if ctx.canon != nil {
		return ctx.canon.canonical(s, &sc.canon, buf)
	}
	return encodeState(s, ctx.opts.Encoding, buf)
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

// Explore runs an exhaustive search from the initial system state: a
// deterministic breadth-first walk with Workers: 1, a worker-pool frontier
// search over a sharded visited set otherwise. Both visit every reachable
// state (modulo the MaxStates budget) and agree on state/transition/
// deadlock counts and the outcome set.
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
// produces the identical full Result.
func ExploreCtx(cctx context.Context, initial *System, opts Options) *Result {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	workers := opts.EffectiveWorkers()
	if initial.OnDeliver != nil {
		// Delivery observers (sequence charts, FSM recorders) are shared
		// by clones and not synchronized; keep those walks sequential.
		workers = 1
	}
	ctx := newSearchCtx(initial, opts, maxStates, workers > 1)
	stopWatch := watchCancel(cctx, ctx)
	defer stopWatch()
	visited := newVisited(opts, workers)
	defer visited.release()
	var seed expandScratch
	visited.handle(0).Insert(ctx.encode(initial, &seed, nil))

	var sq *spillQueue
	if opts.SpillDir != "" && CanSpill(initial) {
		var err error
		if sq, err = newSpillQueue(opts.SpillDir, opts.SpillRing); err != nil {
			panic(err.Error())
		}
		defer sq.close()
	}

	stopProgress := startProgress(ctx, visited, sq)
	var res *Result
	if workers == 1 {
		if sq != nil {
			res = exploreSeqSpill(initial, ctx, visited, sq)
		} else {
			res = exploreSeq(initial, ctx, visited)
		}
	} else {
		freezeComponents(initial)
		var f workSource
		if sq != nil {
			f = newWSSpillFrontier(initial, ctx, sq, workers)
		} else {
			f = newWSFrontier(initial, ctx, workers)
		}
		res = exploreParallel(ctx, workers, visited, f)
	}
	stopProgress()
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
	if sq != nil {
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
func startProgress(ctx *searchCtx, visited visitedSet, sq *spillQueue) func() {
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
					Frontier:   int(ctx.stats.frontier.Load()),
					LoadFactor: visited.load(),
					HeapBytes:  ms.HeapAlloc,
				}
				if dt := now.Sub(lastT).Seconds(); dt > 0 {
					p.StatesPerSec = float64(n-lastN) / dt
				}
				if sq != nil {
					p.SpilledStates = sq.spilledStates.Load()
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

// exploreSeq is the deterministic sequential breadth-first search.
func exploreSeq(initial *System, ctx *searchCtx, visited visitedSet) *Result {
	res := &Result{Outcomes: memmodel.OutcomeSet{}, MaxStates: ctx.maxStates}
	queue := []*System{initial}
	ins := visited.handle(0)
	var sc expandScratch

	for head := 0; head < len(queue); head++ {
		if visited.Size() > ctx.maxStates || visited.Full() {
			res.Truncated = true
			break
		}
		if ctx.cancelled.Load() {
			res.Cancelled = true
			break
		}
		cur := queue[head]
		queue[head] = nil // release the expanded state (recycled or collected)
		ins.Begin()
		ctx.expand(cur, res, &sc, ins.Insert, func(next *System) {
			queue = append(queue, ctx.claim(next, &sc))
		})
		ins.End()
		if ctx.restore && cur != initial {
			// Expanded states feed the claim pool; the caller-owned initial
			// state is exempt so it is never handed back out as a copy.
			sc.recycle(cur)
		}
		ctx.stats.frontier.Store(int64(len(queue) - head - 1))
	}
	return res
}

// exploreSeqSpill is exploreSeq over the disk-spilling frontier: the queue
// holds spill encodings instead of cloned Systems, rehydrated on pop into
// one long-lived working copy of the initial state (the enqueue callback
// encodes borrowed successors straight to bytes, so the search never
// retains a System past its own expansion — the whole search runs on a
// single rehydration target). Pop order is the same FIFO order, so
// counts, outcomes and the first deadlock match exploreSeq exactly.
func exploreSeqSpill(initial *System, ctx *searchCtx, visited visitedSet, sq *spillQueue) *Result {
	res := &Result{Outcomes: memmodel.OutcomeSet{}, MaxStates: ctx.maxStates}
	cur := initial.Clone()
	ins := visited.handle(0)
	var sc expandScratch
	sq.push(appendSpill(initial, nil))

	for {
		if visited.Size() > ctx.maxStates || visited.Full() {
			res.Truncated = true
			break
		}
		if ctx.cancelled.Load() {
			res.Cancelled = true
			break
		}
		enc, ok := sq.pop()
		if !ok {
			break
		}
		if err := decodeSpill(cur, enc); err != nil {
			panic(err.Error())
		}
		ins.Begin()
		ctx.expand(cur, res, &sc, ins.Insert, func(next *System) {
			sc.spillBuf = appendSpill(next, sc.spillBuf[:0])
			sq.push(append([]byte(nil), sc.spillBuf...))
		})
		ins.End()
		ctx.stats.frontier.Store(int64(sq.len()))
	}
	return res
}

// expand processes one dequeued state: invariants, successor generation
// (insert filters duplicates, enqueue receives the new ones) and
// deadlock/outcome classification. Shared by both search modes.
//
// Successor generation has two strategies. When every component supports
// the faithful spill codec (ctx.restore — every system this repo builds),
// moves are applied to cur *in place*: the successor is encoded, handed
// to enqueue *borrowed* only if the visited set actually admits it (the
// callback must copy through searchCtx.claim before returning), and cur
// is restored from its one-time spill image before the next move. Most
// applied moves reach already-visited states, so this trades the full
// clone per transition — the checker's dominant allocation and the GC
// pressure behind it — for a cheap allocation-light in-place decode;
// copies happen per *new* state instead of per transition, and claim
// recycles expanded states so even those copies reuse prior allocations.
// The restore is lazy (a stalled Apply leaves the system unchanged, so
// only a progressed move dirties cur), which also means a state whose
// moves all stall reaches classification untouched. The fallback strategy
// clones ahead of every Apply and transfers ownership through the same
// enqueue callback (claim passes the clone through).
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
// visited-set contents — the reduced graph is a fixed subgraph and the
// parallel reduced search reports the same counts as the sequential one.
func (ctx *searchCtx) expand(cur *System, res *Result, sc *expandScratch, insert func([]byte) bool, enqueue func(*System)) {
	res.States++
	for _, inv := range ctx.opts.Invariants {
		if err := inv(cur); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}

	sc.moves = cur.AppendMoves(sc.moves[:0], ctx.opts.Evictions)
	var progressed bool
	if ctx.restore && len(sc.moves) > 0 {
		progressed = ctx.successorsInPlace(cur, res, sc, insert, enqueue)
	} else {
		progressed = ctx.successorsCloned(cur, res, sc, insert, enqueue)
	}

	if !progressed {
		if cur.Quiescent() {
			o := ctx.outcome(cur)
			res.Outcomes.Add(o)
			if ctx.canon != nil {
				ctx.orbitOutcomes(cur, res.Outcomes)
			}
		} else {
			if ctx.canon != nil {
				// Report the orbit size so the count matches the unreduced
				// search, which visits every permuted sibling separately.
				res.Deadlocks += ctx.canon.orbitSize(cur, &sc.canon)
			} else {
				res.Deadlocks++
			}
			if res.DeadlockAt == "" {
				res.DeadlockAt = cur.Snapshot()
			} else if ctx.parallel {
				// Parallel visit order is nondeterministic; keeping the
				// lexicographically least snapshot per worker (and across
				// workers at merge) makes the diagnostic stable run-to-run.
				if snap := cur.Snapshot(); snap < res.DeadlockAt {
					res.DeadlockAt = snap
				}
			}
		}
	}
}

// successorsInPlace generates cur's successors by mutating cur directly,
// restoring it from its spill image between moves. Admitted successors
// are handed to enqueue as cur itself — borrowed, valid only until the
// callback returns — so the callback decides how to retain them (claim a
// recycled copy, or encode to frontier bytes with no copy at all).
// Requires CanSpill components (the codec contract is bijectivity, so the
// restore is exact — including the incremental move cache, which is saved
// by value and reinstated with the state bytes it described). Returns
// whether any move progressed; when none did, cur was never dirtied and
// is still the expanded state.
func (ctx *searchCtx) successorsInPlace(cur *System, res *Result, sc *expandScratch, insert func([]byte) bool, enqueue func(*System)) bool {
	sc.preImg, sc.preSegs = appendSpillSegs(cur, sc.preImg[:0], sc.preSegs)
	mcSave := cur.mc
	var dirtyMask uint64
	markDirty := func() {
		if t := cur.touched; t >= 0 && t < 64 {
			dirtyMask |= uint64(1) << uint(t)
		} else {
			dirtyMask = ^uint64(0)
		}
	}
	ensureClean := func() {
		if dirtyMask == 0 {
			return
		}
		if err := cur.restoreSegs(sc.preImg, sc.preSegs, dirtyMask); err != nil {
			panic(err.Error())
		}
		cur.mc = mcSave
		dirtyMask = 0
	}
	progressed := false
	start := 0
	if ctx.por && len(sc.moves) > 1 {
		if amp := ctx.selectAmple(cur, sc); amp > 0 {
			ampProgressed := false
			for i := 0; i < amp; i++ {
				ensureClean()
				if !cur.Apply(sc.moves[i]) {
					continue
				}
				markDirty()
				ampProgressed = true
				progressed = true
				res.Transitions++
				sc.encBuf = ctx.encode(cur, sc, sc.encBuf[:0])
				if insert(sc.encBuf) {
					enqueue(cur)
				}
			}
			if ampProgressed {
				res.PORReduced++
				return true
			}
			start = amp // every ample move stalled: full expansion
		}
	}
	for i, n := start, len(sc.moves); i < n; i++ {
		ensureClean()
		if !cur.Apply(sc.moves[i]) {
			continue
		}
		markDirty()
		progressed = true
		res.Transitions++
		sc.encBuf = ctx.encode(cur, sc, sc.encBuf[:0])
		if insert(sc.encBuf) {
			enqueue(cur)
		}
	}
	return progressed
}

// successorsCloned is the fallback successor strategy for systems without
// the faithful codec: clone ahead of every Apply. The final enabled move
// reuses cur's storage — once its successors are generated, an expanded
// state is only read again when no move progressed, and a stalled Apply
// leaves the system unchanged.
func (ctx *searchCtx) successorsCloned(cur *System, res *Result, sc *expandScratch, insert func([]byte) bool, enqueue func(*System)) bool {
	progressed := false
	start := 0
	if ctx.por && len(sc.moves) > 1 {
		if amp := ctx.selectAmple(cur, sc); amp > 0 {
			ampProgressed := false
			for i := 0; i < amp; i++ {
				next := cur.Clone() // cur must survive a possible fallback
				if !next.Apply(sc.moves[i]) {
					continue
				}
				ampProgressed = true
				progressed = true
				res.Transitions++
				sc.encBuf = ctx.encode(next, sc, sc.encBuf[:0])
				if insert(sc.encBuf) {
					enqueue(next)
				}
			}
			if ampProgressed {
				res.PORReduced++
				return true
			}
			start = amp // every ample move stalled: full expansion
		}
	}
	for i, n := start, len(sc.moves); i < n; i++ {
		next := cur
		if i < n-1 {
			next = cur.Clone()
		}
		if !next.Apply(sc.moves[i]) {
			continue
		}
		progressed = true
		res.Transitions++
		sc.encBuf = ctx.encode(next, sc, sc.encBuf[:0])
		if insert(sc.encBuf) {
			enqueue(next)
		}
	}
	return progressed
}

// workSource is the parallel search's work distributor: the in-memory
// work-stealing frontier (wsFrontier) or its disk-spilling counterpart
// (wsSpillFrontier). Both shard the frontier into per-worker deques with
// steal-half balancing — no shared queue mutex, no condition variable.
type workSource interface {
	// take hands worker w its next batch: popped from the worker's own
	// deque when possible, stolen from a sibling otherwise. It spins down
	// with a short backoff while siblings may still produce work and
	// returns nil when the search is complete or stopped. sc is the
	// worker's scratch: the spill frontier rehydrates into its recycled
	// Systems instead of cloning fresh ones.
	take(w int, sc *expandScratch) []*System
	// admit buffers one admitted successor for worker w. next is borrowed —
	// valid only for the duration of the call — so each frontier converts
	// it to its own representation immediately: the in-memory frontier
	// claims a (pool-recycled) copy, the spill frontier encodes it to
	// bytes with no System copy at all.
	admit(w int, sc *expandScratch, next *System)
	// flush publishes worker w's buffered admissions onto w's own deque.
	flush(w int)
	// settle retires n expanded states from the outstanding-work count.
	settle(n int)
	// stop aborts the search (truncation).
	stop()
}

// maxBatch caps how many states one take hands a worker.
const maxBatch = 64

// takeSpins is how many empty take sweeps merely yield before backing off
// with a short sleep (idle workers poll: there is no condition variable).
const takeSpins = 8

// wsDeque is one worker's frontier deque: the owner pushes and pops at the
// tail (depth-first-ish, cache-warm), thieves steal from the head — the
// oldest, shallowest states, which tend to root the largest unexplored
// subtrees. A plain mutex guards it: per-worker deques are uncontended
// except during steals, and a mutex keeps the memory ordering honest on the
// single-core runner this repo benchmarks on (a lock-free Chase–Lev deque
// would buy nothing there).
type wsDeque struct {
	mu   sync.Mutex
	buf  []*System
	head int      // buf[head:] are live; the dead prefix is compacted lazily
	_    [32]byte // pad deques apart: owner-written fields stay on one line
}

// popTail removes up to max (at most half the live entries, rounded up)
// states from the tail, leaving the rest in place for thieves.
func (d *wsDeque) popTail(max int) []*System {
	d.mu.Lock()
	n := len(d.buf) - d.head
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	k := (n + 1) / 2
	if k > max {
		k = max
	}
	lo := len(d.buf) - k
	batch := make([]*System, k)
	copy(batch, d.buf[lo:])
	for i := lo; i < len(d.buf); i++ {
		d.buf[i] = nil // release to the collector
	}
	d.buf = d.buf[:lo]
	d.mu.Unlock()
	return batch
}

// stealHalf removes up to max (half the live entries, rounded up) states
// from the head.
func (d *wsDeque) stealHalf(max int) []*System {
	d.mu.Lock()
	n := len(d.buf) - d.head
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	k := (n + 1) / 2
	if k > max {
		k = max
	}
	batch := make([]*System, k)
	copy(batch, d.buf[d.head:d.head+k])
	for i := d.head; i < d.head+k; i++ {
		d.buf[i] = nil
	}
	d.head += k
	d.compactLocked()
	d.mu.Unlock()
	return batch
}

// pushTail appends states at the owner's end.
func (d *wsDeque) pushTail(states []*System) {
	d.mu.Lock()
	d.buf = append(d.buf, states...)
	d.mu.Unlock()
}

// compactLocked reclaims the dead prefix once it dominates the buffer
// (amortized O(1) per steal).
func (d *wsDeque) compactLocked() {
	if d.head < 64 || d.head*2 < len(d.buf) {
		return
	}
	n := copy(d.buf, d.buf[d.head:])
	for i := n; i < len(d.buf); i++ {
		d.buf[i] = nil
	}
	d.buf = d.buf[:n]
	d.head = 0
}

// wsFrontier distributes cloned Systems through per-worker deques with
// steal-half balancing. Termination detection is one atomic outstanding-
// work counter: push raises it before the states become visible and settle
// lowers it only after their expansion completed, so the counter reaches
// zero exactly when every deque is empty and no expansion is in flight —
// a worker that sweeps every deque empty and then reads zero can exit.
// Which worker expands which state is schedule-dependent, but the visited
// set admits each state exactly once, so counts, outcomes and verdicts are
// identical at any worker count (the determinism tests pin 1/2/4/8).
type wsFrontier struct {
	ctx     *searchCtx
	stats   *searchStats
	deques  []wsDeque
	pend    [][]*System  // per-worker admit buffers, published by flush
	work    atomic.Int64 // states pushed but not yet settled
	queued  atomic.Int64 // states sitting in deques (frontier gauge)
	stopped atomic.Bool
}

func newWSFrontier(initial *System, ctx *searchCtx, workers int) *wsFrontier {
	f := &wsFrontier{ctx: ctx, deques: make([]wsDeque, workers),
		pend: make([][]*System, workers), stats: &ctx.stats}
	f.deques[0].buf = []*System{initial}
	f.work.Store(1)
	f.queued.Store(1)
	return f
}

func (f *wsFrontier) take(w int, sc *expandScratch) []*System {
	for spins := 0; ; spins++ {
		if f.stopped.Load() {
			return nil
		}
		if batch := f.deques[w].popTail(maxBatch); batch != nil {
			f.taken(len(batch))
			return batch
		}
		for i := 1; i < len(f.deques); i++ {
			if batch := f.deques[(w+i)%len(f.deques)].stealHalf(maxBatch); batch != nil {
				f.taken(len(batch))
				return batch
			}
		}
		if f.work.Load() == 0 {
			return nil
		}
		idleWait(spins)
	}
}

func (f *wsFrontier) taken(n int) {
	f.stats.frontier.Store(f.queued.Add(int64(-n)))
}

func (f *wsFrontier) admit(w int, sc *expandScratch, next *System) {
	f.pend[w] = append(f.pend[w], f.ctx.claim(next, sc))
}

func (f *wsFrontier) flush(w int) {
	states := f.pend[w]
	if len(states) == 0 {
		return
	}
	f.work.Add(int64(len(states)))
	f.deques[w].pushTail(states)
	f.stats.frontier.Store(f.queued.Add(int64(len(states))))
	for i := range states {
		states[i] = nil
	}
	f.pend[w] = states[:0]
}

func (f *wsFrontier) settle(n int) { f.work.Add(int64(-n)) }
func (f *wsFrontier) stop()        { f.stopped.Store(true) }

// idleWait backs an empty-handed worker off: yield for the first sweeps
// (another worker is likely mid-expansion), then sleep briefly so idle
// workers stop burning a core while one long expansion drains.
func idleWait(spins int) {
	if spins < takeSpins {
		runtime.Gosched()
	} else {
		time.Sleep(50 * time.Microsecond)
	}
}

// wsByteDeque is wsDeque over spill encodings, consumed FIFO: the owner
// and thieves both take from the head. Breadth-first consumption keeps the
// frontier wide the way the sequential spill search does, so a search that
// outgrows the ring genuinely overflows into the spill queue's wave files
// instead of hiding its frontier in a handful of deep deques — the memory
// bound SpillDir promises is a property of the ring, not of a lucky visit
// order.
type wsByteDeque struct {
	mu   sync.Mutex
	buf  [][]byte
	head int
	_    [32]byte
}

func (d *wsByteDeque) stealHalf(max int) [][]byte {
	d.mu.Lock()
	n := len(d.buf) - d.head
	if n == 0 {
		d.mu.Unlock()
		return nil
	}
	k := (n + 1) / 2
	if k > max {
		k = max
	}
	batch := make([][]byte, k)
	copy(batch, d.buf[d.head:d.head+k])
	for i := d.head; i < d.head+k; i++ {
		d.buf[i] = nil
	}
	d.head += k
	d.compactLocked()
	d.mu.Unlock()
	return batch
}

// pushTail appends encodings at the tail and returns the oldest half of
// the deque for the caller to spill when the live count exceeded limit
// (ownership of the returned slices transfers to the caller).
func (d *wsByteDeque) pushTail(encs [][]byte, limit int) [][]byte {
	d.mu.Lock()
	d.buf = append(d.buf, encs...)
	var overflow [][]byte
	if live := len(d.buf) - d.head; live > limit {
		k := live / 2
		overflow = make([][]byte, k)
		copy(overflow, d.buf[d.head:d.head+k])
		for i := d.head; i < d.head+k; i++ {
			d.buf[i] = nil
		}
		d.head += k
		d.compactLocked()
	}
	d.mu.Unlock()
	return overflow
}

func (d *wsByteDeque) compactLocked() {
	if d.head < 64 || d.head*2 < len(d.buf) {
		return
	}
	n := copy(d.buf, d.buf[d.head:])
	for i := n; i < len(d.buf); i++ {
		d.buf[i] = nil
	}
	d.buf = d.buf[:n]
	d.head = 0
}

// wsSpillFrontier is the disk-spilling work-stealing frontier: per-worker
// deques hold spill encodings (encoded and rehydrated outside any lock),
// each capped at SpillRing/workers live entries and consumed FIFO. On
// overflow the oldest half migrates to the shared spillQueue (bounded
// memory + wave files on disk, guarded by its own mutex since the queue
// itself is not goroutine-safe); a worker that finds every deque empty
// refills from the spill queue before concluding the search drained.
// Frontier memory is therefore O(SpillRing) across the deques plus the
// spill queue's own in-memory window, however wide the search gets.
type wsSpillFrontier struct {
	stats    *searchStats
	template *System
	deques   []wsByteDeque
	pend     [][][]byte // per-worker admit buffers (spill encodings)
	dequeCap int        // per-deque live-entry cap
	spillMu  sync.Mutex
	sq       *spillQueue
	work     atomic.Int64
	queued   atomic.Int64
	stopped  atomic.Bool
}

func newWSSpillFrontier(initial *System, ctx *searchCtx, sq *spillQueue, workers int) *wsSpillFrontier {
	ring := ctx.opts.SpillRing
	if ring <= 0 {
		ring = defaultSpillRing
	}
	dequeCap := ring / workers
	if dequeCap < 64 {
		dequeCap = 64
	}
	f := &wsSpillFrontier{sq: sq, template: initial.Clone(), stats: &ctx.stats,
		deques: make([]wsByteDeque, workers), pend: make([][][]byte, workers),
		dequeCap: dequeCap}
	f.deques[0].buf = [][]byte{appendSpill(initial, nil)}
	f.work.Store(1)
	f.queued.Store(1)
	return f
}

func (f *wsSpillFrontier) take(w int, sc *expandScratch) []*System {
	for spins := 0; ; spins++ {
		if f.stopped.Load() {
			return nil
		}
		if encs := f.deques[w].stealHalf(maxBatch); encs != nil {
			return f.rehydrate(encs, sc)
		}
		for i := 1; i < len(f.deques); i++ {
			if encs := f.deques[(w+i)%len(f.deques)].stealHalf(maxBatch); encs != nil {
				return f.rehydrate(encs, sc)
			}
		}
		f.spillMu.Lock()
		var encs [][]byte
		for len(encs) < maxBatch {
			enc, ok := f.sq.pop()
			if !ok {
				break
			}
			encs = append(encs, enc)
		}
		f.spillMu.Unlock()
		if len(encs) > 0 {
			return f.rehydrate(encs, sc)
		}
		if f.work.Load() == 0 {
			return nil
		}
		idleWait(spins)
	}
}

// rehydrate decodes a taken batch into the worker's recycled Systems,
// cloning the pristine template only when the pool runs dry.
func (f *wsSpillFrontier) rehydrate(encs [][]byte, sc *expandScratch) []*System {
	f.stats.frontier.Store(f.queued.Add(int64(-len(encs))))
	batch := make([]*System, len(encs))
	for i, enc := range encs {
		if n := len(sc.pool); n > 0 {
			batch[i] = sc.pool[n-1]
			sc.pool[n-1] = nil
			sc.pool = sc.pool[:n-1]
		} else {
			batch[i] = f.template.Clone()
		}
		if err := decodeSpill(batch[i], enc); err != nil {
			panic(err.Error())
		}
	}
	return batch
}

func (f *wsSpillFrontier) admit(w int, sc *expandScratch, next *System) {
	sc.spillBuf = appendSpill(next, sc.spillBuf[:0])
	f.pend[w] = append(f.pend[w], append([]byte(nil), sc.spillBuf...))
}

func (f *wsSpillFrontier) flush(w int) {
	encs := f.pend[w]
	if len(encs) == 0 {
		return
	}
	f.work.Add(int64(len(encs)))
	overflow := f.deques[w].pushTail(encs, f.dequeCap)
	if overflow != nil {
		f.spillMu.Lock()
		for _, enc := range overflow {
			f.sq.push(enc)
		}
		f.spillMu.Unlock()
	}
	f.stats.frontier.Store(f.queued.Add(int64(len(encs))))
	for i := range encs {
		encs[i] = nil
	}
	f.pend[w] = encs[:0]
}

func (f *wsSpillFrontier) settle(n int) { f.work.Add(int64(-n)) }
func (f *wsSpillFrontier) stop()        { f.stopped.Store(true) }

// exploreParallel runs the worker-pool frontier search: workers pull
// batches from a shared frontier, filter successors through the shared
// visited set, and merge per-worker results at the end.
func exploreParallel(ctx *searchCtx, workers int, visited visitedSet, f workSource) *Result {
	var truncated, cancelled atomic.Bool

	results := make([]*Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		res := &Result{Outcomes: memmodel.OutcomeSet{}, MaxStates: ctx.maxStates}
		results[w] = res
		ins := visited.handle(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc expandScratch
			for {
				batch := f.take(w, &sc)
				if batch == nil {
					return
				}
				for bi, cur := range batch {
					if visited.Size() > ctx.maxStates || visited.Full() {
						truncated.Store(true)
						f.stop()
						f.settle(len(batch))
						return
					}
					if ctx.cancelled.Load() {
						// Same shutdown as truncation: stop the frontier so
						// sibling workers' take returns nil, settle this
						// batch, and let the merged result carry the flag.
						cancelled.Store(true)
						f.stop()
						f.settle(len(batch))
						return
					}
					ins.Begin()
					ctx.expand(cur, res, &sc, ins.Insert, func(next *System) {
						f.admit(w, &sc, next)
					})
					ins.End()
					f.flush(w)
					if ctx.restore && cur != ctx.initial {
						batch[bi] = nil
						sc.recycle(cur)
					}
				}
				f.settle(len(batch))
			}
		}(w)
	}
	wg.Wait()

	merged := &Result{Outcomes: memmodel.OutcomeSet{}, MaxStates: ctx.maxStates,
		Truncated: truncated.Load(), Cancelled: cancelled.Load()}
	for _, res := range results {
		merged.States += res.States
		merged.Transitions += res.Transitions
		merged.Deadlocks += res.Deadlocks
		merged.PORReduced += res.PORReduced
		// Lexicographically least snapshot across workers: deterministic
		// diagnostics regardless of which worker saw a deadlock first.
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

// outcomeOf extracts the litmus outcome of a quiescent state (slow path,
// used by FindPath; Explore uses searchCtx.outcome with precomputed keys).
func outcomeOf(s *System, loadKeys [][]string) memmodel.Outcome {
	out := memmodel.Outcome{}
	for t, core := range s.Cores {
		for i, v := range core.Loads {
			k := fmt.Sprintf("T%d:%d", t, i)
			if t < len(loadKeys) && i < len(loadKeys[t]) {
				k = loadKeys[t][i]
			}
			out[k] = v
		}
	}
	return out
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
