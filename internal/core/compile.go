package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heterogen/internal/mcheck"
	"heterogen/internal/spec"
)

// Fusion compiler (compile.go) — lowers a Fusion from a runtime behavior
// (the MergedDir interpreter dispatching over per-cluster directories,
// proxy clones and bridge phases) into a first-class flat transition
// table, the explicit merged-directory controller the paper's Table II and
// Figure 9 describe.
//
// A CompiledDir serves the merged directory in two places only: the
// extraction search, over an empty growing table, and a finished table's
// System() (the -table checks and the artifact's consumers), over a
// growing table seeded with it. Every other fused search — deadlock checks
// and litmus tests — runs the interpreted composite (BuildSystem) under the
// search's own (component state, input) memo, which already interprets
// each distinct (state, message) pair once.
//
// The growing table is a compiler: interned directory states and recorded
// (state, message) outcomes. A pair the table holds replays its recorded
// sends, memory image and register move. A miss decodes the pre-state's
// interned image into the compiler's private scratch MergedDir, runs the
// interpreted deliver there, interns the successor and records the
// outcome — successor state, messages sent, whether memory changed, or a
// stall. A seeded table's misses (a program or eviction setting outside
// its CompileConfig) grow the search's own copy and never the
// CompiledFusion.
//
// Extraction is reachability-driven: the fusion is instantiated for one
// concrete machine configuration (CompileConfig) and the model checker
// exhaustively explores it over an empty table, with partial order
// reduction off so every reachable (state, message) pair is recorded; the resulting table is total over the compiled configuration
// by construction. The extraction's deadlock count is its verdict
// (Verdict).
//
// After extraction finalize renumbers the interned states into a canonical
// order; the table keeps its one form — the records and every state's
// message-sorted span of record indices — which System() seeds its tables
// with. The on-disk artifact (artifact.go) stores only each state's
// delivered messages, in discovery order (discoveryOrder); a load replays
// them through a fresh growing table's step and runs the same finalize,
// so a loaded table is built by the code that built the compiled one.
//
// The compiled artifact drives every downstream layer:
//
//   - CompiledFusion.System() builds a model-checkable system in which the
//     interpreted MergedDir is swapped for a CompiledDir — a table
//     transducer with an int32 current-state register, which is also its
//     state image and plain visited-set key (a bijection with the
//     interned image within one table). Its snapshots and POR node
//     references reproduce the interpreted component's bytes exactly, so compiled and interpreted searches
//     agree state for state (the differential suite in compile_test.go
//     pins this).
//   - FlatFSM() projects the per-address local-state machine (Table II's
//     states/transitions; EnumerateCompiled is the only Table II engine).
//   - Protocol() lifts the projection into a spec.Protocol value that
//     round-trips through the PCC text form and exports to Murphi/DOT.
//   - MarshalArtifact() serializes the table's delivered pairs into the
//     versioned on-disk form; LoadArtifact* replays them into a working
//     CompiledFusion without re-running the extraction search
//     (artifact.go).
//
// Soundness: the interpreted composite stays the oracle. A pair no table
// holds is interpreted, never guessed, so a table searched outside its
// CompileConfig reports exactly what the interpreted composite would.
// An interned state's key is its exact image (the merged directory's
// binary encoding plus the memory's), and a miss interprets on the state
// decoded from that image, so replaying a recorded pair is exact by
// construction.

// Engine labels name the directory-evaluation strategy of a system, carried
// through mcheck.Result and the CLIs so logs and benchmark JSON are
// unambiguous about which engine produced a run.
const (
	EngineInterpreted = "interpreted composite"
	EngineCompiled    = "compiled table"
)

// CompileConfig pins the concrete machine configuration a fusion is
// compiled for. The compiled table is total exactly over this
// configuration: check it with the same caches, programs and an eviction
// setting no broader than the one compiled with.
type CompileConfig struct {
	// CachesPerCluster instantiates the system (as BuildSystem).
	CachesPerCluster []int
	// Programs are the per-core programs driving the extraction (and the
	// programs baked into every System() the compiled fusion builds).
	Programs [][]spec.CoreReq
	// Evictions explores spontaneous replacements during extraction. A
	// table compiled with evictions also covers eviction-free checking
	// (eviction moves only add reachable states, never alter others).
	Evictions bool
	// MaxStates bounds the extraction search (0 = checker default).
	// Extraction must complete: a truncated extraction fails Compile.
	// Excluded from the artifact digest — a completed extraction is
	// independent of the bound it ran under.
	MaxStates int
	// Workers sets the extraction search parallelism (0 = all cores).
	// Excluded from the artifact digest — the extracted table is a pure
	// function of the configuration, not of the search schedule.
	Workers int
	// ProgressEvery/OnProgress mirror mcheck.Options: periodic reports
	// from the otherwise-silent extraction search, surfaced by
	// `heterogen -compile-out -progress`. Excluded from the digest.
	ProgressEvery time.Duration
	OnProgress    func(mcheck.Progress)
	// MemPool forwards a shared visited-set memory accountant to the
	// extraction search (mcheck.Options.MemPool) so a server hosting
	// concurrent compiles shares one budget: an extraction the pool
	// cannot hold truncates, failing with ErrCompileTruncated. Excluded
	// from the digest — accounting never changes what is extracted.
	MemPool *mcheck.MemPool
	// MemBudget bounds the extraction's visited-set memory in bytes
	// (mcheck.Options.MemBudget; 0 = the checker default): an extraction
	// that outgrows it truncates, failing with ErrCompileTruncated.
	// Excluded from the digest, as MemPool is.
	MemBudget int64
}

// stallState marks a recorded stall: Deliver returns false, no side
// effects.
const stallState = int32(-1)

// ErrCompileTruncated marks a Compile failure caused by the extraction
// search hitting its state budget (raise CompileConfig.MaxStates) or its
// visited-set memory (CompileConfig.MemBudget or MemPool). Detectable
// with errors.Is.
var ErrCompileTruncated = errors.New("core: compile extraction truncated")

// ErrCompileCancelled marks a CompileCtx failure caused by context
// cancellation mid-extraction. A partial table is never returned: it
// would hold only the pairs the cancelled search reached, so it could not
// stand for its configuration in an artifact or a Table II row.
// Detectable with errors.Is; the wrapped chain also matches the context's
// own error (context.Canceled or DeadlineExceeded).
var ErrCompileCancelled = errors.New("core: compile extraction cancelled")

// ErrExtractionDeadlock marks a compiled fusion whose extraction search
// reached a deadlock (Verdict): the table is complete, but the fusion is
// not deadlock-free under its CompileConfig. Detectable with errors.Is.
var ErrExtractionDeadlock = errors.New("core: extraction reached a deadlock")

// CompileStats reports where a CompiledFusion came from and what each
// phase cost — the extraction search and table finalization for a
// fresh compile, or the artifact decode for a load. CLIs print it so runs
// are unambiguous about whether the extraction search actually ran.
// The CompileStats.Source values: a fresh extraction, an explicit
// artifact load, or a content-addressed cache hit in CompileOrLoad.
const (
	SourceCompiler = "compiler"
	SourceArtifact = "artifact"
	SourceCache    = "cache"
)

type CompileStats struct {
	// Source is SourceCompiler (fresh extraction), SourceArtifact
	// (explicit load) or SourceCache (cache hit in CompileOrLoad).
	Source string
	// Extract is the exhaustive POR-off extraction search wall time
	// (zero when loaded).
	Extract time.Duration
	// ExtractStates counts the system states the extraction visited.
	ExtractStates int
	// Interpreted counts the deliveries that ran the interpreted
	// MergedDir during extraction — exactly one per distinct (state,
	// message) pair.
	Interpreted int64
	// MemoHits counts deliveries served without interpreting, from the
	// search's memo or the table.
	MemoHits int64
	// Finalize is the table's renumbering and FSM projection time after
	// extraction (a load's is part of Load).
	Finalize time.Duration
	// Load is the artifact read, parse, replay and finalize time (zero
	// when compiled).
	Load time.Duration
	// Deadlocks counts the deadlock states the extraction search reached
	// and DeadlockAt is the lex-least one's snapshot (see Verdict). A
	// loaded table reports the ones its artifact stores.
	Deadlocks  int
	DeadlockAt string
}

// String renders the phase breakdown for CLI logs.
func (s CompileStats) String() string {
	switch s.Source {
	case "artifact", "cache":
		from := "artifact"
		if s.Source == "cache" {
			from = "cache"
		}
		return fmt.Sprintf("loaded from %s in %s", from, s.Load.Round(time.Millisecond))
	default:
		deliveries := fmt.Sprintf("%d interpreted", s.Interpreted)
		if s.MemoHits > 0 {
			deliveries += fmt.Sprintf(", %d memoized", s.MemoHits)
		}
		return fmt.Sprintf("extract %s (%d states; %s) + finalize %s",
			s.Extract.Round(10*time.Millisecond), s.ExtractStates, deliveries,
			s.Finalize.Round(time.Millisecond))
	}
}

// compState is one interned merged-directory state: its exact image (the
// interpreted MergedDir's binary encoding, from which the interpreted
// snapshot is reconstructed on demand), the shared memory image it implies
// and the POR node references.
type compState struct {
	img  []byte       // MergedDir.AppendBinary bytes: the exact image (with mem, the intern key)
	mem  []byte       // Memory.AppendBinary bytes (replayed on remem transitions)
	snap string       // interpreted Snapshot output; reconstructed lazily from img
	refs spec.NodeSet // interpreted RefNodes (ample-set POR)
}

// compTransition is one recorded outcome: the successor state, the
// messages the interpreted deliver sent (replayed in order), and whether
// the shared memory changed (the successor's memory image is installed
// wholesale).
type compTransition struct {
	next  int32
	sends []spec.Msg
	remem bool
}

// CompiledFusion is the compiled flat merged-directory machine plus the
// pristine system template it was extracted from.
type CompiledFusion struct {
	fusion    *Fusion
	cfg       CompileConfig
	template  *mcheck.System // pristine interpreted system; cloned per System()
	layout    *SystemLayout
	scratch   *MergedDir // pristine interpreted clone; decode target for snapshots
	snapMu    sync.Mutex // guards scratch and lazy compState.snap fills
	mergedIdx int
	owned     []spec.NodeID
	// The finished table, in the compiler's form: the interned states, the
	// records, and per state the message-sorted indices of its records.
	// Every slice is capped at its length, so a seeded compiler's growth
	// copies instead of writing into them.
	states    []*compState
	recs      []compRecord
	spans     [][]int32
	fsm       *FlatFSM
	explored  int // system states visited during extraction
	porLocal  bool
	initLocal string          // composite local state at the initial state
	stable    map[string]bool // composite local state -> quiescent?
	stats     CompileStats
}

// newCompiledFusion builds the configuration-dependent skeleton shared by
// Compile and the artifact loader: the interpreted template system, the
// pristine scratch directory and the locality verdicts — everything derivable from (fusion, config) without running
// the extraction. It returns the system it built so Compile can run the
// extraction search over it.
func newCompiledFusion(f *Fusion, cfg CompileConfig) (*CompiledFusion, *mcheck.System) {
	sys, layout := BuildSystem(f, cfg.CachesPerCluster)
	sys.SetPrograms(cfg.Programs)
	cf := &CompiledFusion{
		fusion: f, cfg: cfg, layout: layout,
		scratch:   layout.Merged.Clone().(*MergedDir),
		mergedIdx: len(sys.Components) - 1,
		owned:     layout.Merged.OwnedIDs(),
		fsm:       &FlatFSM{Name: f.Name()},
		porLocal:  layout.Merged.PORLocal(),
		stable:    map[string]bool{},
	}
	cf.template = sys.Clone() // before CompileCtx swaps the searched directory
	cf.initLocal = layout.Merged.LocalState(0)
	cf.stable[cf.initLocal] = layout.Merged.localStable(0)
	return cf, sys
}

// bind swaps sys's merged directory for a CompiledDir over c's table.
func (cf *CompiledFusion) bind(sys *mcheck.System, c *compiler) *mcheck.System {
	if err := sys.SwapComponent(cf.mergedIdx, &CompiledDir{cf: cf, mem: sys.Mem, grow: c}); err != nil {
		panic(err.Error())
	}
	sys.SetEngine(EngineCompiled)
	return sys
}

// fresh returns a compiler over an empty growing table: it holds only the
// initial directory state, index 0, where a CompiledDir starts.
func (cf *CompiledFusion) fresh() *compiler {
	c := newCompiler(cf)
	c.intern(cf.layout.Merged)
	return c
}

// Compile lowers f into a flat transition table for the given
// configuration by exhaustively exploring the system with a growing
// CompiledDir in place of the merged directory (misses run the
// interpreted composite), then renumbering the recorded transitions
// canonically. A deadlock the extraction reaches does not fail the compile;
// it is the table's Verdict.
func Compile(f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	return CompileCtx(context.Background(), f, cfg)
}

// CompileCtx is Compile under a context: the extraction search stops
// cooperatively when ctx is cancelled and CompileCtx returns
// ErrCompileCancelled (also matching ctx.Err() via errors.Is) instead of
// a table.
func CompileCtx(ctx context.Context, f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	start := time.Now()
	cf, sys := newCompiledFusion(f, cfg)
	c := cf.fresh()
	res := mcheck.ExploreCtx(ctx, cf.bind(sys, c), mcheck.Options{
		Evictions: cfg.Evictions, MaxStates: cfg.MaxStates,
		Workers:       cfg.Workers,
		ProgressEvery: cfg.ProgressEvery, OnProgress: cfg.OnProgress,
		MemPool: cfg.MemPool, MemBudget: cfg.MemBudget,
		// Full coverage: reductions prune (state, message) pairs the checker
		// may later need. Deadlocks are fine — the table must reproduce them.
		POR: mcheck.POROff,
	})
	if c.err != nil {
		return nil, c.err
	}
	if res.Cancelled {
		return nil, fmt.Errorf("%w: %s at %d states: %w", ErrCompileCancelled, f.Name(), res.States, ctx.Err())
	}
	if res.Truncated {
		bound := "MaxStates"
		if res.BudgetFull {
			bound = "memory budget"
		}
		return nil, fmt.Errorf("%w: %s at %d states (%s)", ErrCompileTruncated, f.Name(), res.States, bound)
	}
	cf.explored = res.States
	cf.stats = CompileStats{Source: SourceCompiler, Extract: time.Since(start),
		ExtractStates: res.States, Interpreted: c.interpreted, MemoHits: c.memoHits,
		Deadlocks: res.Deadlocks, DeadlockAt: res.DeadlockAt}

	finalizeStart := time.Now()
	cf.finalize(c)
	cf.stats.Finalize = time.Since(finalizeStart)
	return cf, nil
}

// finalize takes over the compiler's table in its canonical form: states
// renumbered (spans permuted, successors remapped), every span and the
// record slice capped, and the projected FSM derived from the records and
// sorted into its canonical rendering order.
func (cf *CompiledFusion) finalize(c *compiler) {
	ord := canonicalOrder(c.states)
	n := len(ord)
	remap := make([]int32, n)
	cf.states = make([]*compState, n)
	cf.spans = make([][]int32, n)
	for i, old := range ord {
		remap[old] = int32(i)
		cf.states[i] = c.states[old]
		span := c.spans[old]
		cf.spans[i] = span[:len(span):len(span)]
	}
	cf.recs = c.recs[:len(c.recs):len(c.recs)]
	for i := range cf.recs {
		if tr := &cf.recs[i].tr; tr.next != stallState {
			tr.next = remap[tr.next]
		}
	}
	local := cf.localAddrs()
	cf.nameStates(local)
	cf.projectFSM(local)
}

// canonicalOrder lists the interned states in their canonical order: state
// 0 stays the initial state (CompiledDir starts there), the rest sort by
// their (image, memory) key. Intern order is a schedule artifact of the
// extraction search's worker interleaving (and discovery order for an
// artifact load's replay), so canonical numbering is what makes the
// finished table, and therefore the artifact bytes, identical across
// worker counts and round trips (the determinism tests pin this).
func canonicalOrder(states []*compState) []int32 {
	ord := make([]int32, len(states))
	for i := range ord {
		ord[i] = int32(i)
	}
	rest := ord[1:]
	sort.Slice(rest, func(i, j int) bool { return stateCmp(states[rest[i]], states[rest[j]]) < 0 })
	return ord
}

// stateCmp orders interned states by their (image, memory) key.
func stateCmp(a, b *compState) int {
	if cmp := bytes.Compare(a.img, b.img); cmp != 0 {
		return cmp
	}
	return bytes.Compare(a.mem, b.mem)
}

// localName is a state's local-state name at one address.
type localName struct {
	a    spec.Addr
	name string
}

// localAddrs lists, per state, the addresses a successful delivery to or
// from it touches: the addresses projectFSM names it at, unnamed yet. A
// state touches a handful of addresses, so a short slice beats a map per
// state.
func (cf *CompiledFusion) localAddrs() [][]localName {
	local := make([][]localName, len(cf.states))
	add := func(s int32, a spec.Addr) {
		for i := range local[s] {
			if local[s][i].a == a {
				return
			}
		}
		local[s] = append(local[s], localName{a: a})
	}
	cf.eachRecord(func(pre int32, r *compRecord) {
		if r.tr.next != stallState {
			add(pre, r.msg.Addr)
			add(r.tr.next, r.msg.Addr)
		}
	})
	return local
}

// nameStates decodes every state localAddrs listed addresses for into the
// scratch directory, names it there at those addresses and records each
// name's stability.
func (cf *CompiledFusion) nameStates(local [][]localName) {
	cf.snapMu.Lock()
	defer cf.snapMu.Unlock()
	for s, names := range local {
		if len(names) == 0 {
			continue
		}
		if err := cf.scratch.DecodeState(spec.NewDec(cf.states[s].img)); err != nil {
			panic(fmt.Sprintf("core: state %d image undecodable during FSM projection: %v", s, err))
		}
		for i := range names {
			names[i].name = cf.scratch.LocalState(names[i].a)
			cf.stable[names[i].name] = cf.scratch.localStable(names[i].a)
		}
	}
}

// projectFSM derives the per-address local-state projection (the Table II
// machine) from the finalized records and local, every state's names at
// the addresses localAddrs listed (nameStates decodes each referenced
// state's exact image once) — instead of building LocalState strings
// inline on every extraction delivery. The projection over records equals
// the projection over deliveries because a (state, message) pair
// determines its successor: every successful delivery contributes the
// edge its record contributes.
func (cf *CompiledFusion) projectFSM(local [][]localName) {
	nameOf := func(s int32, a spec.Addr) string {
		for i := range local[s] {
			if local[s][i].a == a {
				return local[s][i].name
			}
		}
		panic(fmt.Sprintf("core: state %d has no local name at a%d", s, a))
	}
	states := map[string]bool{}
	seen := map[Edge]bool{}
	cf.eachRecord(func(pre int32, r *compRecord) {
		if r.tr.next == stallState {
			return
		}
		e := Edge{From: nameOf(pre, r.msg.Addr), Event: string(cf.fusion.vocab.Name(r.msg.Type)),
			To: nameOf(r.tr.next, r.msg.Addr)}
		states[e.From] = true
		states[e.To] = true
		if !seen[e] {
			seen[e] = true
			cf.fsm.Edges = append(cf.fsm.Edges, e)
		}
	})
	for s := range states {
		cf.fsm.States = append(cf.fsm.States, s)
	}
	sort.Strings(cf.fsm.States)
	sort.Slice(cf.fsm.Edges, func(i, j int) bool {
		a, b := cf.fsm.Edges[i], cf.fsm.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		return a.To < b.To
	})
}

// discoveryOrder lists the finished table's states in the order a replay
// from state 0 discovers them: state 0 first, then each state's unseen
// successors in its records' message order, state by state in this same
// order. Every state of a finished table is reachable from state 0, so the
// order covers them all; the artifact stores the states' message lists in
// it (artifact.go), and its load's replay interns them in it.
func (cf *CompiledFusion) discoveryOrder() []int32 {
	order := make([]int32, 1, len(cf.states))
	seen := make([]bool, len(cf.states))
	seen[0] = true
	for k := 0; k < len(order); k++ {
		for _, ri := range cf.spans[order[k]] {
			if next := cf.recs[ri].tr.next; next != stallState && !seen[next] {
				seen[next] = true
				order = append(order, next)
			}
		}
	}
	return order
}

// eachRecord visits the finished table's records state by state, each
// state's in message order.
func (cf *CompiledFusion) eachRecord(visit func(pre int32, r *compRecord)) {
	for s, span := range cf.spans {
		for _, ri := range span {
			visit(int32(s), &cf.recs[ri])
		}
	}
}

// msgCmp is a strict total order over messages consistent with equality:
// endpoints and payload first, then the type's name order, which v keeps
// as a rank table (Vocab.NameRank) so no name is compared. It is both the
// span order and the binary-search comparison in compiler.step. It takes
// pointers: a by-value Msg is copied on every probe of the search's
// per-delivery lookup.
func msgCmp(a, b *spec.Msg, v *spec.Vocab) int {
	switch {
	case a.Addr != b.Addr:
		if a.Addr < b.Addr {
			return -1
		}
		return 1
	case a.Src != b.Src:
		if a.Src < b.Src {
			return -1
		}
		return 1
	case a.Dst != b.Dst:
		if a.Dst < b.Dst {
			return -1
		}
		return 1
	case a.Req != b.Req:
		if a.Req < b.Req {
			return -1
		}
		return 1
	case a.Data != b.Data:
		if a.Data < b.Data {
			return -1
		}
		return 1
	case a.Ack != b.Ack:
		if a.Ack < b.Ack {
			return -1
		}
		return 1
	case a.VNet != b.VNet:
		if a.VNet < b.VNet {
			return -1
		}
		return 1
	case a.HasData != b.HasData:
		if !a.HasData {
			return -1
		}
		return 1
	default:
		return cmp.Compare(v.NameRank(a.Type), v.NameRank(b.Type))
	}
}

// Fusion returns the fusion this table was compiled from.
func (cf *CompiledFusion) Fusion() *Fusion { return cf.fusion }

// Config returns the configuration the table was compiled for.
func (cf *CompiledFusion) Config() CompileConfig { return cf.cfg }

// Stats reports the phase breakdown of how this table came to be
// (extraction vs artifact load).
func (cf *CompiledFusion) Stats() CompileStats { return cf.stats }

// Verdict is the extraction's deadlock verdict: an error wrapping
// ErrExtractionDeadlock with the count and the lex-least deadlock state
// when the extraction search reached one, nil otherwise. Extraction runs
// without reductions, so nil means deadlock-free under the CompileConfig.
// A table loaded from its artifact (or the compile cache) reports the
// verdict of the extraction that produced it.
func (cf *CompiledFusion) Verdict() error {
	if cf.stats.Deadlocks == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s has %d deadlock states under its compile config; lex-least: %s",
		ErrExtractionDeadlock, cf.fusion.Name(), cf.stats.Deadlocks, cf.stats.DeadlockAt)
}

// DirStates counts the interned (directory state, memory) pairs — the
// transducer's state count (finer than the per-address FlatFSM states).
func (cf *CompiledFusion) DirStates() int { return len(cf.states) }

// Transitions counts the recorded (state, message) outcomes (including
// stalls).
func (cf *CompiledFusion) Transitions() int { return len(cf.recs) }

// Explored reports the system states visited during extraction.
func (cf *CompiledFusion) Explored() int { return cf.explored }

// FlatFSM returns the projected per-address local-state machine — the
// Table II artifact.
func (cf *CompiledFusion) FlatFSM() *FlatFSM { return cf.fsm }

// snapOf returns the interpreted snapshot of an interned state,
// reconstructing it on first use by decoding the state's exact image into
// the pristine scratch directory (the image carries every field Snapshot
// prints, so the reconstructed bytes equal what the interpreted component
// would print). Lazy reconstruction keeps the fmt-heavy snapshot path off the
// extraction hot loop entirely.
func (cf *CompiledFusion) snapOf(st *compState) string {
	cf.snapMu.Lock()
	defer cf.snapMu.Unlock()
	if st.snap == "" {
		cf.decodeScratch(st)
		var w spec.SnapshotWriter
		cf.scratch.Snapshot(&w)
		st.snap = w.String()
	}
	return st.snap
}

// decodeScratch loads st's image into the scratch directory; the caller
// holds snapMu.
func (cf *CompiledFusion) decodeScratch(st *compState) {
	if err := cf.scratch.DecodeState(spec.NewDec(st.img)); err != nil {
		panic(fmt.Sprintf("core: compiled state image undecodable: %v", err))
	}
}

// Protocol lifts the compiled table's per-address projection (FlatFSM)
// into a spec.Protocol value: a directory-only flat machine that
// round-trips through the PCC text form and exports to Murphi and DOT.
//
// The projection is an observation of the transducer, not an executable
// controller: rows carry no actions, and one (state, event) pair may lead
// to several successors (the hidden context — other addresses, shared
// memory, in-flight proxies — is projected away). Composite state names
// sanitize ':' (the proxy-line marker separator) to '.' so transition
// lines survive the PCC action delimiter; a constituent state that already
// contains '.' would make that mapping non-injective and is rejected.
func (cf *CompiledFusion) Protocol() (*spec.Protocol, error) {
	san := func(s string) string { return strings.ReplaceAll(s, ":", ".") }
	for _, s := range cf.fsm.States {
		if strings.Contains(s, ".") {
			return nil, fmt.Errorf("core: composite state %q contains '.', colliding with the ':' sanitization", s)
		}
	}
	m := &spec.Machine{
		Name: cf.fusion.Name() + "-dir",
		Kind: spec.DirCtrl,
		Flat: true,
		Init: spec.State(san(cf.initLocal)),
	}
	seen := map[string]bool{}
	for _, s := range cf.fsm.States {
		seen[s] = true
		if cf.stable[s] {
			m.Stable = append(m.Stable, spec.State(san(s)))
		}
	}
	if !seen[cf.initLocal] && cf.stable[cf.initLocal] {
		m.Stable = append(m.Stable, spec.State(san(cf.initLocal)))
	}
	sort.Slice(m.Stable, func(i, j int) bool { return m.Stable[i] < m.Stable[j] })
	for _, e := range cf.fsm.Edges {
		m.Rows = append(m.Rows, spec.Transition{
			From: spec.State(san(e.From)),
			On:   spec.OnMsg(spec.MsgType(e.Event)),
			Next: spec.State(san(e.To)),
		})
	}
	msgs := map[spec.MsgType]spec.MsgInfo{}
	for _, p := range cf.fusion.Protocols {
		for t, info := range p.Msgs {
			msgs[t] = info
		}
	}
	// Handshake messages are fusion-internal (never declared by a
	// constituent) but appear as projected events.
	for _, e := range cf.fsm.Edges {
		if _, ok := msgs[spec.MsgType(e.Event)]; !ok {
			msgs[spec.MsgType(e.Event)] = spec.MsgInfo{VNet: spec.VResp}
		}
	}
	p := &spec.Protocol{Name: cf.fusion.Name(), Dir: m, Msgs: msgs}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: projected flat protocol invalid: %w", err)
	}
	return p, nil
}

// System builds a model-checkable system for the compiled configuration:
// the template's caches and cores with the interpreted merged directory
// swapped for a CompiledDir over a growing table seeded with this one. A
// pair the table holds replays; a miss (a program or eviction setting the
// table was not compiled for) interprets and grows the search's own copy,
// so the search reports exactly what the interpreted composite would. The
// CompiledFusion never changes.
func (cf *CompiledFusion) System() *mcheck.System {
	return cf.bind(cf.template.Clone(), cf.seed())
}

// seed returns a compiler whose table starts as this finished one. The
// states and records are shared (a state's lazy snapshot cache is the
// only field ever written) and the spans are a shallow
// copy; every shared slice is capped at its length, so the first growth
// copies instead of writing into cf's arrays. intern indexes the keys on
// the first miss.
func (cf *CompiledFusion) seed() *compiler {
	c := newCompiler(cf)
	states := cf.states
	c.states = states
	c.table.Store(&states)
	c.recs = cf.recs
	c.spans = slices.Clone(cf.spans)
	return c
}

// compRecord is one recorded (state, message) outcome; the state's span
// lists its index.
type compRecord struct {
	msg spec.Msg
	tr  compTransition
}

// compiler owns a growing table. Every CompiledDir is bound to one
// (grow), whose deliveries land in step; the mutex serializes table
// lookups and growth so a search may run on the parallel path.
type compiler struct {
	mu sync.Mutex
	// states is the interned state table, appended under mu and published
	// through table to the lock-free readers — the searched directories'
	// encode and POR-reference paths. Each publish stores a fresh
	// slice header after writing the element it newly covers, and interned
	// states are immutable (bar their snapshot cache), so a
	// reader never sees a partially built state.
	states []*compState
	table  atomic.Pointer[[]*compState]
	keys   map[string]int32 // interned img++mem -> state index; built on the first intern
	keyBuf []byte
	spans  [][]int32 // per state: indices into recs, message-sorted
	recs   []compRecord

	// Miss path: the private interpreted directory a pre-state is decoded
	// into, a reusable decode cursor and the send capture. All confined to
	// mu.
	scratch *MergedDir
	dec     spec.Dec
	capture sendCapture
	// vocab names the fusion's message types (msgCmp's tie-break).
	vocab *spec.Vocab

	interpreted int64 // deliveries that ran the interpreted MergedDir
	memoHits    int64 // deliveries served from the search's memo or the table
	err         error
}

// newCompiler returns a table with no states over cf's configuration;
// fresh interns the initial state into it, seed installs a finished table.
func newCompiler(cf *CompiledFusion) *compiler {
	return &compiler{scratch: cf.layout.Merged.Clone().(*MergedDir), vocab: cf.fusion.vocab}
}

// sendCapture is the spec.Env the scratch directory delivers into.
type sendCapture struct{ sends []spec.Msg }

func (e *sendCapture) Send(m spec.Msg) { e.sends = append(e.sends, m) }

// step returns the outcome of delivering m in state pre. A pair already
// recorded replays (memoization); a miss runs the interpreter and records
// the outcome. The lookup is a hand-written binary search: through
// slices.BinarySearchFunc's comparator the target would escape, costing
// the caller's Msg a heap allocation per delivery.
func (c *compiler) step(pre int32, m *spec.Msg) compTransition {
	span := c.spans[pre]
	pos, hi := 0, len(span)
	for pos < hi {
		h := int(uint(pos+hi) >> 1)
		if msgCmp(&c.recs[span[h]].msg, m, c.vocab) < 0 {
			pos = h + 1
		} else {
			hi = h
		}
	}
	if pos < len(span) && msgCmp(&c.recs[span[pos]].msg, m, c.vocab) == 0 {
		c.memoHits++
		return c.recs[span[pos]].tr
	}
	c.interpreted++
	tr := c.interpret(pre, *m)
	c.spans[pre] = slices.Insert(c.spans[pre], pos, int32(len(c.recs)))
	c.recs = append(c.recs, compRecord{msg: *m, tr: tr})
	return tr
}

// interpret runs the interpreted deliver of m on the scratch directory
// loaded with pre's exact image and interns the successor. A stalled
// delivery must be effect-free: the checker discards the stalled
// successor, so a send here would be unreplayable.
func (c *compiler) interpret(pre int32, m spec.Msg) compTransition {
	st := c.states[pre]
	c.load(st.img, st.mem)
	c.capture.sends = c.capture.sends[:0]
	if !c.scratch.deliver(&c.capture, m) {
		if n := len(c.capture.sends); n > 0 && c.err == nil {
			c.err = fmt.Errorf("core: stalled delivery of %s sent %d messages during compile", c.vocab.Format(m), n)
		}
		return compTransition{next: stallState}
	}
	post := c.intern(c.scratch)
	return compTransition{next: post, sends: append([]spec.Msg(nil), c.capture.sends...),
		remem: !bytes.Equal(st.mem, c.states[post].mem)}
}

// load decodes an exact directory image and memory image into the
// scratch directory.
func (c *compiler) load(img, mem []byte) {
	c.dec.Reset(img)
	if err := c.scratch.DecodeState(&c.dec); err != nil {
		panic(fmt.Sprintf("core: interned state image undecodable: %v", err))
	}
	c.dec.Reset(mem)
	if err := c.scratch.Memory().DecodeState(&c.dec); err != nil {
		panic(fmt.Sprintf("core: interned memory image undecodable: %v", err))
	}
}

// intern returns the dense index of the directory's current
// (state, memory) pair, creating and publishing the compState on first
// sight. The fmt-based Snapshot is not captured here — the exact image
// is, and the snapshot is reconstructed from it on demand (snapOf),
// keeping extraction on the binary-encoding path throughout.
func (c *compiler) intern(d *MergedDir) int32 {
	if c.keys == nil {
		c.keys = make(map[string]int32, len(c.states))
		for i, st := range c.states {
			c.keys[string(st.img)+string(st.mem)] = int32(i)
		}
	}
	c.keyBuf = d.AppendBinary(c.keyBuf[:0])
	split := len(c.keyBuf)
	c.keyBuf = d.Memory().AppendBinary(c.keyBuf)
	if idx, ok := c.keys[string(c.keyBuf)]; ok {
		return idx
	}
	st := &compState{
		img:  append([]byte(nil), c.keyBuf[:split]...),
		mem:  append([]byte(nil), c.keyBuf[split:]...),
		refs: d.RefNodes(),
	}
	idx := int32(len(c.states))
	c.states = append(c.states, st)
	published := c.states
	c.table.Store(&published)
	c.spans = append(c.spans, nil)
	c.keys[string(c.keyBuf)] = idx
	return idx
}

// CompiledDir is the flat-table stand-in for the interpreted MergedDir: an
// int32 state register, the shared memory handle, and the growing table it
// dispatches through. It reproduces the interpreted component's
// visited-set encoding, snapshot, POR references and state codec byte for
// byte, so searches over compiled and interpreted systems
// agree exactly.
type CompiledDir struct {
	cf   *CompiledFusion
	cur  int32
	mem  *spec.Memory
	grow *compiler
}

// state returns the interned images of the current state.
func (d *CompiledDir) state() *compState {
	return (*d.grow.table.Load())[d.cur]
}

// OwnedIDs implements spec.Component (same endpoints as the interpreted
// directory, so the route table is unchanged).
func (d *CompiledDir) OwnedIDs() []spec.NodeID { return d.cf.owned }

// Deliver implements spec.Component: look up (or grow) the outcome of m
// in the current state under the table's lock, then stall, or replay the
// recorded sends, memory image and successor state outside it. Each
// distinct pair misses once, so a search mostly runs at table speed.
func (d *CompiledDir) Deliver(env spec.Env, m spec.Msg) bool {
	tr, mem := d.grow.locked(d.cur, &m)
	if tr.next == stallState {
		return false
	}
	for _, s := range tr.sends {
		env.Send(s)
	}
	if mem != nil {
		if err := d.mem.DecodeState(spec.NewDec(mem)); err != nil {
			panic(err.Error())
		}
	}
	d.cur = tr.next
	return true
}

// locked is step under the table's lock, with the successor's memory
// image when the delivery rewrites it. The lock is released on a panic
// too (an undecodable image, a component bug in the interpreter), so the
// panic reaches the search's caller instead of stranding every other
// delivery and Replayed behind it.
func (c *compiler) locked(pre int32, m *spec.Msg) (compTransition, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := c.step(pre, m)
	if tr.remem {
		return tr, c.states[tr.next].mem
	}
	return tr, nil
}

// Clone implements spec.Component.
func (d *CompiledDir) Clone() spec.Component { return d.CloneWithMemory(d.mem.Clone()) }

// CloneWithMemory implements mcheck.MemoryCloner: O(1) — the table is
// shared, only the state register copies.
func (d *CompiledDir) CloneWithMemory(mem *spec.Memory) spec.Component {
	return &CompiledDir{cf: d.cf, cur: d.cur, mem: mem, grow: d.grow}
}

// Snapshot implements spec.Component with the interpreted snapshot
// reconstructed from the state's image (lazily, cached) —
// byte-identical diagnostics and snapshot-mode visited keys.
func (d *CompiledDir) Snapshot(b *spec.SnapshotWriter) {
	b.WriteString(d.cf.snapOf(d.state()))
}

// AppendBinary implements spec.StateCodec with the state register. Within
// one table the register is a bijection with the interned
// (image, memory) pair, so the key distinguishes exactly the states the
// interpreted image does; the shared memory is encoded by the host as
// usual.
func (d *CompiledDir) AppendBinary(buf []byte) []byte {
	return spec.AppendUvarint(buf, uint64(d.cur))
}

// DecodeState implements spec.StateCodec: the inverse of AppendBinary.
func (d *CompiledDir) DecodeState(dec *spec.Dec) error {
	v := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if v >= uint64(len(*d.grow.table.Load())) {
		return fmt.Errorf("core: compiled-state index %d out of range", v)
	}
	d.cur = int32(v)
	return nil
}

// Replayed implements mcheck.Replayer: deliveries a search's memo served
// without reaching the table count as memo hits.
func (d *CompiledDir) Replayed(n int64) {
	d.grow.mu.Lock()
	d.grow.memoHits += n
	d.grow.mu.Unlock()
}

// RefNodes implements spec.NodeReferrer with the interpreted component's
// references captured at intern time (identical ample-set choices).
func (d *CompiledDir) RefNodes() spec.NodeSet { return d.state().refs }

// PORLocal mirrors the interpreted MergedDir's locality verdict.
func (d *CompiledDir) PORLocal() bool { return d.cf.porLocal }

var (
	_ spec.Component      = (*CompiledDir)(nil)
	_ spec.StateCodec     = (*CompiledDir)(nil)
	_ spec.NodeReferrer   = (*CompiledDir)(nil)
	_ mcheck.MemoryCloner = (*CompiledDir)(nil)
	_ mcheck.Replayer     = (*CompiledDir)(nil)
)
