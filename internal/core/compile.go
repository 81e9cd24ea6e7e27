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
// The table is the search's own memo at the merged directory. A search
// numbers the directory by its (image, memory) pair and memoizes each
// (state, message) → (next state, sends) outcome it interprets
// (internal/mcheck/number.go); a compiled state is such a pair and a
// record such an outcome, a stall included.
//
// Extraction is reachability-driven: the fusion is instantiated for one
// concrete machine configuration (CompileConfig) and the model checker
// exhaustively explores the interpreted composite (BuildSystem) with
// partial order reduction off, so every reachable (state, message) pair is
// met. The search reports each outcome its directory memo records, once
// (mcheck.Options.OnMemo), and the growing table takes it over under the
// search's own state numbers (table.adopt). The resulting table is total
// over the compiled configuration by construction, and the extraction's
// deadlock count is its verdict (Verdict).
//
// After extraction finalize renumbers the states into a canonical order;
// the table keeps its one form — the records and every state's
// message-sorted span of record indices. The on-disk artifact
// (artifact.go) stores only each state's delivered messages, in discovery
// order (discoveryOrder); a load replays them through the interpreter
// (compiler) and runs the same finalize, so a loaded table is built by the
// code that built the compiled one.
//
// The compiled artifact drives every downstream layer:
//
//   - CompiledFusion.System() builds the interpreted composite with the
//     finished table attached as its memo seed (mcheck.Seed): a search
//     enters every state and record before it starts, so no pair the
//     table holds is interpreted again. The table lends the search its
//     outcomes, never its own state codec, so seeded and unseeded searches
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
// CompileConfig reports exactly what the interpreted composite would. A
// state's key is its exact image (the merged directory's binary encoding
// plus the memory's), so a seeded outcome is the one the search would
// have interpreted.

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
	// Interpreted counts the directory outcomes the extraction search's
	// memo recorded — exactly one per distinct (state, message) pair, the
	// table's records.
	Interpreted int64
	// MemoHits counts the directory deliveries the memo served instead:
	// its hits, and the misses whose record another worker made first
	// (mcheck.Result.MemoHits).
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

// compTransition is one recorded outcome: the successor state (stallState
// for a stall) and the messages the interpreted deliver sent, in order.
type compTransition struct {
	next  int32
	sends []spec.Msg
}

// CompiledFusion is the compiled flat merged-directory machine plus the
// pristine system template it was extracted from.
type CompiledFusion struct {
	fusion   *Fusion
	cfg      CompileConfig
	template *mcheck.System // pristine interpreted system; cloned per System()
	layout   *SystemLayout
	// The finished table: the states (each the directory's image, the
	// memory's and its RefNodes), the records, and per state the
	// message-sorted indices of its records.
	states    []*mcheck.MemoState
	recs      []compRecord
	spans     [][]int32
	fsm       *FlatFSM
	explored  int             // system states visited during extraction
	initLocal string          // composite local state at the initial state
	stable    map[string]bool // composite local state -> quiescent?
	stats     CompileStats
	// artifact is the table's .hgcf bytes when a load re-marshalled them
	// or a cache write marshalled them; set before the table is handed
	// out and never written again (Artifact).
	artifact []byte
}

// newCompiledFusion builds the configuration-dependent skeleton shared by
// Compile and the artifact loader: the interpreted template system and
// the initial state's locality verdict — everything derivable from
// (fusion, config) without running the extraction.
func newCompiledFusion(f *Fusion, cfg CompileConfig) *CompiledFusion {
	sys, layout := BuildSystem(f, cfg.CachesPerCluster)
	sys.SetPrograms(cfg.Programs)
	cf := &CompiledFusion{
		fusion: f, cfg: cfg, template: sys, layout: layout,
		fsm:    &FlatFSM{Name: f.Name()},
		stable: map[string]bool{},
	}
	cf.initLocal = layout.Merged.LocalState(0)
	cf.stable[cf.initLocal] = layout.Merged.localStable(0)
	return cf
}

// initial returns a table that holds only the initial directory state,
// index 0 — the number every search gives it.
func (cf *CompiledFusion) initial() *table {
	m := cf.layout.Merged
	t := &table{vocab: cf.fusion.vocab}
	t.state(0, mcheck.MemoState{Img: m.AppendBinary(nil), Mem: m.Memory().AppendBinary(nil), Refs: m.RefNodes()})
	return t
}

// Compile lowers f into a flat transition table for the given
// configuration by exhaustively exploring the interpreted composite and
// taking over every directory outcome its memo records, then renumbering
// the table canonically. A deadlock the extraction reaches does not fail
// the compile; it is the table's Verdict.
func Compile(f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	return CompileCtx(context.Background(), f, cfg)
}

// CompileCtx is Compile under a context: the extraction search stops
// cooperatively when ctx is cancelled and CompileCtx returns
// ErrCompileCancelled (also matching ctx.Err() via errors.Is) instead of
// a table.
func CompileCtx(ctx context.Context, f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	start := time.Now()
	cf := newCompiledFusion(f, cfg)
	t := cf.initial()
	res := mcheck.ExploreCtx(ctx, cf.template.Clone(), mcheck.Options{
		Evictions: cfg.Evictions, MaxStates: cfg.MaxStates,
		Workers:       cfg.Workers,
		ProgressEvery: cfg.ProgressEvery, OnProgress: cfg.OnProgress,
		MemPool: cfg.MemPool, MemBudget: cfg.MemBudget,
		// Full coverage: reductions prune (state, message) pairs the checker
		// may later need. Deadlocks are fine — the table must reproduce them.
		POR:    mcheck.POROff,
		OnMemo: t.adopt,
	})
	if t.err != nil {
		return nil, t.err
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
		ExtractStates: res.States, Interpreted: int64(len(t.recs)), MemoHits: res.MemoHits,
		Deadlocks: res.Deadlocks, DeadlockAt: res.DeadlockAt}

	finalizeStart := time.Now()
	cf.finalize(t)
	cf.stats.Finalize = time.Since(finalizeStart)
	return cf, nil
}

// finalize takes over a growing table in its canonical form: states
// renumbered (spans permuted, successors remapped), every span and the
// record slice capped, and the projected FSM derived from the records and
// sorted into its canonical rendering order.
func (cf *CompiledFusion) finalize(t *table) {
	ord := canonicalOrder(t.states)
	n := len(ord)
	remap := make([]int32, n)
	cf.states = make([]*mcheck.MemoState, n)
	cf.spans = make([][]int32, n)
	for i, old := range ord {
		remap[old] = int32(i)
		cf.states[i] = t.states[old]
		span := t.spans[old]
		cf.spans[i] = span[:len(span):len(span)]
	}
	cf.recs = t.recs[:len(t.recs):len(t.recs)]
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
// 0 stays the initial state, the rest sort by their (image, memory) key.
// Intern order is a schedule artifact of the extraction search's worker
// interleaving (and discovery order for an artifact load's replay), so canonical numbering is what makes the
// finished table, and therefore the artifact bytes, identical across
// worker counts and round trips (the determinism tests pin this).
func canonicalOrder(states []*mcheck.MemoState) []int32 {
	ord := make([]int32, len(states))
	for i := range ord {
		ord[i] = int32(i)
	}
	rest := ord[1:]
	sort.Slice(rest, func(i, j int) bool { return stateCmp(states[rest[i]], states[rest[j]]) < 0 })
	return ord
}

// stateCmp orders interned states by their (image, memory) key.
func stateCmp(a, b *mcheck.MemoState) int {
	if cmp := bytes.Compare(a.Img, b.Img); cmp != 0 {
		return cmp
	}
	return bytes.Compare(a.Mem, b.Mem)
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

// nameStates decodes every state localAddrs listed addresses for into a
// scratch directory, names it there at those addresses and records each
// name's stability.
func (cf *CompiledFusion) nameStates(local [][]localName) {
	scratch := cf.layout.Merged.Clone().(*MergedDir)
	for s, names := range local {
		if len(names) == 0 {
			continue
		}
		if err := scratch.DecodeState(spec.NewDec(cf.states[s].Img)); err != nil {
			panic(fmt.Sprintf("core: state %d image undecodable during FSM projection: %v", s, err))
		}
		for i := range names {
			names[i].name = scratch.LocalState(names[i].a)
			cf.stable[names[i].name] = scratch.localStable(names[i].a)
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
// span order and the binary-search comparison in table.find. It takes
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
// the interpreted composite, labelled EngineCompiled, with the finished
// table attached as its memo seed (seed). A search enters every state and
// record of the table before it starts, so a pair the table holds is
// never interpreted; a miss (a program or eviction setting the table was
// not compiled for) interprets like any other, so the search reports
// exactly what the interpreted composite would. The CompiledFusion never
// changes.
func (cf *CompiledFusion) System() *mcheck.System {
	sys := cf.template.Clone()
	sys.SetEngine(EngineCompiled)
	sys.SetSeed(cf.seed)
	return sys
}

// seed is the finished table as an mcheck.Seed: its states in index
// order, then its records state by state.
func (cf *CompiledFusion) seed(state func(mcheck.MemoState), record func(pre uint32, m spec.Msg, next uint32, sends []spec.Msg)) {
	for _, st := range cf.states {
		state(*st)
	}
	cf.eachRecord(func(pre int32, r *compRecord) {
		next := mcheck.Stall
		if r.tr.next != stallState {
			next = uint32(r.tr.next)
		}
		record(uint32(pre), r.msg, next, r.tr.sends)
	})
}

// SeedMismatchError is why a table cannot seed a search (Seeds). What
// names the part that differs — "protocols", "fusion options" or "caches
// per cluster" — and Table and Request render the two sides. It matches
// ErrArtifactMismatch under errors.Is.
type SeedMismatchError struct {
	What, Table, Request string
}

func (e *SeedMismatchError) Error() string {
	return fmt.Sprintf("%v: the table's %s (%s) differ from the requested search's (%s)",
		ErrArtifactMismatch, e.What, e.Table, e.Request)
}

func (e *SeedMismatchError) Unwrap() error { return ErrArtifactMismatch }

// Seeds reports whether the table may seed a search of f over
// cachesPerCluster caches (nil) or why not (*SeedMismatchError). A
// directory outcome depends on the fusion and the cache layout, not on the
// cores' programs, so the constituents' canonical PCC exports, the fusion
// options and the cache counts must match the table's; the programs and
// the eviction setting need not.
func (cf *CompiledFusion) Seeds(f *Fusion, cachesPerCluster []int) error {
	exports := func(f *Fusion) []string {
		var out []string
		for _, p := range f.Protocols {
			out = append(out, spec.ExportPCC(p))
		}
		return out
	}
	switch {
	case !slices.Equal(exports(cf.fusion), exports(f)):
		return &SeedMismatchError{What: "protocols", Table: cf.fusion.Name(), Request: f.Name()}
	case cf.fusion.Opts != f.Opts:
		return &SeedMismatchError{What: "fusion options", Table: fmt.Sprintf("%+v", cf.fusion.Opts), Request: fmt.Sprintf("%+v", f.Opts)}
	case !slices.Equal(cf.cfg.CachesPerCluster, cachesPerCluster):
		return &SeedMismatchError{What: "caches per cluster", Table: fmt.Sprint(cf.cfg.CachesPerCluster), Request: fmt.Sprint(cachesPerCluster)}
	}
	return nil
}

// compRecord is one recorded (state, message) outcome; the state's span
// lists its index.
type compRecord struct {
	msg spec.Msg
	tr  compTransition
}

// table is a growing table: the states, the records, and per state the
// message-sorted indices of its records. The extraction grows one from
// its search's memo (adopt), an artifact load through the interpreter
// (compiler).
type table struct {
	states []*mcheck.MemoState
	spans  [][]int32
	recs   []compRecord
	vocab  *spec.Vocab // names the fusion's message types (msgCmp's tie-break)
	err    error       // the first stalled delivery that sent
}

// state returns the index of state n, taking s as its images when the
// table has not seen it yet. The images are kept, not copied.
func (t *table) state(n uint32, s mcheck.MemoState) int32 {
	for int(n) >= len(t.states) {
		t.states = append(t.states, nil)
		t.spans = append(t.spans, nil)
	}
	if t.states[n] == nil {
		t.states[n] = &s
	}
	return int32(n)
}

// adopt takes over one outcome the extraction search's directory memo
// recorded (mcheck.Options.OnMemo). The search numbers the directory's
// states densely from the initial state 0, so its numbers index the
// table; finalize renumbers them canonically.
func (t *table) adopt(e mcheck.MemoEntry) {
	pre, next := t.state(e.Pre, e.PreState), stallState
	if e.Next != mcheck.Stall {
		next = t.state(e.Next, e.NextState)
	}
	pos, _ := t.find(pre, &e.Msg)
	t.insert(pre, pos, e.Msg, next, e.Sends)
}

// find returns where m's record is, or belongs, in pre's span, and
// whether it is there. The lookup is a hand-written binary search:
// through slices.BinarySearchFunc's comparator the target would escape,
// costing the caller's Msg a heap allocation per delivery.
func (t *table) find(pre int32, m *spec.Msg) (int, bool) {
	span := t.spans[pre]
	pos, hi := 0, len(span)
	for pos < hi {
		h := int(uint(pos+hi) >> 1)
		if msgCmp(&t.recs[span[h]].msg, m, t.vocab) < 0 {
			pos = h + 1
		} else {
			hi = h
		}
	}
	return pos, pos < len(span) && msgCmp(&t.recs[span[pos]].msg, m, t.vocab) == 0
}

// insert records at position pos of pre's span that delivering m led to
// next, sending sends. A stall (next stallState) must be effect-free: the
// checker discards the stalled successor, so a send there would be
// unreplayable, and the table keeps the first such delivery as its err.
func (t *table) insert(pre int32, pos int, m spec.Msg, next int32, sends []spec.Msg) {
	tr := compTransition{next: next}
	switch {
	case next == stallState && len(sends) > 0:
		if t.err == nil {
			t.err = fmt.Errorf("core: stalled delivery of %s sent %d messages", t.vocab.Format(m), len(sends))
		}
	case len(sends) > 0:
		tr.sends = slices.Clone(sends)
	}
	t.spans[pre] = slices.Insert(t.spans[pre], pos, int32(len(t.recs)))
	t.recs = append(t.recs, compRecord{msg: m, tr: tr})
}

// compiler grows a table through the interpreter: an artifact load
// replays each stored (state, message) pair on a private scratch
// MergedDir loaded with the state's exact image (artifact.go, replay).
type compiler struct {
	*table
	keys    map[string]int32 // interned img++mem -> state index; built on the first intern
	keyBuf  []byte
	scratch *MergedDir
	dec     spec.Dec
	capture sendCapture
}

// newCompiler returns a compiler over cf's configuration whose table holds
// only the initial state.
func newCompiler(cf *CompiledFusion) *compiler {
	return &compiler{table: cf.initial(), scratch: cf.layout.Merged.Clone().(*MergedDir)}
}

// sendCapture is the spec.Env the scratch directory delivers into.
type sendCapture struct{ sends []spec.Msg }

func (e *sendCapture) Send(m spec.Msg) { e.sends = append(e.sends, m) }

// step records the outcome of delivering m in state pre, running the
// interpreter on the scratch directory loaded with pre's exact image and
// interning the successor. A pair already recorded is left as it is.
func (c *compiler) step(pre int32, m *spec.Msg) {
	pos, ok := c.find(pre, m)
	if ok {
		return
	}
	st := c.states[pre]
	c.load(st.Img, st.Mem)
	c.capture.sends = c.capture.sends[:0]
	next := stallState
	if c.scratch.deliver(&c.capture, *m) {
		next = c.intern(c.scratch)
	}
	c.insert(pre, pos, *m, next, c.capture.sends)
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

// intern returns the index of the directory's current (state, memory)
// pair, adding the state on first sight.
func (c *compiler) intern(d *MergedDir) int32 {
	if c.keys == nil {
		c.keys = make(map[string]int32, len(c.states))
		for i, st := range c.states {
			c.keys[string(st.Img)+string(st.Mem)] = int32(i)
		}
	}
	c.keyBuf = d.AppendBinary(c.keyBuf[:0])
	split := len(c.keyBuf)
	c.keyBuf = d.Memory().AppendBinary(c.keyBuf)
	if idx, ok := c.keys[string(c.keyBuf)]; ok {
		return idx
	}
	idx := c.state(uint32(len(c.states)), mcheck.MemoState{
		Img:  append([]byte(nil), c.keyBuf[:split]...),
		Mem:  append([]byte(nil), c.keyBuf[split:]...),
		Refs: d.RefNodes(),
	})
	c.keys[string(c.keyBuf)] = idx
	return idx
}
