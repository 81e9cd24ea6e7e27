package litmus

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"heterogen/internal/armor"
	"heterogen/internal/core"
	"heterogen/internal/mcheck"
	"heterogen/internal/memmodel"
	"heterogen/internal/spec"
)

// Options configure test execution.
type Options struct {
	// Explore is the checker configuration every test's exploration runs
	// under: evictions, state budget, visited-set storage, reductions,
	// progress reports and a shared memory pool. Each test
	// fills in its own Workers (from ExploreWorkers), LoadKeys and
	// ObserveMem. POR is sound here: litmus verdicts are functions of
	// terminal states only — observer loads record into core-local Loads
	// and outcomes are read at quiescence — so the reduction never hides
	// an observable outcome (see mcheck/por.go).
	Explore mcheck.Options
	// Fusion forwards fusion options (handshake variant etc.).
	Fusion core.Options
	// AllAllocations enumerates every thread→cluster assignment; the
	// default skips assignments that leave a cluster empty (those are the
	// homogeneous cases, validated separately).
	AllAllocations bool
	// MaxThreads skips shapes with more threads in RunSuite (0 = no
	// limit; IRIW's 4 threads explore ~40k states per allocation).
	MaxThreads int
	// Shapes restricts RunSuite to the listed shapes (nil = all).
	Shapes []Shape
	// Workers is RunSuite's worker budget: independent tests (each
	// exploration owns its own System) run concurrently on up to Workers
	// goroutines. 0 = runtime.NumCPU(), 1 = sequential.
	Workers int
	// ExploreWorkers sets each test's state-space search parallelism
	// (mcheck.Options.Workers). In RunSuite, 0 splits the budget: each
	// search gets Workers divided by the concurrent tests (at least one),
	// so the two levels together never exceed Workers. Elsewhere 0 means
	// all cores.
	ExploreWorkers int
}

// Result is the verdict of one litmus test run.
type Result struct {
	Shape       string
	Pair        string
	Assign      []int
	States      int
	Forbidden   bool     // the compound model forbids the exposed outcome
	Observed    bool     // ... and the protocol exhibited it (a failure)
	BadOutcomes []string // observable outcomes outside the allowed set
	Deadlocks   int
	// DeadlockState holds the lex-least deadlocked state snapshot (debug).
	DeadlockState string
	Truncated     bool
	// Cancelled marks a test whose exploration was stopped by context
	// cancellation: counts and outcomes are a partial lower bound, and
	// the verdict fields are not meaningful.
	Cancelled bool
	Outcomes  int           // distinct observable outcomes
	Elapsed   time.Duration // wall-clock time of the exploration
	Engine    string        // directory engine label ("" = unlabeled)
	Workers   int           // search parallelism the exploration ran at
}

// Pass reports whether the protocol passed this test.
func (r *Result) Pass() bool {
	return !r.Observed && len(r.BadOutcomes) == 0 && r.Deadlocks == 0 && !r.Truncated && !r.Cancelled
}

// String renders the result Murphi-report-style (§A.5.1).
func (r *Result) String() string {
	status := "pass"
	switch {
	// A deadlock or forbidden outcome found in a partial space is sound
	// evidence of failure, so those verdicts outrank Cancelled.
	case r.Deadlocks > 0:
		status = "Deadlock"
	case r.Observed || len(r.BadOutcomes) > 0:
		status = "Litmus test fail"
	case r.Cancelled:
		status = "Cancelled"
	case r.Truncated:
		status = "Out of memory"
	}
	s := fmt.Sprintf("%-8s %-18s alloc=%v states=%-7d outcomes=%-3d %s",
		r.Shape, r.Pair, r.Assign, r.States, r.Outcomes, status)
	if r.Engine != "" {
		s += fmt.Sprintf(" [%s]", r.Engine)
	}
	return s
}

// Allocations enumerates thread→cluster assignments. When all is false,
// only assignments using at least two distinct clusters are returned.
func Allocations(threads, clusters int, all bool) [][]int {
	var out [][]int
	assign := make([]int, threads)
	var rec func(i int)
	rec = func(i int) {
		if i == threads {
			used := map[int]bool{}
			for _, c := range assign {
				used[c] = true
			}
			if all || len(used) > 1 || clusters == 1 {
				out = append(out, append([]int(nil), assign...))
			}
			return
		}
		for c := 0; c < clusters; c++ {
			assign[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// Translate adapts the annotated program per cluster (armor) and lowers it
// to core requests plus load keys and the address map. Writer threads get
// a flush epilogue (evictions) so final memory equals the
// write-serialization-final value.
func Translate(p *memmodel.Program, models []memmodel.Model, assign []int) (*memmodel.Program, [][]spec.CoreReq, [][]string, map[string]spec.Addr) {
	adapted := make([][]*memmodel.Op, len(p.Threads))
	for i, th := range p.Threads {
		adapted[i] = armor.AdaptThread(th, models[assign[i]])
	}
	ap := memmodel.NewProgram(adapted...)

	addrs := map[string]spec.Addr{}
	for i, a := range ap.Addrs() {
		addrs[a] = spec.Addr(i)
	}
	progs := make([][]spec.CoreReq, len(ap.Threads))
	keys := make([][]string, len(ap.Threads))
	for ti, ops := range ap.Threads {
		wrote := map[spec.Addr]bool{}
		for _, op := range ops {
			switch op.Kind {
			case memmodel.Load:
				if op.Ord == memmodel.Acquire {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpAcquire})
				}
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpLoad, Addr: addrs[op.Addr]})
				keys[ti] = append(keys[ti], memmodel.LoadKey(op))
			case memmodel.Store:
				if op.Ord == memmodel.Release {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpRelease})
				}
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpStore, Addr: addrs[op.Addr], Value: op.Value})
				if op.Ord == memmodel.Release {
					progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpRelease})
				}
				wrote[addrs[op.Addr]] = true
			case memmodel.Fence:
				progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpFence})
			}
		}
		// Flush epilogue: write back whatever this thread may still hold
		// dirty, so quiescent memory is the coherence-final value.
		was := make([]spec.Addr, 0, len(wrote))
		for a := range wrote {
			was = append(was, a)
		}
		sort.Slice(was, func(i, j int) bool { return was[i] < was[j] })
		for _, a := range was {
			progs[ti] = append(progs[ti], spec.CoreReq{Op: spec.OpEvict, Addr: a})
		}
	}
	return ap, progs, keys, addrs
}

// RunFused executes one shape on a fusion with the given thread→cluster
// assignment, model-checking the heterogeneous system exhaustively.
func RunFused(f *core.Fusion, shape Shape, assign []int, opts Options) *Result {
	return RunFusedCtx(context.Background(), f, shape, assign, opts)
}

// RunFusedCtx is RunFused under a context: cancellation stops the test's
// exploration cooperatively and returns a Result marked Cancelled.
// The system is the interpreted composite, searched under the search's
// own memo.
func RunFusedCtx(ctx context.Context, f *core.Fusion, shape Shape, assign []int, opts Options) *Result {
	p := shape.Prog()
	ap, progsByThread, keysByThread, addrs := Translate(p, f.Compound, assign)

	perCluster := make([]int, len(f.Protocols))
	for _, c := range assign {
		perCluster[c]++
	}
	// Systems are cluster-major; scatter thread programs onto cores.
	progs := make([][]spec.CoreReq, len(assign))
	keys := make([][]string, len(assign))
	base := make([]int, len(perCluster))
	for c := 1; c < len(perCluster); c++ {
		base[c] = base[c-1] + perCluster[c-1]
	}
	next := make([]int, len(perCluster))
	for ti := range ap.Threads {
		c := assign[ti]
		idx := base[c] + next[c]
		next[c]++
		progs[idx] = progsByThread[ti]
		keys[idx] = keysByThread[ti]
	}
	cm, err := f.CompoundModel(assign)
	if err != nil {
		panic(err)
	}
	sys, _ := core.BuildSystem(f, perCluster)
	sys.SetPrograms(progs)
	out := &Result{Shape: shape.Name, Pair: f.Name(), Assign: assign}
	return judge(ctx, sys, opts, shape, p, ap, keys, addrs, cm, out)
}

// judge explores sys under opts.Explore, recording the test's loads and
// final memory, and fills out's counts and verdict against the outcomes
// model m allows for the adapted program ap (prog is the shape's original
// program, which the exposed outcome is phrased in).
func judge(ctx context.Context, sys *mcheck.System, opts Options, shape Shape, prog, ap *memmodel.Program,
	keys [][]string, addrs map[string]spec.Addr, m memmodel.Model, out *Result) *Result {
	var observe []spec.Addr
	memKeys := map[string]string{}
	for name, a := range addrs {
		observe = append(observe, a)
		memKeys[name] = fmt.Sprintf("%d", a)
	}
	sort.Slice(observe, func(i, j int) bool { return observe[i] < observe[j] })

	mo := opts.Explore
	mo.Workers, mo.LoadKeys, mo.ObserveMem = opts.ExploreWorkers, keys, observe
	start := time.Now()
	res := mcheck.ExploreCtx(ctx, sys, mo)
	out.Elapsed = time.Since(start)

	allowed := memmodel.AllowedOutcomesMem(ap, m, memKeys)
	out.States, out.Deadlocks, out.DeadlockState = res.States, res.Deadlocks, res.DeadlockAt
	out.Truncated, out.Cancelled = res.Truncated, res.Cancelled
	out.Outcomes, out.Engine, out.Workers = len(res.Outcomes), res.Engine, mo.EffectiveWorkers()
	for k := range res.Outcomes {
		if _, ok := allowed[k]; !ok {
			out.BadOutcomes = append(out.BadOutcomes, k)
		}
	}
	sort.Strings(out.BadOutcomes)
	if shape.Exposed != nil {
		// Rebuild the exposed outcome against the adapted program (load
		// keys may have shifted) by renaming memory keys.
		if exposed := exposedFor(shape, prog, ap, memKeys); exposed != nil {
			out.Forbidden = !allowed.HasMatch(exposed)
			out.Observed = out.Forbidden && res.Outcomes.HasMatch(exposed)
		}
	}
	return out
}

// exposedFor maps the shape's exposed outcome onto the adapted program:
// load keys are matched by load position (adaptation preserves the number
// and order of loads), memory keys by address.
func exposedFor(shape Shape, orig, adapted *memmodel.Program, memKeys map[string]string) memmodel.Outcome {
	src := shape.Exposed(orig)
	origLoads := orig.Loads()
	adLoads := adapted.Loads()
	if len(origLoads) != len(adLoads) {
		return nil
	}
	out := memmodel.Outcome{}
	for k, v := range src {
		if strings.HasPrefix(k, "m:") {
			name := strings.TrimPrefix(k, "m:")
			suffix, ok := memKeys[name]
			if !ok {
				return nil
			}
			out["m:"+suffix] = v
			continue
		}
		found := false
		for i, ol := range origLoads {
			if memmodel.LoadKey(ol) == k {
				out[memmodel.LoadKey(adLoads[i])] = v
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return out
}

// SuiteReport aggregates a suite run, in the spirit of the artifact's
// Test_Result.txt.
type SuiteReport struct {
	Results []*Result
	// Cancelled marks a partial report: the suite's context fired before
	// every scheduled test ran. Results holds the tests that completed
	// (possibly themselves Cancelled mid-search) in the deterministic
	// suite order; never-started tests are absent.
	Cancelled bool
}

// Passed and Failed count verdicts.
func (s *SuiteReport) Passed() int {
	n := 0
	for _, r := range s.Results {
		if r.Pass() {
			n++
		}
	}
	return n
}

// Failed counts failing tests.
func (s *SuiteReport) Failed() int { return len(s.Results) - s.Passed() }

// String renders the report.
func (s *SuiteReport) String() string {
	var b strings.Builder
	for _, r := range s.Results {
		fmt.Fprintln(&b, r)
	}
	fmt.Fprintf(&b, "litmus: %d tests, %d passed, %d failed\n", len(s.Results), s.Passed(), s.Failed())
	return b.String()
}

// RunHomogeneous validates one shape on a single-cluster system of the
// given protocol: the §VII methodology applied to a constituent protocol
// against its own consistency model.
func RunHomogeneous(p *spec.Protocol, shape Shape, opts Options) *Result {
	return RunHomogeneousCtx(context.Background(), p, shape, opts)
}

// RunHomogeneousCtx is RunHomogeneous under a context (see RunFusedCtx).
func RunHomogeneousCtx(ctx context.Context, p *spec.Protocol, shape Shape, opts Options) *Result {
	prog := shape.Prog()
	model := memmodel.MustByID(p.Model)
	models := []memmodel.Model{model}
	assign := make([]int, len(prog.Threads))
	ap, progs, keys, addrs := Translate(prog, models, assign)

	sys := mcheck.NewHomogeneous(p, len(ap.Threads))
	sys.SetPrograms(progs)
	out := &Result{Shape: shape.Name, Pair: p.Name, Assign: assign}
	return judge(ctx, sys, opts, shape, prog, ap, keys, addrs, memmodel.Homogeneous(model, len(ap.Threads)), out)
}

// suiteJob is one independent litmus test of a suite run.
type suiteJob struct {
	fusion *core.Fusion
	shape  Shape
	assign []int
}

// RunSuite runs every shape over every allocation for the fusion of each
// protocol pair, spreading the independent tests over a worker pool of
// opts.Workers goroutines (each test's exploration owns its own System;
// the fusions are frozen up front so shared protocol tables are read-only
// during the run). Results come back in the same deterministic order as a
// sequential run.
func RunSuite(pairs [][]*spec.Protocol, opts Options) (*SuiteReport, error) {
	return RunSuiteCtx(context.Background(), pairs, opts)
}

// RunSuiteCtx is RunSuite under a context: cancellation stops dispatching
// new tests, cancels the in-flight explorations, and returns the partial
// report with Cancelled set — completed verdicts are kept, never-started
// tests are dropped.
func RunSuiteCtx(ctx context.Context, pairs [][]*spec.Protocol, opts Options) (*SuiteReport, error) {
	shapes := opts.Shapes
	if shapes == nil {
		shapes = Shapes()
	}
	var jobs []suiteJob
	for _, protos := range pairs {
		f, err := core.Fuse(opts.Fusion, protos...)
		if err != nil {
			return nil, err
		}
		for _, shape := range shapes {
			threads := len(shape.Prog().Threads)
			if opts.MaxThreads > 0 && threads > opts.MaxThreads {
				continue
			}
			for _, assign := range Allocations(threads, len(protos), opts.AllAllocations) {
				jobs = append(jobs, suiteJob{fusion: f, shape: shape, assign: assign})
			}
		}
	}

	budget := opts.Workers
	if budget <= 0 {
		budget = runtime.NumCPU()
	}
	workers := min(budget, len(jobs))
	if opts.ExploreWorkers == 0 {
		// Split the budget between the levels: concurrent tests times
		// per-test search workers never exceed it.
		opts.ExploreWorkers = max(1, budget/max(workers, 1))
	}

	results := make([]*Result, len(jobs))
	if workers <= 1 {
		for i, j := range jobs {
			if ctx.Err() != nil {
				break
			}
			results[i] = RunFusedCtx(ctx, j.fusion, j.shape, j.assign, opts)
		}
		return assembleSuite(ctx, results), nil
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				results[i] = RunFusedCtx(ctx, j.fusion, j.shape, j.assign, opts)
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return assembleSuite(ctx, results), nil
}

// assembleSuite compacts a possibly sparse result slice (cancellation
// skips jobs) into the report, preserving the deterministic suite order.
func assembleSuite(ctx context.Context, results []*Result) *SuiteReport {
	report := &SuiteReport{Cancelled: ctx.Err() != nil}
	for _, r := range results {
		if r != nil {
			report.Results = append(report.Results, r)
		}
	}
	return report
}
