package main

import (
	"context"
	"fmt"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/engine"
	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
)

// fuse resolves two built-in protocols and fuses them inside a
// "core.fuse" span.
func fuse(tr *Tracer, op, parent int, opts core.Options, a, b string) (*core.Fusion, error) {
	id := tr.Start("core.fuse", op, parent)
	defer tr.End(id)
	pa, err := protocols.ByName(a)
	if err != nil {
		return nil, err
	}
	pb, err := protocols.ByName(b)
	if err != nil {
		return nil, err
	}
	return core.Fuse(opts, pa, pb)
}

// explore runs one single-worker search inside an "mcheck.explore" span
// and adds its counts to the tracer.
func explore(ctx context.Context, tr *Tracer, op, parent int, sys *mcheck.System, opts mcheck.Options) *mcheck.Result {
	opts.Workers = singleWorker
	id := tr.Start("mcheck.explore", op, parent)
	res := mcheck.ExploreCtx(ctx, sys, opts)
	tr.End(id)
	tr.Add("mcheck.states", float64(res.States))
	tr.Add("mcheck.transitions", float64(res.Transitions))
	tr.Add("mcheck.por_reduced", float64(res.PORReduced))
	tr.Add("mcheck.table_bytes", float64(res.TableBytes))
	tr.Max("mcheck.peak_load_factor", res.PeakLoadFactor)
	return res
}

// searchVerdict is the part of a search result the gate checks besides
// the counts: exhaustive, deadlock-free, on the expected engine.
func searchVerdict(res *mcheck.Result, engineLabel string) error {
	switch {
	case res.Truncated || res.Cancelled:
		return fmt.Errorf("search not exhaustive: %s", res)
	case res.Deadlocks > 0:
		return fmt.Errorf("deadlock: %s", res.DeadlockAt)
	case len(res.Violations) > 0:
		return fmt.Errorf("violations: %v", res.Violations)
	case res.Engine != engineLabel:
		return fmt.Errorf("searched the %q engine, want %q", res.Engine, engineLabel)
	}
	return nil
}

// viicCheck is the §VII-C headline through hgcheck's default path: the
// MESI&RCC-O fusion, one cache per cluster, two addresses, evictions,
// hash compaction, POR on, interpreted composite directory.
type viicCheck struct {
	base
	exp  *expectations
	seed int64
	sys  *mcheck.System
}

func (w *viicCheck) ops() int               { return 1 }
func (w *viicCheck) nominal() time.Duration { return 15 * time.Second }

func (w *viicCheck) setup(seed int64, tr *Tracer) error {
	f, err := fuse(tr, -1, 0, core.Options{}, protocols.NameMESI, protocols.NameRCCO)
	if err != nil {
		return err
	}
	sys, _ := core.BuildSystem(f, []int{1, 1})
	sys.SetPrograms(engine.CheckDriver(2, 2, false))
	w.sys, w.seed = sys, seed
	return nil
}

func (w *viicCheck) pass(ctx context.Context, tr *Tracer, rec *recorder) {
	clock := startOp()
	root := tr.Start("op.viic-check", 0, 0)
	res := explore(ctx, tr, 0, root, w.sys.Clone(), mcheck.Options{
		Evictions:      true,
		HashCompaction: true,
		MaxStates:      engine.DefaultCheckMaxStates,
	})
	tr.End(root)
	t := clock.stop()
	err := searchVerdict(res, core.EngineInterpreted)
	if err == nil {
		err = w.exp.verify("viic-check", "MESI&RCC-O 1c2a",
			int64(res.States), int64(res.Transitions), int64(res.Deadlocks), int64(len(res.Outcomes)))
	}
	rec.op(0, t, err)
}

func (w *viicCheck) probe(tr *Tracer, _ *recorder) { stepProbe(tr, w.seed, w.sys, true) }

// compileCold is the .hgcf artifact journey: extract MESI&RCC-O's flat
// table at the full Table II configuration, serialize it, load it back
// against the fusion (the digest must match) and check the loaded table
// with hash compaction.
type compileCold struct {
	base
	exp    *expectations
	seed   int64
	f      *core.Fusion
	cfg    core.CompileConfig
	digest string
	loaded *core.CompiledFusion
}

func (w *compileCold) ops() int               { return 1 }
func (w *compileCold) nominal() time.Duration { return 8 * time.Second }

func (w *compileCold) setup(seed int64, tr *Tracer) error {
	f, err := fuse(tr, -1, 0, core.Options{}, protocols.NameMESI, protocols.NameRCCO)
	if err != nil {
		return err
	}
	f.Freeze()
	w.f, w.cfg, w.seed = f, core.TableIICompileConfig(false, singleWorker), seed
	w.digest = core.CompileDigest(f, w.cfg)
	return nil
}

func (w *compileCold) pass(ctx context.Context, tr *Tracer, rec *recorder) {
	clock := startOp()
	root := tr.Start("op.compile-cold", 0, 0)
	check, err := w.journey(ctx, tr, root)
	tr.End(root)
	t := clock.stop()
	if err == nil {
		err = check()
	}
	rec.op(0, t, err)
}

// journey runs the op and returns the check of its outputs, which runs
// after the op's clock stops.
func (w *compileCold) journey(ctx context.Context, tr *Tracer, root int) (func() error, error) {
	id := tr.Start("core.compile", 0, root)
	cf, err := core.CompileCtx(ctx, w.f, w.cfg)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	st := cf.Stats()
	tr.Add("core.compile.extract_s", st.Extract.Seconds())
	tr.Add("core.compile.finalize_ms", ms(st.Finalize))
	tr.Add("core.compile.interpreted", float64(st.Interpreted))
	tr.Add("core.compile.memo_hits", float64(st.MemoHits))
	tr.Add("core.table.dir_states", float64(cf.DirStates()))
	tr.Add("core.table.transitions", float64(cf.Transitions()))

	id = tr.Start("core.artifact.marshal", 0, root)
	data := cf.MarshalArtifact()
	tr.End(id)
	tr.Add("core.artifact.bytes", float64(len(data)))

	id = tr.Start("core.artifact.load", 0, root)
	loaded, err := core.LoadArtifactFor(data, w.f, w.cfg)
	tr.End(id)
	if err != nil {
		return nil, err
	}
	w.loaded = loaded

	res := explore(ctx, tr, 0, root, loaded.System(), mcheck.Options{
		Evictions:      w.cfg.Evictions,
		HashCompaction: true,
		MaxStates:      engine.DefaultCheckMaxStates,
	})
	return func() error {
		if cf.Digest() != w.digest || loaded.Digest() != w.digest {
			return fmt.Errorf("digest: compiled %s, loaded %s, want %s", cf.Digest(), loaded.Digest(), w.digest)
		}
		if err := searchVerdict(res, core.EngineCompiled); err != nil {
			return err
		}
		flatStates, flatEdges := loaded.FlatFSM().Counts()
		return w.exp.verify("compile-cold", "MESI&RCC-O tableII-full",
			int64(st.ExtractStates), st.Interpreted, st.MemoHits,
			int64(flatStates), int64(flatEdges), int64(loaded.DirStates()), int64(loaded.Transitions()),
			int64(res.States), int64(res.Transitions), int64(len(res.Outcomes)))
	}, nil
}

func (w *compileCold) probe(tr *Tracer, rec *recorder) {
	if w.loaded != nil {
		stepProbe(tr, w.seed, w.loaded.System(), w.cfg.Evictions)
	}
	litmusProbe(tr, rec, w.exp, w.seed)
}
