package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/litmus"
)

// litmusShapes are the suite's shapes: the seven two-thread shapes plus
// WRC and RWC (IRIW's four threads would dominate the pass).
var litmusShapes = []string{"MP", "S", "2+2W", "CoRR", "LB", "R", "SB", "WRC", "RWC"}

// litmusSuite runs every Table II pair × litmusShapes × heterogeneous
// thread allocation, one test per op, in a seed-shuffled order: exact
// storage, no evictions, a single search worker.
type litmusSuite struct {
	base
	exp   *expectations
	tests []litmusTest
}

type litmusTest struct {
	f      *core.Fusion
	shape  litmus.Shape
	assign []int
}

func (t litmusTest) key() string { return fmt.Sprintf("%s %s %v", t.f.Name(), t.shape.Name, t.assign) }

func (w *litmusSuite) ops() int               { return len(w.tests) }
func (w *litmusSuite) nominal() time.Duration { return 9 * time.Second }

func (w *litmusSuite) setup(seed int64, tr *Tracer) error {
	w.tests = w.tests[:0]
	for _, pair := range core.TableIIPairs() {
		f, err := fuse(tr, -1, 0, core.Options{}, pair[0], pair[1])
		if err != nil {
			return err
		}
		f.Freeze()
		for _, name := range litmusShapes {
			shape, ok := litmus.ShapeByName(name)
			if !ok {
				return fmt.Errorf("no litmus shape %q", name)
			}
			for _, assign := range litmus.Allocations(len(shape.Prog().Threads), 2, false) {
				w.tests = append(w.tests, litmusTest{f, shape, assign})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.tests), func(i, j int) { w.tests[i], w.tests[j] = w.tests[j], w.tests[i] })
	return nil
}

// litmusProbe runs one traced pass of the litmus suite for another
// workload's traced run, so that the gate still measures the litmus and
// memmodel layers although litmus-suite is not gated. Its fusions are
// untraced, leaving core.fuse_ms to the host workload.
func litmusProbe(tr *Tracer, rec *recorder, exp *expectations, seed int64) {
	w := &litmusSuite{exp: exp}
	if err := w.setup(seed, nil); err != nil {
		rec.beginPass(1)
		rec.op(0, opTime{}, fmt.Errorf("litmus probe: %w", err))
		return
	}
	rec.beginPass(w.ops())
	w.pass(context.Background(), tr, rec)
}

func (w *litmusSuite) pass(ctx context.Context, tr *Tracer, rec *recorder) {
	opts := litmus.Options{Workers: singleWorker, ExploreWorkers: singleWorker}
	for i, t := range w.tests {
		clock := startOp()
		id := tr.Start("litmus.run", i, 0)
		r := litmus.RunFusedCtx(ctx, t.f, t.shape, t.assign, opts)
		tr.End(id)
		took := clock.stop()
		tr.Add("litmus.explore_s", r.Elapsed.Seconds())
		tr.Add("litmus.states", float64(r.States))
		var err error
		if !r.Pass() {
			err = fmt.Errorf("%s: %s", t.key(), r)
		} else {
			err = w.exp.verify("litmus-suite", t.key(), int64(r.States), int64(r.Outcomes))
		}
		rec.op(i, took, err)
	}
}
