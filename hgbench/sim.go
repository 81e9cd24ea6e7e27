package main

import (
	"context"
	"fmt"
	"time"

	"heterogen/internal/core"
	"heterogen/internal/protocols"
	"heterogen/internal/sim"
	"heterogen/internal/workload"
)

// fig10Sim is the §VIII Figure 10 matrix: 13 benchmarks × the HCC, noHS
// and wrHS variants on MESI&RCC-O, Table III 8×8 mesh, full-length traces,
// interpreted dispatch, each job a one-job sim.Sweep on one worker. The
// workload seed offsets every trace seed.
type fig10Sim struct {
	base
	exp  *expectations
	seed int64
	cfg  sim.Config
	jobs []sim.Job
	// got holds each pass's per-job stats for the cross-pass check.
	got [][]*sim.Stats
}

func (w *fig10Sim) ops() int               { return len(w.jobs) }
func (w *fig10Sim) nominal() time.Duration { return 6500 * time.Millisecond }

func (w *fig10Sim) setup(seed int64, tr *Tracer) error {
	w.seed, w.cfg, w.jobs, w.got = seed, sim.TableIII(), nil, nil
	// Every job fuses its own pair inside sim.Sweep. Fusing each variant
	// once here rejects a bad pair or variant before any timing, and gives
	// set-up the fusion cost every other workload's set-up carries.
	for _, v := range sim.Figure10Variants() {
		if _, err := fuse(tr, -1, 0, core.Options{Handshake: v.Handshake, ProxyPool: w.cfg.ProxyPool},
			protocols.NameMESI, protocols.NameRCCO); err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
	}
	for _, params := range workload.Benchmarks() {
		params.Seed += seed
		for _, v := range sim.Figure10Variants() {
			w.jobs = append(w.jobs, sim.Job{Pair: sim.DefaultPair(), Params: params, Variant: v})
		}
	}
	return nil
}

func jobKey(j sim.Job) string { return j.Params.Name + " " + j.Variant.Name }

func (w *fig10Sim) pass(ctx context.Context, tr *Tracer, rec *recorder) {
	got := make([]*sim.Stats, len(w.jobs))
	for i, job := range w.jobs {
		clock := startOp()
		var st *sim.Stats
		var err error
		if tr == nil {
			r := sim.Sweep(w.cfg, w.jobs[i:i+1], singleWorker)[0]
			st, err = r.Stats, r.Err
		} else {
			st, err = w.tracedJob(tr, i, job)
		}
		took := clock.stop()
		if err == nil && st.MemOps == 0 {
			err = fmt.Errorf("%s: no memory operations simulated", jobKey(job))
		}
		got[i] = st
		rec.op(i, took, err)
	}
	w.got = append(w.got, got)
}

// tracedJob is one sweep job with its layers split into spans: trace
// generation, fusion and the simulation.
func (w *fig10Sim) tracedJob(tr *Tracer, op int, job sim.Job) (*sim.Stats, error) {
	root := tr.Start("op.fig10-sim", op, 0)
	defer tr.End(root)
	id := tr.Start("workload.generate", op, root)
	wl := workload.Generate(job.Params, workload.Layout{BigCores: w.cfg.BigCores, TinyCores: w.cfg.TinyCores})
	tr.End(id)
	f, err := fuse(tr, op, root, core.Options{Handshake: job.Variant.Handshake, ProxyPool: w.cfg.ProxyPool},
		job.Pair[0], job.Pair[1])
	if err != nil {
		return nil, err
	}
	id = tr.Start("sim.run", op, root)
	defer tr.End(id)
	s, err := sim.New(w.cfg, f, wl)
	if err != nil {
		return nil, err
	}
	st, err := s.Run()
	if err != nil {
		return nil, err
	}
	tr.Add("sim.messages", float64(st.Messages))
	tr.Add("sim.memops", float64(st.MemOps))
	tr.Add("sim.cycles", float64(st.Cycles))
	tr.Add("sim.flits", float64(st.Flits))
	return st, nil
}

// verify checks that every pass simulated every job identically — the
// simulator is deterministic in the trace seed, and every run makes at
// least two passes — and, where expected.json holds this seed's figures,
// checks cycles and flits against them too.
func (w *fig10Sim) verify(tr *Tracer, rec *recorder) {
	section := fmt.Sprintf("fig10-sim seed=%d", w.seed)
	golden := w.exp.has(section)
	for i, job := range w.jobs {
		first := w.got[0][i]
		for p, pass := range w.got {
			st := pass[i]
			switch {
			case st == nil || first == nil:
				continue // the op already failed
			case st.Cycles != first.Cycles || st.Flits != first.Flits ||
				st.Messages != first.Messages || st.MemOps != first.MemOps:
				rec.fail(p, i, fmt.Errorf("%s: cycles/flits/messages/memops %d/%d/%d/%d, first pass %d/%d/%d/%d",
					jobKey(job), st.Cycles, st.Flits, st.Messages, st.MemOps,
					first.Cycles, first.Flits, first.Messages, first.MemOps))
			case golden:
				if err := w.exp.verify(section, jobKey(job), int64(st.Cycles), int64(st.Flits)); err != nil {
					rec.fail(p, i, err)
				}
			}
		}
	}
}

// info reports simulated memory operations per host second of a pass.
func (w *fig10Sim) info(passWall float64) []string {
	var memops float64
	for _, st := range w.got[0] {
		if st != nil {
			memops += float64(st.MemOps)
		}
	}
	return []string{fmt.Sprintf("sim_memops_per_s %.0f", memops/passWall)}
}
