package main

import (
	"math/rand"
	"time"

	"heterogen/internal/mcheck"
)

// Step-probe size: probeStates reachable states, timed probeRounds times;
// each figure is the median round's per-call cost.
const (
	probeStates = 1000
	probeRounds = 5
)

// stepProbe prices the checker's per-state steps through the public
// System API on a fixed-size sample of reachable states drawn with the
// workload seed: AppendMoves (move generation), Apply (one delivery,
// issue or eviction — the directory's Deliver on a delivery), EncodeBinary
// (the visited-set key) and Clone. Each call kind is timed in a batch, so
// timer overhead stays out of the per-call figures.
func stepProbe(tr *Tracer, seed int64, initial *mcheck.System, evictions bool) {
	sample := reachableSample(seed, initial, evictions)
	var moves, applies, encodes, clones []float64
	var buf []mcheck.Move
	var enc []byte
	for r := 0; r < probeRounds; r++ {
		fresh := make([]*mcheck.System, len(sample))
		for i, s := range sample {
			fresh[i] = s.Clone()
		}
		t := time.Now()
		for _, s := range fresh {
			buf = s.AppendMoves(buf[:0], evictions)
		}
		moves = append(moves, perCall(time.Since(t), len(fresh)))

		t = time.Now()
		for _, s := range sample {
			s.Clone()
		}
		clones = append(clones, perCall(time.Since(t), len(sample)))

		type step struct {
			sys *mcheck.System
			m   mcheck.Move
		}
		var steps []step
		for _, s := range sample {
			for _, m := range s.AppendMoves(nil, evictions) {
				steps = append(steps, step{s.Clone(), m})
			}
		}
		t = time.Now()
		for _, st := range steps {
			st.sys.Apply(st.m)
		}
		applies = append(applies, perCall(time.Since(t), len(steps)))

		t = time.Now()
		for _, st := range steps {
			enc = st.sys.EncodeBinary(enc[:0])
		}
		encodes = append(encodes, perCall(time.Since(t), len(steps)))
	}
	tr.Add("mcheck.step.moves_us", median(moves))
	tr.Add("mcheck.step.apply_us", median(applies))
	tr.Add("mcheck.step.encode_us", median(encodes))
	tr.Add("mcheck.step.clone_us", median(clones))
}

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// reachableSample walks the state space from initial with seeded random
// moves, keeping every state it passes, and restarts from initial when a
// walk reaches a state with no applicable move.
func reachableSample(seed int64, initial *mcheck.System, evictions bool) []*mcheck.System {
	rng := rand.New(rand.NewSource(seed))
	var out []*mcheck.System
	cur := initial.Clone()
	var moves []mcheck.Move
	for len(out) < probeStates {
		moves = cur.AppendMoves(moves[:0], evictions)
		rng.Shuffle(len(moves), func(i, j int) { moves[i], moves[j] = moves[j], moves[i] })
		var next *mcheck.System
		for _, m := range moves {
			if c := cur.Clone(); c.Apply(m) {
				next = c
				break
			}
		}
		if next == nil {
			cur = initial.Clone()
			continue
		}
		out = append(out, next)
		cur = next
	}
	return out
}
