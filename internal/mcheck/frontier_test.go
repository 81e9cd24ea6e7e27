package mcheck

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestWorkStealingDeterminism pins the shared frontier's core contract: a
// non-truncated search visits the same state set — identical counts,
// deadlocks and outcome sets — at every worker count, with the in-memory
// queue and with a tiny spill ring. Workers ∈ {2,4,8} exceed a small
// host's core count, so the schedules the test sees interleave batch
// exchanges heavily, not just one worker per core.
func TestWorkStealingDeterminism(t *testing.T) {
	baseline := exploreWith(t, sb(), 1, Options{Evictions: true, POR: POROff})
	bk := baseline.Outcomes.Keys()
	sort.Strings(bk)

	for _, workers := range []int{2, 4, 8} {
		for _, spill := range []bool{false, true} {
			name := fmt.Sprintf("w%d", workers)
			opts := Options{Evictions: true, POR: POROff}
			if spill {
				name += "+spill"
				opts.SpillDir = t.TempDir()
				opts.spillRing = 128 // tiny ring: force overflow + wave files
			}
			t.Run(name, func(t *testing.T) {
				res := exploreWith(t, sb(), workers, opts)
				if res.States != baseline.States {
					t.Errorf("visited %d states, sequential baseline %d", res.States, baseline.States)
				}
				if res.Transitions != baseline.Transitions {
					t.Errorf("applied %d transitions, baseline %d", res.Transitions, baseline.Transitions)
				}
				if res.Deadlocks != baseline.Deadlocks {
					t.Errorf("found %d deadlocks, baseline %d", res.Deadlocks, baseline.Deadlocks)
				}
				rk := res.Outcomes.Keys()
				sort.Strings(rk)
				if strings.Join(rk, "\n") != strings.Join(bk, "\n") {
					t.Errorf("outcome sets differ:\ngot:      %v\nbaseline: %v", rk, bk)
				}
				if spill && res.SpilledStates == 0 && res.States > 5_000 {
					t.Errorf("ring of 128 never spilled a wave (%d states)", res.States)
				}
			})
		}
	}
}

// TestFrontierMechanics exercises the frontier's exchange directly:
// publishes land in FIFO order behind what is already queued, a take is
// capped at maxBatch, the outstanding-work count keeps an empty-handed
// exchange waiting only while work is out, and stop ends every exchange.
func TestFrontierMechanics(t *testing.T) {
	q, err := newSpillQueue("", 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(i int) []byte { return []byte(fmt.Sprintf("s%03d", i)) }
	f := newFrontier(q, enc(0))

	// Take the root, then publish its 100 successors.
	batch := f.exchange(nil, 0, nil)
	if len(batch) != 1 || !bytes.Equal(batch[0], enc(0)) {
		t.Fatalf("first take = %q, want the root alone", batch)
	}
	var pend [][]byte
	for i := 1; i <= 100; i++ {
		pend = append(pend, enc(i))
	}
	batch = f.exchange(pend, 1, batch)
	if len(batch) != maxBatch {
		t.Fatalf("take of 100 queued states returned %d, want the maxBatch cap %d", len(batch), maxBatch)
	}
	for i, b := range batch {
		if !bytes.Equal(b, enc(1+i)) {
			t.Fatalf("batch[%d] = %q, want %q (FIFO order)", i, b, enc(1+i))
		}
	}
	if got := f.queued.Load(); got != 100-maxBatch {
		t.Fatalf("queued gauge = %d, want %d", got, 100-maxBatch)
	}
	// A second worker takes the rest while the first still holds its batch.
	rest := f.exchange(nil, 0, nil)
	if len(rest) != 100-maxBatch || !bytes.Equal(rest[0], enc(1+maxBatch)) {
		t.Fatalf("second take = %d entries starting %q, want %d starting %q",
			len(rest), rest[0], 100-maxBatch, enc(1+maxBatch))
	}
	// Retiring both batches with nothing new drains the search.
	if b := f.exchange(nil, maxBatch+len(rest), nil); len(b) != 0 {
		t.Fatalf("take with nothing queued returned %d entries", len(b))
	}
	if f.work != 0 {
		t.Fatalf("outstanding work = %d after every state retired, want 0", f.work)
	}

	// stop wins over queued work.
	g := newFrontier(q, enc(0))
	g.stop()
	if b := g.exchange(nil, 0, nil); len(b) != 0 {
		t.Fatalf("stopped frontier handed out %d entries", len(b))
	}
}

// TestSpillDeterministic: one worker takes states in plain FIFO order, so
// two identical runs write identical spill waves.
func TestSpillDeterministic(t *testing.T) {
	run := func() *Result {
		opts := Options{Evictions: true, POR: POROff, SpillDir: t.TempDir(), spillRing: 128}
		return exploreWith(t, sb(), 1, opts)
	}
	a, b := run(), run()
	if a.SpilledStates == 0 {
		t.Fatalf("ring of 128 never spilled a wave (%d states)", a.States)
	}
	if a.SpilledStates != b.SpilledStates || a.SpilledBytes != b.SpilledBytes {
		t.Fatalf("identical one-worker runs spilled %d states/%d bytes, then %d/%d",
			a.SpilledStates, a.SpilledBytes, b.SpilledStates, b.SpilledBytes)
	}
}

// panicDir is a directory whose Deliver panics when the value 1 for
// address 1 arrives after address 0's value 1 already reached memory — a
// component bug reachable only deep into the search, once every worker
// has a share of the frontier.
type panicDir struct{ *spec.DirInst }

const panicDirValue = "panicDir: poisoned delivery"

func (d panicDir) Deliver(env spec.Env, m spec.Msg) bool {
	if m.Addr == 1 && m.HasData && m.Data == 1 && d.Memory().Read(0) == 1 {
		panic(panicDirValue)
	}
	return d.DirInst.Deliver(env, m)
}

func (d panicDir) Clone() spec.Component {
	return panicDir{d.DirInst.Clone().(*spec.DirInst)}
}

func (d panicDir) CloneWithMemory(mem *spec.Memory) spec.Component {
	return panicDir{d.DirInst.CloneWithMemory(mem).(*spec.DirInst)}
}

// TestWorkerPanicFailsSearch: a panic on any worker fails the search, not
// the process. The caller recovers the component's own panic value, and
// by then every worker has exited and the spill directory is gone.
func TestWorkerPanicFailsSearch(t *testing.T) {
	progs, keys := reqsFor(iriw())
	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 4)
	sys.SetPrograms(progs)
	dir := len(sys.Components) - 1
	if err := sys.SwapComponent(dir, panicDir{sys.Components[dir].(*spec.DirInst)}); err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if p := recover(); p != panicDirValue {
				t.Fatalf("recovered %v, want the component's panic %q", p, panicDirValue)
			}
		}()
		Explore(sys, Options{Workers: 4, POR: POROff, LoadKeys: keys,
			SpillDir: spillDir, spillRing: 64})
	}()
	waitGoroutines(t, base)
	left, err := filepath.Glob(filepath.Join(spillDir, "hgspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("panicked search left %v behind", left)
	}
}
