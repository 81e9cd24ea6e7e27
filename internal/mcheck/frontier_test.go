package mcheck

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// TestWorkStealingDeterminism pins the shared frontier's core contract: a
// non-truncated search visits the same state set — identical counts,
// deadlocks and outcome sets — at every worker count. Workers ∈ {2,4,8}
// exceed a small host's core count, so the schedules the test sees
// interleave batch exchanges heavily, not just one worker per core.
func TestWorkStealingDeterminism(t *testing.T) {
	baseline := exploreWith(t, sb(), 1, Options{Evictions: true, POR: POROff})
	bk := baseline.Outcomes.Keys()
	sort.Strings(bk)

	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			res := exploreWith(t, sb(), workers, Options{Evictions: true, POR: POROff})
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
		})
	}
}

// TestFrontierMechanics exercises the frontier's exchange directly:
// publishes land in FIFO order behind what is already queued, a take is
// capped at maxBatch, the outstanding-work count keeps an empty-handed
// exchange waiting only while work is out, stop ends every exchange, and
// queued keys hold budget bytes until taken, a publish the budget cannot
// cover being refused whole and marking the visited set Full.
func TestFrontierMechanics(t *testing.T) {
	v := newVisited(Options{}, 1)
	enc := func(i int) []byte { return []byte(fmt.Sprintf("s%03d", i)) }
	f := newFrontier(v, enc(0))
	if got, want := v.budget.Used(), queuedBytes([][]byte{enc(0)}); got != want {
		t.Fatalf("root holds %d budget bytes, want %d", got, want)
	}

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
	if got := v.budget.Used(); got != 0 {
		t.Fatalf("drained frontier still holds %d budget bytes", got)
	}

	// stop wins over queued work.
	g := newFrontier(v, enc(0))
	g.stop()
	if b := g.exchange(nil, 0, nil); len(b) != 0 {
		t.Fatalf("stopped frontier handed out %d entries", len(b))
	}

	// A budget with room for the root and two more keys refuses a
	// publish of three beside the root: nothing of it is queued, the set
	// is Full, and the root's bytes go back as it is taken.
	tight := newVisited(Options{MemBudget: 3 * queuedBytes([][]byte{enc(0)})}, 1)
	h := newFrontier(tight, enc(0))
	b := h.exchange([][]byte{enc(1), enc(2), enc(3)}, 0, nil)
	if len(b) != 1 || !bytes.Equal(b[0], enc(0)) {
		t.Fatalf("take after a refused publish = %q, want the root alone", b)
	}
	if !tight.Full() {
		t.Fatal("a publish the budget cannot cover left the set not Full")
	}
	if got := tight.budget.Used(); got != 0 {
		t.Fatalf("refused publish holds %d budget bytes, want 0", got)
	}
}

// TestFrontierBudgetTruncates: a memory budget that fits the visited set
// but not the keys queued on the frontier beside it truncates the search
// with BudgetFull. Hash compaction makes the table's size a pure function
// of the state count (its slot doublings), so the budget is exactly the
// table of the full search; the frontier is never empty when the last
// doubling is charged.
func TestFrontierBudgetTruncates(t *testing.T) {
	opts := Options{Evictions: true, POR: POROff, HashCompaction: true}
	full := exploreWith(t, sb(), 1, opts)
	if !full.Ok() || full.TableBytes == 0 {
		t.Fatalf("unbounded control run: %s", full)
	}
	opts.MemBudget = full.TableBytes
	res := exploreWith(t, sb(), 1, opts)
	if !res.Truncated || !res.BudgetFull {
		t.Fatalf("budget of the table alone (%d bytes): %s, want a BudgetFull truncation", opts.MemBudget, res)
	}
	if res.TableBytes > opts.MemBudget {
		t.Fatalf("table grew to %d bytes past the %d-byte budget", res.TableBytes, opts.MemBudget)
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
// by then every worker has exited.
func TestWorkerPanicFailsSearch(t *testing.T) {
	progs, keys := reqsFor(iriw())
	sys := NewHomogeneous(protocols.MustByName(protocols.NameMSI), 4)
	sys.SetPrograms(progs)
	dir := len(sys.Components) - 1
	if err := sys.SwapComponent(dir, panicDir{sys.Components[dir].(*spec.DirInst)}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if p := recover(); p != panicDirValue {
				t.Fatalf("recovered %v, want the component's panic %q", p, panicDirValue)
			}
		}()
		Explore(sys, Options{Workers: 4, POR: POROff, LoadKeys: keys})
	}()
	waitGoroutines(t, base)
}
