package mcheck

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxBatch caps how many states one exchange hands a worker.
const maxBatch = 64

// takeSpins is how many empty exchanges merely yield before backing off
// with a short sleep (idle workers poll: there is no condition variable).
const takeSpins = 8

// keyOverhead is what a queued key costs beyond its bytes: its slice
// header in the queue.
const keyOverhead = 24

// frontier is the search's one work queue: an in-memory FIFO of state
// keys (numbered vectors, number.go) behind one mutex, shared by every
// worker. Workers trade whole batches with it — publish the successors
// admitted while expanding the last batch, take up to maxBatch of the
// oldest queued states for the next — so the lock is taken once per
// batch, not once per state.
//
// Queued keys are charged to the search's memory budget, the one the
// visited set grows under: each publish charges its keys' bytes in one
// acquire, and each take releases the bytes of the keys it hands out. A
// denied charge queues nothing and marks the visited set Full, so the
// search truncates with BudgetFull exactly as on a denied table growth.
//
// Termination is an outstanding-work count: a published state counts
// until the worker that took it reports its expansion done, so the count
// reaches zero exactly when the queue is empty and no expansion is in
// flight. At one worker the take order is plain breadth-first FIFO; at
// more, which worker expands which state depends on the schedule, but the
// visited set admits each state once, so counts, outcomes and verdicts
// are identical at every worker count.
type frontier struct {
	mu      sync.Mutex
	q       [][]byte    // queued keys from head on, oldest first (guarded by mu)
	head    int         // index of the oldest queued key (guarded by mu)
	v       *visitedSet // holds the budget queued keys are charged to
	work    int         // states published but not yet expanded (guarded by mu)
	queued  atomic.Int64
	stopped atomic.Bool
}

// newFrontier returns a frontier charging v's budget and holding the
// root key.
func newFrontier(v *visitedSet, root []byte) *frontier {
	f := &frontier{v: v}
	f.work = f.push([][]byte{root})
	f.queued.Store(int64(f.work))
	return f
}

// exchange publishes pend (the frontier takes ownership of the keys),
// retires done expanded states, and fills batch[:0] with up to maxBatch
// of the oldest queued keys. While the queue is empty but other workers
// still hold outstanding work it waits for them; an empty batch means the
// search is complete or stopped.
func (f *frontier) exchange(pend [][]byte, done int, batch [][]byte) [][]byte {
	batch = batch[:0]
	for spins := 0; !f.stopped.Load(); spins++ {
		var idle bool
		batch, idle = f.trade(pend, done, batch)
		if len(batch) > 0 || idle {
			break
		}
		pend, done = nil, 0
		idleWait(spins)
	}
	return batch
}

// trade is exchange's critical section. It reports whether no work is
// outstanding.
func (f *frontier) trade(pend [][]byte, done int, batch [][]byte) ([][]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.work += f.push(pend) - done
	taken := f.q[f.head:min(f.head+maxBatch, len(f.q))]
	if len(taken) > 0 {
		batch = append(batch, taken...)
		f.v.releaseQueued(queuedBytes(taken))
		clear(taken)
	}
	if f.head += len(taken); f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	f.queued.Store(int64(len(f.q) - f.head))
	return batch, f.work == 0
}

// push queues pend after charging its bytes to the budget, and returns
// how many keys it queued: all, or none when the charge is denied. Once
// the taken prefix of the queue outgrows the rest, the rest moves down
// over it, so the queue's backing array stays within twice its length.
func (f *frontier) push(pend [][]byte) int {
	if len(pend) == 0 || !f.v.holdQueued(queuedBytes(pend)) {
		return 0
	}
	if f.head > 0 && f.head >= len(f.q)-f.head {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, pend...)
	return len(pend)
}

// queuedBytes is the budget charge of queueing keys.
func queuedBytes(keys [][]byte) int64 {
	n := int64(len(keys)) * keyOverhead
	for _, k := range keys {
		n += int64(len(k))
	}
	return n
}

// stop aborts the search: every later exchange returns an empty batch.
func (f *frontier) stop() { f.stopped.Store(true) }

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
