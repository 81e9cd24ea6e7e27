package mcheck

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spillQueue is the FIFO behind the search frontier: states are queued as
// their keys (numbered vectors, number.go) instead of cloned Systems, and
// only a bounded window lives in memory — a head slice being consumed, a
// tail slice being filled, and an ordered list of "wave" files holding
// everything in between. When the tail reaches the ring capacity it is
// flushed to a new wave file; when the head runs dry the oldest wave is
// streamed back (or, with no waves on disk, head and tail swap). Frontier
// memory is therefore O(ring), however wide the BFS gets. A queue without
// a spill directory has an unbounded ring and never touches the disk.
//
// The queue is not goroutine-safe; the frontier serializes access through
// its mutex. I/O errors are fatal to the search (a half-lost frontier
// cannot produce a trustworthy verdict), reported by panic with the
// failing path.
type spillQueue struct {
	dir     string // per-search temp directory, removed by close ("" = in memory)
	ring    int    // max in-memory entries per window
	head    [][]byte
	headIdx int
	tail    [][]byte
	files   []string // FIFO wave files, oldest first
	fileSeq int

	// Cumulative spill accounting, atomics so the progress ticker can read
	// them while the search holds the frontier lock.
	spilledStates atomic.Int64
	spilledBytes  atomic.Int64
}

// defaultSpillRing bounds the in-memory frontier window unless a test
// shrinks it (Options.spillRing): 32Ki entries per window (head + tail ≈ 64Ki
// encodings in memory, a few MB at typical encoding sizes).
const defaultSpillRing = 1 << 15

// newSpillQueue creates the queue's private temp directory under dir, or
// an in-memory queue with an unbounded ring when dir is empty.
func newSpillQueue(dir string, ring int) (*spillQueue, error) {
	if dir == "" {
		return &spillQueue{ring: math.MaxInt}, nil
	}
	if ring <= 0 {
		ring = defaultSpillRing
	}
	d, err := os.MkdirTemp(dir, "hgspill-")
	if err != nil {
		return nil, fmt.Errorf("mcheck: spill dir: %w", err)
	}
	return &spillQueue{dir: d, ring: ring}, nil
}

// close removes every spill file and the temp directory.
func (q *spillQueue) close() {
	if q.dir != "" {
		os.RemoveAll(q.dir)
		q.dir = ""
	}
}

// len returns the number of queued states.
func (q *spillQueue) len() int {
	n := len(q.head) - q.headIdx + len(q.tail)
	n += len(q.files) * q.ring // waves are flushed at exactly ring entries
	return n
}

// push enqueues enc, taking ownership of the slice (callers reusing an
// encode buffer must pass a copy).
func (q *spillQueue) push(enc []byte) {
	q.tail = append(q.tail, enc)
	if len(q.tail) >= q.ring {
		q.flushWave()
	}
}

// pop dequeues the oldest state. The returned slice stays valid until the
// caller is done with it (it aliases a loaded wave buffer or a pushed
// copy, never a reused scratch).
func (q *spillQueue) pop() ([]byte, bool) {
	if q.headIdx >= len(q.head) {
		q.head = q.head[:0]
		q.headIdx = 0
		if len(q.files) > 0 {
			q.loadWave()
		} else {
			q.head, q.tail = q.tail, q.head
		}
	}
	if q.headIdx >= len(q.head) {
		return nil, false
	}
	enc := q.head[q.headIdx]
	q.head[q.headIdx] = nil // release to the collector
	q.headIdx++
	return enc, true
}

// flushWave writes the tail window to a new wave file: a stream of
// uvarint-length-prefixed encodings.
func (q *spillQueue) flushWave() {
	path := filepath.Join(q.dir, fmt.Sprintf("wave-%08d.bin", q.fileSeq))
	q.fileSeq++
	f, err := os.Create(path)
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill write %s: %v", path, err))
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var lenBuf [binary.MaxVarintLen64]byte
	bytes := int64(0)
	for _, enc := range q.tail {
		n := binary.PutUvarint(lenBuf[:], uint64(len(enc)))
		if _, err := w.Write(lenBuf[:n]); err == nil {
			_, err = w.Write(enc)
		}
		if err != nil {
			f.Close()
			panic(fmt.Sprintf("mcheck: spill write %s: %v", path, err))
		}
		bytes += int64(n + len(enc))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		panic(fmt.Sprintf("mcheck: spill write %s: %v", path, err))
	}
	if err := f.Close(); err != nil {
		panic(fmt.Sprintf("mcheck: spill write %s: %v", path, err))
	}
	q.spilledStates.Add(int64(len(q.tail)))
	q.spilledBytes.Add(bytes)
	q.files = append(q.files, path)
	q.tail = q.tail[:0]
}

// loadWave streams the oldest wave file back into the head window. Entries
// alias one contiguous buffer — no per-entry copy.
func (q *spillQueue) loadWave() {
	path := q.files[0]
	q.files = q.files[1:]
	buf, err := os.ReadFile(path)
	if err != nil {
		panic(fmt.Sprintf("mcheck: spill read %s: %v", path, err))
	}
	os.Remove(path)
	off := 0
	for off < len(buf) {
		n, w := binary.Uvarint(buf[off:])
		if w <= 0 || off+w+int(n) > len(buf) {
			panic(fmt.Sprintf("mcheck: spill read %s: corrupt record at offset %d", path, off))
		}
		off += w
		q.head = append(q.head, buf[off:off+int(n):off+int(n)])
		off += int(n)
	}
}

// maxBatch caps how many states one exchange hands a worker.
const maxBatch = 64

// takeSpins is how many empty exchanges merely yield before backing off
// with a short sleep (idle workers poll: there is no condition variable).
const takeSpins = 8

// frontier is the search's one work queue: a spillQueue of FIFO state
// images behind one mutex, shared by every worker. Workers trade whole
// batches with it — publish the successors admitted while expanding the
// last batch, take up to maxBatch of the oldest queued states for the
// next — so the lock is taken once per batch, not once per state.
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
	q       *spillQueue
	work    int          // states published but not yet expanded (guarded by mu)
	queued  atomic.Int64 // states waiting in q (progress gauge)
	stopped atomic.Bool
}

// newFrontier returns a frontier over q holding the root encoding.
func newFrontier(q *spillQueue, root []byte) *frontier {
	f := &frontier{q: q, work: 1}
	q.push(root)
	f.queued.Store(1)
	return f
}

// exchange publishes pend (the frontier takes ownership of the
// encodings), retires done expanded states, and fills batch[:0] with up to
// maxBatch of the oldest queued encodings. While the queue is empty but
// other workers still hold outstanding work it waits for them; an empty
// batch means the search is complete or stopped.
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
// outstanding. The deferred unlock keeps a spill I/O panic from leaving
// the mutex held while sibling workers shut down.
func (f *frontier) trade(pend [][]byte, done int, batch [][]byte) ([][]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, enc := range pend {
		f.q.push(enc)
	}
	f.work += len(pend) - done
	for len(batch) < maxBatch {
		enc, ok := f.q.pop()
		if !ok {
			break
		}
		batch = append(batch, enc)
	}
	f.queued.Store(int64(f.q.len()))
	return batch, f.work == 0
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
