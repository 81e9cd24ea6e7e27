package core

import (
	"fmt"
	"strconv"
	"strings"

	"heterogen/internal/spec"
)

// Handshake message types (merged-directory internal, §VIII variants);
// the fusion numbers them with its clusters' types (Fusion.IsHandshake).
const (
	msgHSReq spec.MsgType = "__hsreq"
	msgHSAck spec.MsgType = "__hsack"
)

// Layout assigns interconnect endpoints to the merged directory: one
// directory id per cluster (where that cluster's caches send requests) and
// a pool of proxy-cache ids per cluster.
type Layout struct {
	DirIDs   []spec.NodeID
	ProxyIDs [][]spec.NodeID
}

// DefaultLayout allocates ids after the given first free id.
func (f *Fusion) DefaultLayout(first spec.NodeID) Layout {
	var l Layout
	next := first
	for range f.Protocols {
		l.DirIDs = append(l.DirIDs, next)
		next++
	}
	for range f.Protocols {
		pool := make([]spec.NodeID, f.Opts.ProxyPool)
		for i := range pool {
			pool[i] = next
			next++
		}
		l.ProxyIDs = append(l.ProxyIDs, pool)
	}
	return l
}

// bridgePhase sequences a bridge through its steps.
type bridgePhase int

const (
	phaseHS bridgePhase = iota
	phaseFetch
	phaseProp
	phaseDeliver
)

func (p bridgePhase) String() string {
	switch p {
	case phaseHS:
		return "hs"
	case phaseFetch:
		return "fetch"
	case phaseProp:
		return "prop"
	case phaseDeliver:
		return "deliver"
	}
	return "?"
}

// proxyTask drives one proxy cache through an access sequence and the
// final eviction in one cluster.
type proxyTask struct {
	cluster  int
	proxyIdx int // pool index, -1 until allocated
	seq      []spec.CoreReq
	idx      int
	issued   bool
	evicting bool
	done     bool
	// captured is the globally fresh value this task established: the
	// store value for propagation tasks, the loaded value for fetch tasks.
	// It is written to the shared LLC/memory when the sequence completes —
	// the proxy line itself may already be gone (e.g. a trailing fence in
	// the PLO load sequence self-invalidates it).
	captured    int
	hasCaptured bool
}

func (t *proxyTask) snapshot(b *spec.SnapshotWriter) {
	fmt.Fprintf(b, "t{c%d,p%d,i%d,%t,%t,%t,cap=%d/%t}", t.cluster, t.proxyIdx, t.idx, t.issued, t.evicting, t.done, t.captured, t.hasCaptured)
}

// waitKind classifies what a blocked bridge is waiting for (see advance).
type waitKind uint8

const (
	wHSAck waitKind = iota // the handshake ack for this bridge's address
	wPool                  // a free proxy slot in cluster arg
	wProxy                 // a successful delivery to proxy node arg
	wDir                   // a successful delivery to cluster arg's directory
)

// waitCond is one blocking condition of a bridge.
type waitCond struct {
	kind waitKind
	arg  int
}

// bridge is one in-flight cross-cluster operation: the write-propagation or
// read-fetch triggered by an intercepted request (§VI-C, Figure 7).
type bridge struct {
	addr     spec.Addr
	origin   int
	orig     spec.Msg
	isWrite  bool
	value    int
	hasValue bool
	phase    bridgePhase
	hsSent   bool
	hsDone   bool
	hsWith   int // cluster handshaken with
	fetch    *proxyTask
	props    []*proxyTask

	// Advance bookkeeping: the conditions this bridge blocked on after its
	// last drive, and whether one of them has fired since.
	waits []waitCond
	woken bool
}

func (br *bridge) snapshot(b *spec.SnapshotWriter, v *spec.Vocab) {
	fmt.Fprintf(b, "br{a%d,o%d,%s,w=%t,v=%d/%t,hs=%t/%t/%d,orig=%s", br.addr, br.origin, br.phase, br.isWrite, br.value, br.hasValue, br.hsSent, br.hsDone, br.hsWith, v.Format(br.orig))
	if br.fetch != nil {
		b.WriteString(",f=")
		br.fetch.snapshot(b)
	}
	for _, t := range br.props {
		b.WriteString(",")
		t.snapshot(b)
	}
	b.WriteString("}")
}

// ownerCell records the owning cluster of one address; the owner table is
// a slice sorted by address (cloned by memcpy on the checker's hot path,
// iterated in order without sorting).
type ownerCell struct {
	a       spec.Addr
	cluster int
}

// MergedDir is the heterogeneous directory controller HeteroGen
// synthesizes: the per-cluster directories, one proxy-cache pool per
// cluster, per-address owner metadata and the bridging logic, all behind
// the cluster-facing directory interfaces (the red box of Figure 7).
type MergedDir struct {
	fusion *Fusion
	layout Layout
	mem    *spec.Memory

	dirs    []*spec.DirInst
	proxies [][]*spec.CacheInst

	// ends maps an endpoint id to its role; shared by clones (it is a
	// function of the layout).
	ends []endpoint

	owners    []ownerCell // sorted by address
	bridges   []*bridge   // in-flight bridges, sorted by address
	busySrc   spec.NodeSet
	proxyBusy spec.NodeSet

	// lazyWake is advance's global "some bridge may be runnable" latch.
	lazyWake bool
	// nWaits counts the waits of each kind the in-flight bridges have
	// recorded, so a wake of a kind no bridge waits on returns without
	// scanning the bridges.
	nWaits [wDir + 1]int

	trace func(string)
	sink  ChangeSink
}

// ChangeSink is told where the merged directory's state may have changed,
// so a host that retries stalled messages can skip the ones whose outcome
// cannot have changed. Whether a message delivers depends only on the
// state at its address (the sub-directory and proxy lines, the bridge and
// the owner cell) plus, under the Conservative design, the busy-source
// set. The reports cover every change that could let a message that
// failed deliver now.
type ChangeSink interface {
	// AddrChanged reports that the state at a may have changed.
	AddrChanged(a spec.Addr)
	// AllChanged reports a change that may affect messages at every
	// address.
	AllChanged()
}

// endpoint is the role of one of the merged directory's node ids: cluster
// c's directory (proxy −1) or slot proxy of cluster c's proxy pool.
// Ids the directory does not own have cluster −1.
type endpoint struct {
	cluster, proxy int32
}

// endpoints indexes the layout's ids by node id.
func endpoints(layout Layout) []endpoint {
	var ends []endpoint
	set := func(id spec.NodeID, e endpoint) {
		for int(id) >= len(ends) {
			ends = append(ends, endpoint{-1, -1})
		}
		ends[id] = e
	}
	for c, id := range layout.DirIDs {
		set(id, endpoint{int32(c), -1})
	}
	for c, pool := range layout.ProxyIDs {
		for j, id := range pool {
			set(id, endpoint{int32(c), int32(j)})
		}
	}
	return ends
}

// endpointOf returns the role of id (cluster −1 for a foreign id).
func (d *MergedDir) endpointOf(id spec.NodeID) endpoint {
	if id >= 0 && int(id) < len(d.ends) {
		return d.ends[id]
	}
	return endpoint{-1, -1}
}

// NewMergedDir instantiates the merged directory over a fresh shared
// memory.
func NewMergedDir(f *Fusion, layout Layout) *MergedDir {
	mem := spec.NewMemory()
	d := &MergedDir{fusion: f, layout: layout, mem: mem, ends: endpoints(layout)}
	for i, p := range f.Protocols {
		d.dirs = append(d.dirs, spec.NewDirInst(layout.DirIDs[i], p, mem))
		var pool []*spec.CacheInst
		for _, id := range layout.ProxyIDs[i] {
			pool = append(pool, spec.NewCacheInst(id, layout.DirIDs[i], p))
		}
		d.proxies = append(d.proxies, pool)
	}
	return d
}

// SetTrace installs a trace sink for debugging and the worked examples.
func (d *MergedDir) SetTrace(fn func(string)) {
	d.trace = fn
	for _, dir := range d.dirs {
		dir.SetTrace(fn)
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			p.SetTrace(fn)
		}
	}
}

// SetChangeSink installs the change reports (nil removes them). Reports
// are made only for state that actually changed: after a successful
// delivery, for every bridge a drive acted on, when the busy-source set
// shrinks, and when a proxy ran a whole-cache effect (sync or
// fill-triggered invalidation) while holding lines at other addresses.
// A failed delivery reports nothing. Clones do not inherit the sink.
func (d *MergedDir) SetChangeSink(s ChangeSink) { d.sink = s }

// Memory exposes the shared LLC/memory.
func (d *MergedDir) Memory() *spec.Memory { return d.mem }

// Fusion returns the fusion this directory was built from.
func (d *MergedDir) Fusion() *Fusion { return d.fusion }

// DirID returns the directory endpoint for a cluster.
func (d *MergedDir) DirID(cluster int) spec.NodeID { return d.layout.DirIDs[cluster] }

// findOwner binary-searches the owner table for a, returning the
// insertion index and whether a has an owner cell.
func (d *MergedDir) findOwner(a spec.Addr) (int, bool) {
	lo, hi := 0, len(d.owners)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.owners[mid].a < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.owners) && d.owners[lo].a == a
}

// Owner returns the owning cluster of an address (-1 if none).
func (d *MergedDir) Owner(a spec.Addr) int {
	if i, ok := d.findOwner(a); ok {
		return d.owners[i].cluster
	}
	return -1
}

// setOwner records cluster as the owner of a (insert sorted).
func (d *MergedDir) setOwner(a spec.Addr, cluster int) {
	i, ok := d.findOwner(a)
	if ok {
		d.owners[i].cluster = cluster
		return
	}
	d.owners = append(d.owners, ownerCell{})
	copy(d.owners[i+1:], d.owners[i:])
	d.owners[i] = ownerCell{a: a, cluster: cluster}
}

// findBridge binary-searches the in-flight bridges for a, returning the
// insertion index and whether a bridge for a is in flight.
func (d *MergedDir) findBridge(a spec.Addr) (int, bool) {
	lo, hi := 0, len(d.bridges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.bridges[mid].addr < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.bridges) && d.bridges[lo].addr == a
}

// bridgeAt returns the in-flight bridge for a, or nil.
func (d *MergedDir) bridgeAt(a spec.Addr) *bridge {
	if i, ok := d.findBridge(a); ok {
		return d.bridges[i]
	}
	return nil
}

// addBridge inserts br in address order (an address has at most one
// bridge in flight: intake stalls requests to a bridged address).
func (d *MergedDir) addBridge(br *bridge) {
	i, _ := d.findBridge(br.addr)
	d.bridges = append(d.bridges, nil)
	copy(d.bridges[i+1:], d.bridges[i:])
	d.bridges[i] = br
}

// removeBridge drops the bridge for a, with the waits it recorded.
func (d *MergedDir) removeBridge(a spec.Addr) {
	if i, ok := d.findBridge(a); ok {
		d.countWaits(d.bridges[i], -1)
		d.bridges = append(d.bridges[:i], d.bridges[i+1:]...)
	}
}

// OwnedIDs implements spec.Component.
func (d *MergedDir) OwnedIDs() []spec.NodeID {
	var out []spec.NodeID
	out = append(out, d.layout.DirIDs...)
	for _, pool := range d.layout.ProxyIDs {
		out = append(out, pool...)
	}
	return out
}

// clusterOfDir returns the cluster whose directory id this is, or -1.
func (d *MergedDir) clusterOfDir(id spec.NodeID) int {
	if e := d.endpointOf(id); e.proxy < 0 {
		return int(e.cluster)
	}
	return -1
}

// proxyAt returns (cluster, poolIdx) for a proxy id, or (-1, -1).
func (d *MergedDir) proxyAt(id spec.NodeID) (int, int) {
	if e := d.endpointOf(id); e.proxy >= 0 {
		return int(e.cluster), int(e.proxy)
	}
	return -1, -1
}

// isProxySrc reports whether the sender is one of cluster i's proxies.
func (d *MergedDir) isProxySrc(cluster int, src spec.NodeID) bool {
	e := d.endpointOf(src)
	return e.proxy >= 0 && int(e.cluster) == cluster
}

// Deliver implements spec.Component: route to a proxy, handle handshakes,
// or run a directory intake with bridging interception.
func (d *MergedDir) Deliver(env spec.Env, m spec.Msg) bool {
	ok := d.deliver(env, m)
	if ok && d.sink != nil {
		d.sink.AddrChanged(m.Addr)
	}
	return ok
}

func (d *MergedDir) deliver(env spec.Env, m spec.Msg) bool {
	defer d.advance(env)
	switch m.Type {
	case d.fusion.hsReq:
		env.Send(spec.Msg{Type: d.fusion.hsAck, Addr: m.Addr, Src: m.Dst, Dst: m.Src,
			Req: spec.NoNode, VNet: spec.VResp})
		return true
	case d.fusion.hsAck:
		if br := d.bridgeAt(m.Addr); br != nil {
			br.hsDone = true
			br.woken = true
			d.lazyWake = true
		}
		return true
	}
	if ci, pi := d.proxyAt(m.Dst); ci >= 0 {
		p := d.proxies[ci][pi]
		others := d.holdsOthers(p, m.Addr)
		ok := p.Deliver(env, m)
		if ok {
			d.wake(wProxy, int(m.Dst))
			if others {
				d.sink.AllChanged()
			}
		}
		return ok
	}
	cluster := d.clusterOfDir(m.Dst)
	if cluster < 0 {
		panic(fmt.Sprintf("core: merged directory received message for foreign node %d", m.Dst))
	}
	// Proxy-originated traffic and responses flow straight to the
	// sub-directory; only fresh requests from real caches are intercepted.
	if d.isProxySrc(cluster, m.Src) || m.VNet != spec.VReq {
		return d.deliverDir(env, cluster, m)
	}
	return d.intake(env, cluster, m)
}

// deliverDir hands a message to a sub-directory, firing the advance
// wakeup on success (a line-state change there can unblock a bridge's
// final delivery).
func (d *MergedDir) deliverDir(env spec.Env, cluster int, m spec.Msg) bool {
	ok := d.dirs[cluster].Deliver(env, m)
	if ok {
		d.wake(wDir, cluster)
	}
	return ok
}

// intake applies the §VI-D5 rules to a request from a real cache.
func (d *MergedDir) intake(env spec.Env, cluster int, m spec.Msg) bool {
	if d.bridgeAt(m.Addr) != nil {
		return false // address blocked while a bridge is in flight
	}
	if d.fusion.Conservative && d.busySrc.Has(m.Src) {
		return false // processor-centric: initiating processor blocked
	}
	gv, fills := d.fusion.gvWrites[cluster], d.fusion.readFills[cluster]
	owner := d.Owner(m.Addr)
	switch {
	case int(m.Type) < len(gv) && gv[m.Type]:
		// Consult the cluster directory before propagating: if it would
		// stall the request, stall here too; if it would discard the
		// request as a stale write-back (a non-owner race — the matched
		// row does not write memory), the write is not globally visible
		// and must not be re-propagated.
		tr := d.dirs[cluster].Lookup(&m)
		if tr == nil {
			return false
		}
		if m.HasData && !writesMem(tr) {
			return d.deliverDir(env, cluster, m)
		}
		d.startBridge(env, cluster, m, true)
		return true
	case int(m.Type) < len(fills) && fills[m.Type] && owner >= 0 && owner != cluster:
		d.startBridge(env, cluster, m, false)
		return true
	default:
		return d.deliverDir(env, cluster, m)
	}
}

// writesMem reports whether the row stores the message payload to memory
// (the mark of an accepted write-back).
func writesMem(t *spec.Step) bool {
	for _, a := range t.Acts {
		if a.Op == spec.ActWriteMem {
			return true
		}
	}
	return false
}

// startBridge intercepts the request and begins bridging (Figure 7).
func (d *MergedDir) startBridge(env spec.Env, cluster int, m spec.Msg, isWrite bool) {
	br := &bridge{addr: m.Addr, origin: cluster, orig: m, isWrite: isWrite,
		value: m.Data, hasValue: m.HasData, hsWith: -1}
	owner := d.Owner(m.Addr)
	needHS := owner >= 0 && owner != cluster &&
		(d.fusion.Opts.Handshake == HSAll || (d.fusion.Opts.Handshake == HSWrites && isWrite))
	if needHS {
		br.phase = phaseHS
		br.hsWith = owner
	} else {
		br.phase = phaseFetch
	}
	if owner >= 0 && owner != cluster {
		br.fetch = &proxyTask{cluster: owner, proxyIdx: -1,
			seq: reqsOf(d.fusion.LoadSeqs[owner], m.Addr, 0)}
	}
	if isWrite {
		for j := range d.fusion.Protocols {
			if j == cluster {
				continue
			}
			br.props = append(br.props, &proxyTask{cluster: j, proxyIdx: -1,
				seq: reqsOf(d.fusion.StoreSeqs[j], m.Addr, 0)})
		}
	}
	d.addBridge(br)
	d.lazyWake = true // a fresh bridge is always runnable
	if d.fusion.Conservative {
		d.busySrc.Add(m.Src)
	}
	if d.trace != nil {
		kind := "read"
		if isWrite {
			kind = "write"
		}
		d.trace(fmt.Sprintf("merged-dir a%d: %s bridge for %s from cluster%d (owner=%d)", m.Addr, kind, d.fusion.vocab.Name(m.Type), cluster, owner))
	}
}

// reqsOf instantiates an armor core-op sequence for an address.
func reqsOf(seq []spec.CoreOp, a spec.Addr, value int) []spec.CoreReq {
	return reqsOfInto(nil, seq, a, value)
}

// reqsOfInto is reqsOf reusing dst's backing array (the image decoder's
// task-rebuild path, which would otherwise allocate a seq per task per
// restored state).
func reqsOfInto(dst []spec.CoreReq, seq []spec.CoreOp, a spec.Addr, value int) []spec.CoreReq {
	dst = dst[:0]
	for _, op := range seq {
		dst = append(dst, spec.CoreReq{Op: op, Addr: a, Value: value})
	}
	return dst
}

// wake marks every bridge blocked on the condition as runnable.
func (d *MergedDir) wake(k waitKind, arg int) {
	if d.nWaits[k] == 0 {
		return
	}
	for _, br := range d.bridges {
		if br.woken {
			continue
		}
		for _, w := range br.waits {
			if w.kind == k && w.arg == arg {
				br.woken = true
				d.lazyWake = true
				break
			}
		}
	}
}

// recordWaits derives the conditions br is blocked on from its current
// phase and task state. Called after a drive that left the bridge in
// place; precise because advanceBridge only stops at genuine blocks.
func (d *MergedDir) recordWaits(br *bridge) {
	d.countWaits(br, -1)
	br.waits = br.waits[:0]
	switch br.phase {
	case phaseHS:
		br.waits = append(br.waits, waitCond{wHSAck, 0})
	case phaseFetch:
		d.taskWait(br, br.fetch)
	case phaseProp:
		for _, t := range br.props {
			d.taskWait(br, t)
		}
	case phaseDeliver:
		br.waits = append(br.waits, waitCond{wDir, br.origin})
	}
	d.countWaits(br, 1)
}

// countWaits adds delta per recorded wait of br to nWaits.
func (d *MergedDir) countWaits(br *bridge, delta int) {
	for _, w := range br.waits {
		d.nWaits[w.kind] += delta
	}
}

// taskWait appends the blocking condition of one proxy task.
func (d *MergedDir) taskWait(br *bridge, t *proxyTask) {
	if t == nil || t.done {
		return
	}
	if t.proxyIdx < 0 {
		br.waits = append(br.waits, waitCond{wPool, t.cluster})
		return
	}
	br.waits = append(br.waits, waitCond{wProxy, int(d.layout.ProxyIDs[t.cluster][t.proxyIdx])})
}

// advance drives the in-flight bridges to a fixpoint, event-driven: after
// each drive a bridge records the conditions it blocked on (handshake ack,
// proxy-pool slot, a delivery to a specific proxy, a delivery to a
// sub-directory) and is re-driven only when it is fresh or one of them
// fires. advanceBridge always runs a bridge to a genuine blocking point
// and returns acted=false with no side effects when nothing can happen,
// so skipping unwoken bridges reaches the same fixpoint as re-driving
// every bridge until nothing changes. Wakes fired during a pass
// (freeProxy, sub-directory deliveries) re-arm the outer loop. A clone or
// a decoded state records no waits and sets lazyWake when it holds a
// bridge, so its first advance drives every bridge.
func (d *MergedDir) advance(env spec.Env) {
	for d.lazyWake {
		d.lazyWake = false
		for i := 0; i < len(d.bridges); {
			br := d.bridges[i]
			if len(br.waits) != 0 && !br.woken {
				i++
				continue
			}
			br.woken = false
			d.drive(env, br)
			if i < len(d.bridges) && d.bridges[i] == br {
				d.recordWaits(br)
				i++
			}
		}
	}
}

// drive advances one bridge and reports its address to the change sink
// if the drive acted.
func (d *MergedDir) drive(env spec.Env, br *bridge) {
	if d.advanceBridge(env, br) && d.sink != nil {
		d.sink.AddrChanged(br.addr)
	}
}

// advanceBridge drives one bridge; it reports whether any state changed.
func (d *MergedDir) advanceBridge(env spec.Env, br *bridge) bool {
	acted := false
	switch br.phase {
	case phaseHS:
		if !br.hsSent {
			br.hsSent = true
			acted = true
			env.Send(spec.Msg{Type: d.fusion.hsReq, Addr: br.addr,
				Src: d.layout.DirIDs[br.origin], Dst: d.layout.DirIDs[br.hsWith],
				Req: spec.NoNode, VNet: spec.VResp})
		}
		if !br.hsDone {
			return acted
		}
		br.phase = phaseFetch
		acted = true
		fallthrough
	case phaseFetch:
		if br.fetch != nil {
			done, a := d.driveTask(env, br, br.fetch)
			acted = acted || a
			if !done {
				return acted
			}
		}
		br.phase = phaseProp
		acted = true
		fallthrough
	case phaseProp:
		allDone := true
		for _, t := range br.props {
			done, a := d.driveTask(env, br, t)
			acted = acted || a
			if !done {
				allDone = false
			}
		}
		if !allDone {
			return acted
		}
		br.phase = phaseDeliver
		acted = true
		fallthrough
	case phaseDeliver:
		if !d.dirs[br.origin].Deliver(env, br.orig) {
			return acted // sub-directory transiently busy; retried later
		}
		d.wake(wDir, br.origin)
		if br.isWrite {
			d.setOwner(br.addr, br.origin)
		}
		d.removeBridge(br.addr)
		if d.fusion.Conservative {
			d.busySrc.Remove(br.orig.Src)
			if d.sink != nil {
				d.sink.AllChanged()
			}
		}
		if d.trace != nil {
			d.trace(fmt.Sprintf("merged-dir a%d: bridge complete, owner=cluster%d", br.addr, d.Owner(br.addr)))
		}
		return true
	}
	return acted
}

// driveTask advances a proxy task; done reports the line fully
// relinquished, acted whether any state changed.
func (d *MergedDir) driveTask(env spec.Env, br *bridge, t *proxyTask) (done, acted bool) {
	if t.done {
		return true, false
	}
	if t.proxyIdx < 0 {
		idx := d.allocProxy(t.cluster)
		if idx < 0 {
			return false, false // pool exhausted; wait for another bridge
		}
		t.proxyIdx = idx
		acted = true
	}
	proxy := d.proxies[t.cluster][t.proxyIdx]
	if t.evicting {
		done, a := d.driveEvict(env, t, proxy)
		return done, acted || a
	}
	if t.issued {
		if !proxy.Idle() {
			return false, acted // waiting for the transaction
		}
		t.issued = false
		t.idx++
		acted = true
	}
	if t.idx >= len(t.seq) {
		// Sequence complete: fetch tasks captured the loaded value, store
		// tasks the propagated one — write it to the shared LLC/memory,
		// then relinquish the line through the protocol's eviction path.
		if !t.hasCaptured {
			t.captured = proxy.LastLoad()
			t.hasCaptured = true
		}
		d.mem.Write(br.addr, t.captured)
		t.evicting = true
		done, _ := d.driveEvict(env, t, proxy)
		return done, true
	}
	req := t.seq[t.idx]
	if req.Op == spec.OpStore {
		if br.hasValue {
			req.Value = br.value
		} else {
			req.Value = d.mem.Read(br.addr)
		}
		t.captured = req.Value
		t.hasCaptured = true
	}
	others := d.holdsOthers(proxy, br.addr)
	if proxy.Issue(env, req) {
		if others {
			d.sink.AllChanged()
		}
		t.issued = true
		if proxy.Idle() {
			// The op completed synchronously (hits, sync no-ops).
			t.issued = false
			t.idx++
			done, _ := d.driveTask(env, br, t)
			return done, true
		}
		return false, true
	}
	return false, acted
}

// driveEvict relinquishes the proxy's line and frees the pool slot.
func (d *MergedDir) driveEvict(env spec.Env, t *proxyTask, proxy *spec.CacheInst) (done, acted bool) {
	m := proxy.Protocol().Cache
	st := proxy.LineState(t.seqAddr())
	if st == m.InitID() {
		t.done = true
		d.freeProxy(t.cluster, t.proxyIdx)
		return true, true
	}
	if !m.StableID(st) {
		return false, false // transaction (store drain or eviction) in flight
	}
	if proxy.Evict(env, t.seqAddr()) {
		st = proxy.LineState(t.seqAddr())
		if st == m.InitID() {
			t.done = true
			d.freeProxy(t.cluster, t.proxyIdx)
			return true, true
		}
		return false, true
	}
	return false, false
}

// holdsOthers reports, when a change sink is installed, whether the proxy
// holds a line at an address other than a. A sync operation or a
// fill-triggered self-invalidation at a acts on the whole proxy cache, so
// a successful operation that began this way is reported as AllChanged.
// Proxies relinquish each line after bridging, so this is rare.
func (d *MergedDir) holdsOthers(p *spec.CacheInst, a spec.Addr) bool {
	if d.sink == nil {
		return false
	}
	n := p.NumLines()
	return n > 1 || n == 1 && p.AddrAt(0) != a
}

// seqAddr returns the address the task operates on.
func (t *proxyTask) seqAddr() spec.Addr {
	if len(t.seq) > 0 {
		return t.seq[0].Addr
	}
	return 0
}

// allocProxy grabs a free pool slot of the cluster, or -1.
func (d *MergedDir) allocProxy(cluster int) int {
	for i, id := range d.layout.ProxyIDs[cluster] {
		if !d.proxyBusy.Has(id) {
			d.proxyBusy.Add(id)
			return i
		}
	}
	return -1
}

func (d *MergedDir) freeProxy(cluster, idx int) {
	d.proxyBusy.Remove(d.layout.ProxyIDs[cluster][idx])
	d.wake(wPool, cluster)
}

// LocalState renders the merged directory's composite local state for an
// address — the flattened FSM state (Figure 9's "VxS" notation, extended
// with proxy and bridge phases).
func (d *MergedDir) LocalState(a spec.Addr) string {
	var b strings.Builder
	b.Grow(32) // fits the common composite name in one allocation
	for i, dir := range d.dirs {
		if i > 0 {
			b.WriteByte('x')
		}
		b.WriteString(string(dir.Protocol().Dir.StateName(dir.LineState(a))))
	}
	for ci, pool := range d.proxies {
		for _, p := range pool {
			m := p.Protocol().Cache
			if st := p.LineState(a); st != m.InitID() {
				b.WriteString("+p" + strconv.Itoa(ci) + ":" + string(m.StateName(st)))
			}
		}
	}
	if br := d.bridgeAt(a); br != nil {
		kind := "/rd-"
		if br.isWrite {
			kind = "/wr-"
		}
		b.WriteString(kind + br.phase.String())
	}
	if o := d.Owner(a); o >= 0 {
		b.WriteString("·o" + strconv.Itoa(o))
	}
	return b.String()
}

// localStable reports whether the composite local state at a is quiescent:
// every constituent directory in a declared stable state, no proxy line in
// flight, no bridge transaction active. The fusion compiler uses it to
// classify the projected flat machine's states (an owner annotation alone
// does not make a state transient).
func (d *MergedDir) localStable(a spec.Addr) bool {
	for ci, dir := range d.dirs {
		if !d.fusion.Protocols[ci].Dir.StableID(dir.LineState(a)) {
			return false
		}
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			if p.LineState(a) != p.Protocol().Cache.InitID() {
				return false
			}
		}
	}
	return d.bridgeAt(a) == nil
}

// Clone implements spec.Component.
func (d *MergedDir) Clone() spec.Component { return d.CloneWithMemory(d.mem.Clone()) }

// CloneWithMemory implements mcheck.MemoryCloner.
func (d *MergedDir) CloneWithMemory(mem *spec.Memory) spec.Component {
	cp := &MergedDir{fusion: d.fusion, layout: d.layout, mem: mem, ends: d.ends,
		busySrc: d.busySrc, proxyBusy: d.proxyBusy, lazyWake: len(d.bridges) > 0}
	cp.dirs = make([]*spec.DirInst, len(d.dirs))
	for i, dir := range d.dirs {
		cp.dirs[i] = dir.CloneDir(mem)
	}
	cp.proxies = make([][]*spec.CacheInst, len(d.proxies))
	for i, pool := range d.proxies {
		npool := make([]*spec.CacheInst, len(pool))
		for j, p := range pool {
			npool[j] = p.CloneCache()
		}
		cp.proxies[i] = npool
	}
	if len(d.owners) > 0 {
		cp.owners = append(make([]ownerCell, 0, len(d.owners)), d.owners...)
	}
	if len(d.bridges) > 0 {
		cp.bridges = make([]*bridge, len(d.bridges))
		for i, br := range d.bridges {
			cp.bridges[i] = br.clone()
		}
	}
	return cp
}

func (br *bridge) clone() *bridge {
	cp := *br
	// Advance bookkeeping is transient: a clone records no waits, so its
	// first advance drives it; reset rather than alias.
	cp.waits, cp.woken = nil, false
	if br.fetch != nil {
		f := *br.fetch
		f.seq = append([]spec.CoreReq(nil), br.fetch.seq...)
		cp.fetch = &f
	}
	cp.props = nil
	for _, t := range br.props {
		nt := *t
		nt.seq = append([]spec.CoreReq(nil), t.seq...)
		cp.props = append(cp.props, &nt)
	}
	return &cp
}

// Snapshot implements spec.Component.
func (d *MergedDir) Snapshot(b *spec.SnapshotWriter) {
	b.WriteString("merged{")
	for _, dir := range d.dirs {
		dir.Snapshot(b)
	}
	for _, pool := range d.proxies {
		for _, p := range pool {
			p.Snapshot(b)
		}
	}
	for _, c := range d.owners {
		fmt.Fprintf(b, "o[a%d]=%d;", c.a, c.cluster)
	}
	for _, br := range d.bridges {
		br.snapshot(b, d.fusion.vocab)
	}
	srcs := make([]int, 0, d.busySrc.Len())
	d.busySrc.Each(func(s spec.NodeID) { srcs = append(srcs, int(s)) })
	pbusy := make([]int, 0, d.proxyBusy.Len())
	d.proxyBusy.Each(func(p spec.NodeID) { pbusy = append(pbusy, int(p)) })
	fmt.Fprintf(b, "busy%v pbusy%v}", srcs, pbusy)
}

// RefNodes implements spec.NodeReferrer: every node id the merged
// directory's dynamic state could later address a message to without a
// triggering message naming it — the sub-directories' sharers and owners,
// the busy-source and proxy-busy sets, and the Src/Req of every captured
// bridge request (replayed against a sub-directory in phaseDeliver, which
// may register them or forward to them).
func (d *MergedDir) RefNodes() spec.NodeSet {
	var ns spec.NodeSet
	for _, dir := range d.dirs {
		ns = ns.Or(dir.RefNodes())
	}
	ns = ns.Or(d.busySrc).Or(d.proxyBusy)
	for _, br := range d.bridges {
		if br.orig.Src != spec.NoNode {
			ns.Add(br.orig.Src)
		}
		if br.orig.Req != spec.NoNode {
			ns.Add(br.orig.Req)
		}
	}
	return ns
}

// PORLocal reports whether every constituent protocol passes the POR
// locality analysis. The bridging logic itself only addresses proxies, its
// own sub-directories and the captured request's Src/Req — all covered by
// RefNodes — so locality of the merged controller reduces to locality of
// the tables it interprets.
func (d *MergedDir) PORLocal() bool {
	for _, p := range d.fusion.Protocols {
		if !p.PORLocal() {
			return false
		}
	}
	return true
}

// Vocab implements spec.Namer: the fusion's vocabulary.
func (d *MergedDir) Vocab() *spec.Vocab { return d.fusion.vocab }

var _ spec.Component = (*MergedDir)(nil)
var _ spec.NodeReferrer = (*MergedDir)(nil)
