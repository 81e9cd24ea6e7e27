package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"heterogen/internal/spec"
)

// Artifact codec (artifact.go) — the versioned on-disk form of a
// CompiledFusion, so the extraction search runs once and every later check
// starts from a sub-second load.
//
// Layout ("HGCF" format, everything little-endian):
//
//	[0:4]   magic "HGCF"
//	[4:8]   u32 format version (ArtifactVersion)
//	[8:40]  sha256 content digest of (fusion spec, CompileConfig)
//	body    sections in fixed order:
//	          fusion   — name, fuse options, constituent protocols as
//	                     embedded PCC text (the artifact is self-contained)
//	          config   — caches per cluster, driver programs, evictions,
//	                     explored-state count
//	          verdict  — the extraction's deadlock count and lex-least
//	                     deadlock snapshot (CompiledFusion.Verdict)
//	          states   — enc/spill/mem blobs with u32 offset tables
//	                     (loaded as subslices of one backing array, no
//	                     per-state decoding) + POR reference bitsets
//	          msgs     — the interned message pool
//	          table    — per-state span offsets + fixed-width dense
//	                     entries + the flattened send pool (msg ids)
//	          fsm      — the projected Table II machine: string pool,
//	                     states, edges, stability verdicts, initial state
//
// Versioning rule: any change to the section layout or field widths bumps
// ArtifactVersion; loaders reject other versions outright (there is no
// in-place migration — recompiling is cheap relative to getting a silent
// misread wrong). The digest is a *content address*, not a checksum: it
// hashes the semantic identity of the table — the constituent protocols'
// canonical PCC export, the fusion options and the semantic CompileConfig
// fields (caches, programs, evictions). Search-schedule knobs (MaxStates,
// Workers) are excluded: the completed table is independent of them.
// Loading against a fusion/config whose digest differs is a structured
// ErrArtifactMismatch at load time — never a search that replays another
// machine's transitions.
//
// The loader trusts nothing: every read is bounds-checked and every index
// (state, message id, span offset, string id) is validated before use, so
// a corrupt or truncated file fails with ErrArtifactCorrupt instead of
// panicking (FuzzArtifactCodec pins this). After decoding, the dense
// arrays are re-anchored to a freshly rebuilt fusion and the spill-codec
// images are decoded back through the interpreted MergedDir to
// cross-check the stored state encodings — drift between the artifact and
// the rebuilt fusion is caught at load. The loaded table is a seed:
// System() searches it as a growing table, like a freshly compiled one.

// ArtifactMagic identifies a compiled-fusion artifact file.
const ArtifactMagic = "HGCF"

// ArtifactVersion is the current on-disk format version. Version 2 added
// the verdict section.
const ArtifactVersion = 2

// ArtifactExt is the conventional file extension (and the one the
// content-addressed cache uses).
const ArtifactExt = ".hgcf"

// artifactHeaderLen is magic + version + digest.
const artifactHeaderLen = 4 + 4 + sha256.Size

// Structured artifact-load failures, detectable with errors.Is.
var (
	// ErrArtifactFormat: the bytes are not a compiled-fusion artifact.
	ErrArtifactFormat = errors.New("core: not a compiled-fusion artifact")
	// ErrArtifactVersion: recognized artifact, unsupported format version.
	ErrArtifactVersion = errors.New("core: unsupported compiled-fusion artifact version")
	// ErrArtifactCorrupt: recognized artifact with inconsistent contents.
	ErrArtifactCorrupt = errors.New("core: compiled-fusion artifact corrupt")
	// ErrArtifactMismatch: a well-formed artifact whose content digest
	// does not match the requested (fusion, CompileConfig).
	ErrArtifactMismatch = errors.New("core: compiled-fusion artifact does not match the requested search")
)

// CompileDigest is the content address of a compiled table: a hex sha256
// over the constituent protocols' canonical PCC export, the fusion
// options, and the semantic CompileConfig fields (caches per cluster,
// programs, evictions). MaxStates and Workers are deliberately excluded —
// they shape the extraction search, not the extracted table.
func CompileDigest(f *Fusion, cfg CompileConfig) string {
	d := compileDigestRaw(f, cfg)
	return hex.EncodeToString(d[:])
}

func compileDigestRaw(f *Fusion, cfg CompileConfig) [sha256.Size]byte {
	h := sha256.New()
	io.WriteString(h, "heterogen-compiled-fusion/v1\n")
	fmt.Fprintf(h, "protocols %d\n", len(f.Protocols))
	for _, p := range f.Protocols {
		io.WriteString(h, spec.ExportPCC(p))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "opts %d %d %v\n", f.Opts.Handshake, f.Opts.ProxyPool, f.Opts.ForceConservative)
	fmt.Fprintf(h, "caches %v\n", cfg.CachesPerCluster)
	fmt.Fprintf(h, "programs %d\n", len(cfg.Programs))
	for _, prog := range cfg.Programs {
		for _, r := range prog {
			fmt.Fprintf(h, "%d %d %d;", r.Op, r.Addr, r.Value)
		}
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "evictions %v\n", cfg.Evictions)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Digest returns this table's content address (see CompileDigest).
func (cf *CompiledFusion) Digest() string { return CompileDigest(cf.fusion, cf.cfg) }

// artEnc is the little-endian section writer.
type artEnc struct{ buf []byte }

func (e *artEnc) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *artEnc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *artEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *artEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *artEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *artEnc) str(s string)  { e.u32(uint32(len(s))); e.buf = append(e.buf, s...) }
func (e *artEnc) blob(b []byte) { e.u32(uint32(len(b))); e.buf = append(e.buf, b...) }

func (e *artEnc) msg(m spec.Msg) {
	e.str(string(m.Type))
	e.i64(int64(m.Addr))
	e.i64(int64(m.Src))
	e.i64(int64(m.Dst))
	e.i64(int64(m.Req))
	e.i64(int64(m.Data))
	e.bool(m.HasData)
	e.i64(int64(m.Ack))
	e.u32(uint32(m.VNet))
}

// artDec is the bounds-checked reader: after the first failed read every
// further read returns the zero value and ok stays false — decode loops
// need no per-read error plumbing, one ok check at the end suffices
// (counts are still guarded eagerly so no oversized allocation happens).
type artDec struct {
	data []byte
	off  int
	ok   bool
}

func (d *artDec) fail() { d.ok = false }

func (d *artDec) rem() int { return len(d.data) - d.off }

func (d *artDec) take(n int) []byte {
	if !d.ok || n < 0 || n > d.rem() {
		d.fail()
		return nil
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

func (d *artDec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *artDec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *artDec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *artDec) i64() int64 { return int64(d.u64()) }

func (d *artDec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail()
		return false
	}
}

func (d *artDec) str() string { return string(d.take(int(d.u32()))) }

// count reads an element count and rejects it unless elemSize bytes per
// element still fit in the remaining input — the guard that keeps a
// corrupt count from turning into a multi-gigabyte allocation.
func (d *artDec) count(elemSize int) int {
	n := int(d.u32())
	if !d.ok || n < 0 || elemSize <= 0 || n > d.rem()/elemSize {
		d.fail()
		return 0
	}
	return n
}

func (d *artDec) msg() spec.Msg {
	var m spec.Msg
	m.Type = spec.MsgType(d.str())
	m.Addr = spec.Addr(d.i64())
	m.Src = spec.NodeID(d.i64())
	m.Dst = spec.NodeID(d.i64())
	m.Req = spec.NodeID(d.i64())
	m.Data = int(d.i64())
	m.HasData = d.bool()
	m.Ack = int(d.i64())
	m.VNet = spec.VNet(d.u32())
	return m
}

// offsetBlob writes n variable-length byte strings as one offset table
// plus one contiguous byte pool, so the loader re-materializes them as n
// subslices of a single backing array.
func (e *artEnc) offsetBlob(items func(i int) []byte, n int) {
	e.u32(uint32(n))
	total := uint32(0)
	for i := 0; i < n; i++ {
		e.u32(total)
		total += uint32(len(items(i)))
	}
	e.u32(total)
	for i := 0; i < n; i++ {
		e.buf = append(e.buf, items(i)...)
	}
}

func (d *artDec) offsetBlob() [][]byte {
	n := d.count(4)
	offs := make([]uint32, n+1)
	for i := range offs {
		offs[i] = d.u32()
	}
	if !d.ok {
		return nil
	}
	pool := d.take(int(offs[n]))
	if pool == nil {
		return nil
	}
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if offs[i] > offs[i+1] || int(offs[i+1]) > len(pool) {
			d.fail()
			return nil
		}
		out[i] = pool[offs[i]:offs[i+1]:offs[i+1]]
	}
	return out
}

// MarshalArtifact serializes the compiled table into the versioned binary
// artifact. The encoding is deterministic: marshaling the same table (or a
// table reloaded from the artifact) reproduces identical bytes.
func (cf *CompiledFusion) MarshalArtifact() []byte {
	var e artEnc
	e.buf = make([]byte, 0, 1<<20)
	e.buf = append(e.buf, ArtifactMagic...)
	e.u32(ArtifactVersion)
	digest := compileDigestRaw(cf.fusion, cf.cfg)
	e.buf = append(e.buf, digest[:]...)

	// Fusion: self-contained — constituents travel as canonical PCC text.
	e.str(cf.fusion.Name())
	e.u32(uint32(cf.fusion.Opts.Handshake))
	e.u32(uint32(cf.fusion.Opts.ProxyPool))
	e.bool(cf.fusion.Opts.ForceConservative)
	e.u32(uint32(len(cf.fusion.Protocols)))
	for _, p := range cf.fusion.Protocols {
		e.str(spec.ExportPCC(p))
	}

	// Config (semantic fields only; MaxStates/Workers are not part of the
	// table's identity).
	e.u32(uint32(len(cf.cfg.CachesPerCluster)))
	for _, n := range cf.cfg.CachesPerCluster {
		e.u32(uint32(n))
	}
	e.u32(uint32(len(cf.cfg.Programs)))
	for _, prog := range cf.cfg.Programs {
		e.u32(uint32(len(prog)))
		for _, r := range prog {
			e.i64(int64(r.Op))
			e.i64(int64(r.Addr))
			e.i64(int64(r.Value))
		}
	}
	e.bool(cf.cfg.Evictions)
	e.u64(uint64(cf.explored))

	// Verdict: a loaded table reports what its extraction found.
	e.u64(uint64(cf.stats.Deadlocks))
	e.str(cf.stats.DeadlockAt)

	// States: three offset-table blobs plus the POR reference bitsets.
	n := len(cf.states)
	e.offsetBlob(func(i int) []byte { return cf.states[i].enc }, n)
	e.offsetBlob(func(i int) []byte { return cf.states[i].spill }, n)
	e.offsetBlob(func(i int) []byte { return cf.states[i].mem }, n)
	for i := range cf.states {
		for _, w := range cf.states[i].refs {
			e.u64(w)
		}
	}

	// Message pool: every distinct table/send message, first-use order.
	msgID := map[spec.Msg]uint32{}
	var msgs []spec.Msg
	intern := func(m spec.Msg) uint32 {
		if id, ok := msgID[m]; ok {
			return id
		}
		id := uint32(len(msgs))
		msgID[m] = id
		msgs = append(msgs, m)
		return id
	}
	for i := range cf.entries {
		intern(cf.entries[i].msg)
	}
	for _, m := range cf.sends {
		intern(m)
	}
	e.u32(uint32(len(msgs)))
	for _, m := range msgs {
		e.msg(m)
	}

	// Dense table: span offsets, fixed-width entries, send pool.
	for _, off := range cf.stateOff {
		e.u32(uint32(off))
	}
	e.u32(uint32(len(cf.entries)))
	for i := range cf.entries {
		en := &cf.entries[i]
		e.u32(msgID[en.msg])
		e.u32(uint32(en.next))
		e.u32(uint32(en.sendOff))
		e.u32(uint32(en.sendLen))
		e.bool(en.remem)
	}
	e.u32(uint32(len(cf.sends)))
	for _, m := range cf.sends {
		e.u32(msgID[m])
	}

	// Projected FSM: string pool + index-encoded states/edges/stability.
	e.str(cf.initLocal)
	strID := map[string]uint32{}
	var strs []string
	sintern := func(s string) uint32 {
		if id, ok := strID[s]; ok {
			return id
		}
		id := uint32(len(strs))
		strID[s] = id
		strs = append(strs, s)
		return id
	}
	for _, s := range cf.fsm.States {
		sintern(s)
	}
	for _, ed := range cf.fsm.Edges {
		sintern(ed.From)
		sintern(ed.Event)
		sintern(ed.To)
	}
	stableKeys := make([]string, 0, len(cf.stable))
	for s := range cf.stable {
		stableKeys = append(stableKeys, s)
	}
	sort.Strings(stableKeys)
	for _, s := range stableKeys {
		sintern(s)
	}
	e.u32(uint32(len(strs)))
	for _, s := range strs {
		e.str(s)
	}
	e.u32(uint32(len(cf.fsm.States)))
	for _, s := range cf.fsm.States {
		e.u32(strID[s])
	}
	e.u32(uint32(len(cf.fsm.Edges)))
	for _, ed := range cf.fsm.Edges {
		e.u32(strID[ed.From])
		e.u32(strID[ed.Event])
		e.u32(strID[ed.To])
	}
	e.u32(uint32(len(stableKeys)))
	for _, s := range stableKeys {
		e.u32(strID[s])
		e.bool(cf.stable[s])
	}
	return e.buf
}

// WriteArtifact writes the artifact atomically (temp file + rename) so a
// crashed writer never leaves a torn file behind for the cache to load.
func (cf *CompiledFusion) WriteArtifact(path string) error {
	data := cf.MarshalArtifact()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".hgcf-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// artifactParts is the decoded but not yet semantically anchored artifact.
type artifactParts struct {
	digest   [sha256.Size]byte
	name     string
	opts     Options
	pccTexts []string
	cfg      CompileConfig
	explored int

	deadlocks  int
	deadlockAt string

	encs, spills, mems [][]byte
	refs               []spec.NodeSet
	msgs               []spec.Msg
	stateOff           []int32
	entries            []compEntry
	sends              []spec.Msg
	initLocal          string
	fsmStates          []string
	fsmEdges           []Edge
	stable             map[string]bool
}

// parseArtifact decodes and structurally validates the byte form: header,
// section framing, and every cross-reference (span offsets monotone and
// total, message/string/state indices in range, spans message-sorted so
// the binary search is sound). It does not touch protocol semantics.
func parseArtifact(data []byte) (*artifactParts, error) {
	if len(data) < artifactHeaderLen || string(data[:4]) != ArtifactMagic {
		return nil, fmt.Errorf("%w (%d bytes, no %q header)", ErrArtifactFormat, len(data), ArtifactMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ArtifactVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrArtifactVersion, v, ArtifactVersion)
	}
	p := &artifactParts{}
	copy(p.digest[:], data[8:artifactHeaderLen])
	d := &artDec{data: data, off: artifactHeaderLen, ok: true}

	p.name = d.str()
	p.opts.Handshake = HandshakeMode(d.u32())
	p.opts.ProxyPool = int(d.u32())
	p.opts.ForceConservative = d.bool()
	nProtos := d.count(4)
	for i := 0; i < nProtos && d.ok; i++ {
		p.pccTexts = append(p.pccTexts, d.str())
	}

	nClusters := d.count(4)
	for i := 0; i < nClusters && d.ok; i++ {
		p.cfg.CachesPerCluster = append(p.cfg.CachesPerCluster, int(d.u32()))
	}
	nProgs := d.count(4)
	for i := 0; i < nProgs && d.ok; i++ {
		nReqs := d.count(24)
		prog := make([]spec.CoreReq, 0, nReqs)
		for j := 0; j < nReqs && d.ok; j++ {
			prog = append(prog, spec.CoreReq{
				Op: spec.CoreOp(d.i64()), Addr: spec.Addr(d.i64()), Value: int(d.i64())})
		}
		p.cfg.Programs = append(p.cfg.Programs, prog)
	}
	p.cfg.Evictions = d.bool()
	p.explored = int(d.u64())
	p.deadlocks = int(d.u64())
	p.deadlockAt = d.str()

	p.encs = d.offsetBlob()
	p.spills = d.offsetBlob()
	p.mems = d.offsetBlob()
	nStates := len(p.encs)
	if d.ok && (len(p.spills) != nStates || len(p.mems) != nStates) {
		d.fail()
	}
	if d.ok && d.rem() < nStates*32 {
		d.fail()
	}
	p.refs = make([]spec.NodeSet, 0, nStates)
	for i := 0; i < nStates && d.ok; i++ {
		var ns spec.NodeSet
		for w := range ns {
			ns[w] = d.u64()
		}
		p.refs = append(p.refs, ns)
	}

	nMsgs := d.count(4)
	for i := 0; i < nMsgs && d.ok; i++ {
		p.msgs = append(p.msgs, d.msg())
	}

	p.stateOff = make([]int32, 0, nStates+1)
	for i := 0; i <= nStates && d.ok; i++ {
		p.stateOff = append(p.stateOff, int32(d.u32()))
	}
	nEntries := d.count(17)
	for i := 0; i < nEntries && d.ok; i++ {
		id := d.u32()
		en := compEntry{next: int32(d.u32()), sendOff: int32(d.u32()),
			sendLen: int32(d.u32()), remem: d.bool()}
		if !d.ok {
			break
		}
		if int(id) >= len(p.msgs) {
			d.fail()
			break
		}
		en.msg = p.msgs[id]
		p.entries = append(p.entries, en)
	}
	nSends := d.count(4)
	for i := 0; i < nSends && d.ok; i++ {
		id := d.u32()
		if !d.ok || int(id) >= len(p.msgs) {
			d.fail()
			break
		}
		p.sends = append(p.sends, p.msgs[id])
	}

	p.initLocal = d.str()
	nStrs := d.count(4)
	strs := make([]string, 0, nStrs)
	for i := 0; i < nStrs && d.ok; i++ {
		strs = append(strs, d.str())
	}
	strAt := func(id uint32) string {
		if int(id) >= len(strs) {
			d.fail()
			return ""
		}
		return strs[id]
	}
	nFsmStates := d.count(4)
	for i := 0; i < nFsmStates && d.ok; i++ {
		p.fsmStates = append(p.fsmStates, strAt(d.u32()))
	}
	nEdges := d.count(12)
	for i := 0; i < nEdges && d.ok; i++ {
		p.fsmEdges = append(p.fsmEdges, Edge{
			From: strAt(d.u32()), Event: strAt(d.u32()), To: strAt(d.u32())})
	}
	nStable := d.count(5)
	p.stable = make(map[string]bool, nStable)
	for i := 0; i < nStable && d.ok; i++ {
		s := strAt(d.u32())
		p.stable[s] = d.bool()
	}

	if !d.ok {
		return nil, fmt.Errorf("%w: truncated or inconsistent section data at byte %d", ErrArtifactCorrupt, d.off)
	}
	if d.rem() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrArtifactCorrupt, d.rem())
	}

	// A verdict names a deadlock state exactly when it counts some, and
	// never counts more deadlock states than the extraction explored.
	if p.deadlocks < 0 || p.deadlocks > p.explored || (p.deadlocks == 0) != (p.deadlockAt == "") {
		return nil, fmt.Errorf("%w: verdict of %d deadlock states (snapshot %d bytes) over %d explored",
			ErrArtifactCorrupt, p.deadlocks, len(p.deadlockAt), p.explored)
	}

	// Cross-reference validation: the dense table must be internally sound
	// before anything dispatches through it.
	if p.stateOff[0] != 0 || int(p.stateOff[nStates]) != len(p.entries) {
		return nil, fmt.Errorf("%w: state span table does not cover the entries", ErrArtifactCorrupt)
	}
	for i := 0; i < nStates; i++ {
		if p.stateOff[i] > p.stateOff[i+1] {
			return nil, fmt.Errorf("%w: state span table not monotone at state %d", ErrArtifactCorrupt, i)
		}
		for j := p.stateOff[i] + 1; j < p.stateOff[i+1]; j++ {
			if msgCmp(p.entries[j-1].msg, p.entries[j].msg) >= 0 {
				return nil, fmt.Errorf("%w: state %d span not strictly message-sorted", ErrArtifactCorrupt, i)
			}
		}
	}
	for i := range p.entries {
		en := &p.entries[i]
		if en.next != stallState && (en.next < 0 || int(en.next) >= nStates) {
			return nil, fmt.Errorf("%w: entry %d successor %d out of range", ErrArtifactCorrupt, i, en.next)
		}
		if en.sendOff < 0 || en.sendLen < 0 || int(en.sendOff)+int(en.sendLen) > len(p.sends) {
			return nil, fmt.Errorf("%w: entry %d send span out of range", ErrArtifactCorrupt, i)
		}
	}
	return p, nil
}

// LoadArtifact loads a self-contained artifact: the constituent protocols
// are reparsed from the embedded PCC text, re-fused with the stored
// options, and the recomputed content digest must reproduce the stored one
// — a drifted or tampered spec section fails here, not in a later Deliver.
func LoadArtifact(data []byte) (*CompiledFusion, error) {
	start := time.Now()
	p, err := parseArtifact(data)
	if err != nil {
		return nil, err
	}
	protos := make([]*spec.Protocol, 0, len(p.pccTexts))
	for i, text := range p.pccTexts {
		proto, err := spec.ParsePCC(text)
		if err != nil {
			return nil, fmt.Errorf("%w: embedded protocol %d: %v", ErrArtifactCorrupt, i, err)
		}
		protos = append(protos, proto)
	}
	f, err := Fuse(p.opts, protos...)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded fusion does not re-fuse: %v", ErrArtifactCorrupt, err)
	}
	if f.Name() != p.name {
		return nil, fmt.Errorf("%w: stored fusion name %q, embedded spec names %q", ErrArtifactCorrupt, p.name, f.Name())
	}
	if got := compileDigestRaw(f, p.cfg); got != p.digest {
		return nil, fmt.Errorf("%w: stored digest %s does not cover the embedded spec (recomputed %s)",
			ErrArtifactCorrupt, hex.EncodeToString(p.digest[:8]), hex.EncodeToString(got[:8]))
	}
	cf, err := buildFromParts(f, p.cfg, p)
	if err != nil {
		return nil, err
	}
	cf.stats.Load = time.Since(start)
	return cf, nil
}

// LoadArtifactFor loads an artifact against a caller-provided fusion and
// configuration: the stored content digest must match CompileDigest(f,
// cfg), otherwise the load fails with ErrArtifactMismatch up front.
func LoadArtifactFor(data []byte, f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	start := time.Now()
	p, err := parseArtifact(data)
	if err != nil {
		return nil, err
	}
	if want := compileDigestRaw(f, cfg); want != p.digest {
		return nil, fmt.Errorf("%w: artifact holds %q (digest %s…), requested %q (digest %s…)",
			ErrArtifactMismatch, p.name, hex.EncodeToString(p.digest[:8]),
			f.Name(), hex.EncodeToString(want[:8]))
	}
	cf, err := buildFromParts(f, cfg, p)
	if err != nil {
		return nil, err
	}
	cf.stats.Load = time.Since(start)
	return cf, nil
}

// LoadArtifactFile is LoadArtifact over a file.
func LoadArtifactFile(path string) (*CompiledFusion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cf, err := LoadArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cf, nil
}

// LoadArtifactFileFor is LoadArtifactFor over a file.
func LoadArtifactFileFor(path string, f *Fusion, cfg CompileConfig) (*CompiledFusion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cf, err := LoadArtifactFor(data, f, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cf, nil
}

// buildFromParts anchors the decoded dense arrays to a (re)built fusion:
// fresh template system, scratch directory and permutation group from
// (f, cfg), table contents and extraction verdict from the artifact. The
// spill images are then decoded through the interpreted scratch directory
// to cross-check the stored component encodings against the rebuilt
// fusion, so any semantic drift the digest missed still fails the load
// rather than corrupting a search.
func buildFromParts(f *Fusion, cfg CompileConfig, p *artifactParts) (*CompiledFusion, error) {
	cf, _ := newCompiledFusion(f, cfg)
	if cf.initLocal != p.initLocal {
		return nil, fmt.Errorf("%w: initial local state %q, rebuilt fusion starts at %q",
			ErrArtifactMismatch, p.initLocal, cf.initLocal)
	}
	cf.explored = p.explored
	cf.stats = CompileStats{Source: SourceArtifact, Deadlocks: p.deadlocks, DeadlockAt: p.deadlockAt}
	states := make([]compState, len(p.encs))
	cf.states = make([]*compState, len(states))
	for i := range states {
		states[i] = compState{enc: p.encs[i], spill: p.spills[i], mem: p.mems[i], refs: p.refs[i]}
		cf.states[i] = &states[i]
	}
	cf.stateOff = p.stateOff
	cf.entries = p.entries
	cf.sends = p.sends
	cf.fsm.States = p.fsmStates
	cf.fsm.Edges = p.fsmEdges
	for s, v := range p.stable {
		cf.stable[s] = v
	}
	if err := cf.crossCheck(); err != nil {
		return nil, err
	}
	return cf, nil
}

// crossCheck verifies that the interpreted directory rebuilt from the
// spill images reproduces the stored component encodings byte for byte.
// With a nontrivial symmetry group every state is checked, since the
// relabelings a symmetric search computes from the spill images must
// agree with the stored encodings; with a trivial group only the initial
// state is (the full sweep would be pure verification cost).
func (cf *CompiledFusion) crossCheck() error {
	check := 1
	if len(cf.perms) > 1 {
		check = len(cf.states)
	}
	for i := 0; i < check; i++ {
		st := cf.states[i]
		if err := cf.scratch.DecodeState(spec.NewDec(st.spill)); err != nil {
			return fmt.Errorf("%w: state %d spill image undecodable against the rebuilt fusion: %v",
				ErrArtifactMismatch, i, err)
		}
		if got := cf.scratch.AppendBinary(nil); !bytes.Equal(got, st.enc) {
			return fmt.Errorf("%w: state %d encoding differs from the rebuilt fusion's", ErrArtifactMismatch, i)
		}
	}
	// Leave the scratch directory back at the initial image so lazy
	// snapshot reconstruction starts from a decodable state.
	if len(cf.states) > 0 {
		if err := cf.scratch.DecodeState(spec.NewDec(cf.states[0].spill)); err != nil {
			return fmt.Errorf("%w: initial spill image undecodable: %v", ErrArtifactMismatch, err)
		}
	}
	return nil
}

// CompileOrLoad consults a content-addressed artifact cache before
// compiling: cacheDir/<digest>.hgcf is loaded when present (cached=true,
// skipping the extraction search entirely). On a miss the fusion is
// compiled and the artifact written back best-effort — a cache-write
// failure degrades to an uncached compile, never a failed run. A stale or
// corrupt cache entry is recompiled over, not trusted. An empty cacheDir
// means plain Compile.
func CompileOrLoad(f *Fusion, cfg CompileConfig, cacheDir string) (cf *CompiledFusion, cached bool, err error) {
	return CompileOrLoadCtx(context.Background(), f, cfg, cacheDir)
}

// CompileOrLoadCtx is CompileOrLoad under a context: a cache hit loads
// regardless (loading is milliseconds), but a compile on a miss is
// cancellable like CompileCtx. A cancelled compile writes nothing back.
func CompileOrLoadCtx(ctx context.Context, f *Fusion, cfg CompileConfig, cacheDir string) (cf *CompiledFusion, cached bool, err error) {
	if cacheDir == "" {
		cf, err = CompileCtx(ctx, f, cfg)
		return cf, false, err
	}
	path := filepath.Join(cacheDir, CompileDigest(f, cfg)+ArtifactExt)
	if data, rerr := os.ReadFile(path); rerr == nil {
		if cf, lerr := LoadArtifactFor(data, f, cfg); lerr == nil {
			cf.stats.Source = SourceCache
			return cf, true, nil
		}
	}
	cf, err = CompileCtx(ctx, f, cfg)
	if err != nil {
		return nil, false, err
	}
	if mkErr := os.MkdirAll(cacheDir, 0o755); mkErr == nil {
		_ = cf.WriteArtifact(path)
	}
	return cf, false, nil
}
