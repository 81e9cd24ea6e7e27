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
//	[40:72] sha256 checksum of the body
//	body    sections in fixed order:
//	          fusion   — name, fuse options, constituent protocols as
//	                     embedded PCC text (the artifact is self-contained)
//	          config   — caches per cluster, driver programs, evictions,
//	                     explored-state count
//	          verdict  — the extraction's deadlock count and lex-least
//	                     deadlock snapshot (CompiledFusion.Verdict)
//	          states   — image and memory blobs with u32 offset tables
//	                     (loaded as subslices of one backing array)
//	          msgs     — the interned message pool, an offset blob of
//	                     Msg.AppendBinary images
//	          table    — per state, its message-sorted records: message
//	                     id, successor, memory bit, send ids
//
// The body holds only what the extraction found. Everything derivable —
// each state's POR references, the projected Table II machine and its
// stability verdicts, snapshots and relabelings — is rebuilt from the
// state images by the same code a fresh compile runs.
//
// Versioning rule: any change to the section layout or field widths bumps
// ArtifactVersion; loaders reject other versions outright (there is no
// in-place migration — recompiling is cheap relative to getting a silent
// misread wrong). The body checksum catches damage to the bytes: a load
// whose body does not hash to it fails before any section is read. The
// digest is a *content address*, not a checksum: it hashes the semantic
// identity of the table — the constituent protocols' canonical PCC
// export, the fusion options and the semantic CompileConfig fields
// (caches, programs, evictions). Search-schedule knobs (MaxStates,
// Workers) are excluded: the completed table is independent of them.
// Loading against a fusion/config whose digest differs is a structured
// ErrArtifactMismatch at load time — never a search that replays another
// machine's transitions.
//
// The loader trusts nothing: every read is bounds-checked and every index
// (state, message id) is validated before use, so a corrupt or truncated
// file fails with ErrArtifactCorrupt instead of panicking
// (FuzzArtifactCodec pins this, re-sealing the checksum so its mutations
// reach the parser). After decoding, the table is re-anchored to a freshly
// rebuilt fusion: state 0 must be its initial directory state, the other
// states must be distinct and in canonical order, and every state's image
// and memory are decoded through the interpreted MergedDir and must
// re-encode to themselves — drift between the artifact and the rebuilt
// fusion is caught at load. The loaded table is a seed: System() searches
// it as a growing table, like a freshly compiled one.

// ArtifactMagic identifies a compiled-fusion artifact file.
const ArtifactMagic = "HGCF"

// ArtifactVersion is the current on-disk format version. Version 2 added
// the verdict section; version 3 added the body checksum, stores one image
// per state and writes the table as per-state record lists; version 4
// drops the derived sections (POR reference sets and the projected FSM)
// and stores messages as their binary images.
const ArtifactVersion = 4

// ArtifactExt is the conventional file extension (and the one the
// content-addressed cache uses).
const ArtifactExt = ".hgcf"

// artifactHeaderLen is magic + version + digest + body checksum.
const artifactHeaderLen = 4 + 4 + 2*sha256.Size

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
func (e *artEnc) str(s string) { e.u32(uint32(len(s))); e.buf = append(e.buf, s...) }

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
	e.buf = append(e.buf, make([]byte, sha256.Size)...) // body checksum, sealed below

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

	// States: two offset-table blobs.
	n := len(cf.states)
	e.offsetBlob(func(i int) []byte { return cf.states[i].img }, n)
	e.offsetBlob(func(i int) []byte { return cf.states[i].mem }, n)

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
	cf.eachRecord(func(_ int32, r *compRecord) {
		intern(r.msg)
		for _, m := range r.tr.sends {
			intern(m)
		}
	})
	e.offsetBlob(func(i int) []byte { return msgs[i].AppendBinary(nil) }, len(msgs))

	// Table: each state's records in message order.
	for _, span := range cf.spans {
		e.u32(uint32(len(span)))
		for _, ri := range span {
			r := &cf.recs[ri]
			e.u32(msgID[r.msg])
			e.u32(uint32(r.tr.next))
			e.bool(r.tr.remem)
			e.u32(uint32(len(r.tr.sends)))
			for _, m := range r.tr.sends {
				e.u32(msgID[m])
			}
		}
	}

	sealArtifact(e.buf)
	return e.buf
}

// sealArtifact writes the checksum of data's body into its header.
func sealArtifact(data []byte) {
	sum := sha256.Sum256(data[artifactHeaderLen:])
	copy(data[artifactHeaderLen-sha256.Size:artifactHeaderLen], sum[:])
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

	imgs, mems [][]byte
	msgs       []spec.Msg
	recs       []compRecord
	spans      [][]int32
}

// parseArtifact decodes and structurally validates the byte form: header,
// body checksum, section framing, message images that re-encode to
// themselves, and every cross-reference (at least the initial state,
// message/state indices in range, spans message-sorted so the binary
// search is sound, stalls without effects). It does not touch protocol
// semantics.
func parseArtifact(data []byte) (*artifactParts, error) {
	if len(data) < artifactHeaderLen || string(data[:4]) != ArtifactMagic {
		return nil, fmt.Errorf("%w (%d bytes, no %q header)", ErrArtifactFormat, len(data), ArtifactMagic)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != ArtifactVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrArtifactVersion, v, ArtifactVersion)
	}
	if sum := sha256.Sum256(data[artifactHeaderLen:]); !bytes.Equal(sum[:], data[artifactHeaderLen-sha256.Size:artifactHeaderLen]) {
		return nil, fmt.Errorf("%w: body checksum mismatch", ErrArtifactCorrupt)
	}
	p := &artifactParts{}
	copy(p.digest[:], data[8:8+sha256.Size])
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

	p.imgs = d.offsetBlob()
	p.mems = d.offsetBlob()
	nStates := len(p.imgs)
	if d.ok && len(p.mems) != nStates {
		d.fail()
	}

	// An accepted artifact re-marshals byte-identically, so the pool must
	// be the one MarshalArtifact writes: distinct messages in first-use
	// order, each image re-encoding to itself (spec.Dec accepts
	// non-minimal varints).
	var md spec.Dec
	pooled := map[spec.Msg]bool{}
	msgImgs := d.offsetBlob()
	p.msgs = make([]spec.Msg, 0, len(msgImgs))
	for _, b := range msgImgs {
		md.Reset(b)
		m := spec.DecodeMsg(&md)
		if md.Err() != nil || pooled[m] || !bytes.Equal(m.AppendBinary(nil), b) {
			d.fail()
			break
		}
		pooled[m] = true
		p.msgs = append(p.msgs, m)
	}

	firstUnused := uint32(0)
	msgAt := func(id uint32) spec.Msg {
		if id > firstUnused || int(id) >= len(p.msgs) {
			d.fail()
			return spec.Msg{}
		}
		if id == firstUnused {
			firstUnused++
		}
		return p.msgs[id]
	}
	// Records land in one slice, state after state, and their sends in
	// one pool; spans and send lists are cut from them once every record
	// is read. Both are sized once, by a counting pass.
	recCap, sendCap := countRecords(*d, nStates)
	spanEnd := make([]int, 0, nStates)
	p.recs = make([]compRecord, 0, recCap)
	sendPool := make([]spec.Msg, 0, sendCap)
	sendEnd := make([]int, 0, recCap)
	for s := 0; s < nStates && d.ok; s++ {
		nRecs := d.count(13)
		for i := 0; i < nRecs && d.ok; i++ {
			r := compRecord{msg: msgAt(d.u32())}
			r.tr.next = int32(d.u32())
			r.tr.remem = d.bool()
			nSends := d.count(4)
			for j := 0; j < nSends && d.ok; j++ {
				sendPool = append(sendPool, msgAt(d.u32()))
			}
			p.recs = append(p.recs, r)
			sendEnd = append(sendEnd, len(sendPool))
		}
		spanEnd = append(spanEnd, len(p.recs))
	}
	if d.ok {
		idx := make([]int32, len(p.recs))
		start := 0
		for i, end := range sendEnd {
			idx[i] = int32(i)
			if end > start {
				p.recs[i].tr.sends = sendPool[start:end:end]
			}
			start = end
		}
		p.spans = make([][]int32, nStates)
		start = 0
		for s, end := range spanEnd {
			p.spans[s] = idx[start:end:end]
			start = end
		}
	}
	if d.ok && int(firstUnused) != len(p.msgs) {
		d.fail()
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

	// Cross-reference validation: the table must be internally sound
	// before anything dispatches through it.
	if nStates == 0 {
		return nil, fmt.Errorf("%w: no states (the initial state is missing)", ErrArtifactCorrupt)
	}
	for s, span := range p.spans {
		for i := 1; i < len(span); i++ {
			if msgCmp(&p.recs[span[i-1]].msg, &p.recs[span[i]].msg) >= 0 {
				return nil, fmt.Errorf("%w: state %d span not strictly message-sorted", ErrArtifactCorrupt, s)
			}
		}
	}
	for i := range p.recs {
		tr := &p.recs[i].tr
		switch {
		case tr.next == stallState && (tr.remem || len(tr.sends) > 0):
			return nil, fmt.Errorf("%w: record %d is a stall with effects", ErrArtifactCorrupt, i)
		case tr.next != stallState && (tr.next < 0 || int(tr.next) >= nStates):
			return nil, fmt.Errorf("%w: record %d successor %d out of range", ErrArtifactCorrupt, i, tr.next)
		}
	}
	return p, nil
}

// countRecords counts the records and sends of the record section at d
// for nStates states. d is a copy, so the caller's cursor stays put. It
// checks nothing beyond the counts' bounds (count keeps them within the
// remaining input); the decoding pass validates the section.
func countRecords(d artDec, nStates int) (recs, sends int) {
	for s := 0; s < nStates && d.ok; s++ {
		n := d.count(13)
		for i := 0; i < n && d.ok; i++ {
			d.take(9) // message id, successor, remem flag
			m := d.count(4)
			d.take(4 * m)
			sends += m
		}
		recs += n
	}
	return recs, sends
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

// buildFromParts anchors the decoded table to a (re)built fusion: fresh
// template system, scratch directory and permutation group from (f, cfg),
// table contents and extraction verdict from the artifact. Every stored
// message must name only nodes the rebuilt system routes and every stored
// state must stand for a state of the rebuilt fusion (deriveStates, which
// also names it for the FSM projection in the same decode); the projected
// FSM is then derived by the projectFSM a fresh compile runs.
// Any semantic drift the digest missed fails the load rather than
// corrupting a search.
func buildFromParts(f *Fusion, cfg CompileConfig, p *artifactParts) (*CompiledFusion, error) {
	// The digest covers the constituents' canonical exports, not the
	// embedded text; an accepted artifact re-marshals byte-identically, so
	// the text must be that export.
	if len(p.pccTexts) != len(f.Protocols) {
		return nil, fmt.Errorf("%w: %d embedded protocols for a fusion of %d", ErrArtifactCorrupt, len(p.pccTexts), len(f.Protocols))
	}
	for i, proto := range f.Protocols {
		if p.pccTexts[i] != spec.ExportPCC(proto) {
			return nil, fmt.Errorf("%w: embedded protocol %d is not its canonical PCC export", ErrArtifactCorrupt, i)
		}
	}
	cf, _ := newCompiledFusion(f, cfg)
	// A send to a node the rebuilt system does not route would panic the
	// first search that replays it; refuse it here instead.
	var routed spec.NodeSet
	for _, c := range cf.template.Components {
		for _, id := range c.OwnedIDs() {
			routed.Add(id)
		}
	}
	for i, m := range p.msgs {
		if !routed.Has(m.Src) || !routed.Has(m.Dst) || (m.Req != spec.NoNode && !routed.Has(m.Req)) {
			return nil, fmt.Errorf("%w: stored message %d (%s) names a node the rebuilt system does not route",
				ErrArtifactMismatch, i, m)
		}
	}
	cf.explored = p.explored
	cf.stats = CompileStats{Source: SourceArtifact, Deadlocks: p.deadlocks, DeadlockAt: p.deadlockAt}
	states := make([]compState, len(p.imgs))
	cf.states = make([]*compState, len(states))
	for i := range states {
		states[i] = compState{img: p.imgs[i], mem: p.mems[i]}
		cf.states[i] = &states[i]
	}
	cf.recs = p.recs[:len(p.recs):len(p.recs)]
	cf.spans = p.spans
	local := cf.localAddrs()
	if err := cf.deriveStates(local); err != nil {
		return nil, err
	}
	cf.projectFSM(local)
	return cf, nil
}

// deriveStates checks the loaded states against the rebuilt fusion and
// derives what the artifact does not store. State 0 must be the rebuilt
// initial directory state (ErrArtifactMismatch); the others must be
// distinct from it and strictly ascending by (image, memory), the order
// canonicalOrder numbers them in, so no state is stored twice
// (ErrArtifactCorrupt). Every image and memory is decoded through the
// interpreted scratch directory and must re-encode to itself
// (ErrArtifactMismatch), and that decode yields the state's POR
// references and its local-state names at the addresses local lists
// (localAddrs), so each state is decoded once per load. parseArtifact
// guarantees the initial state exists.
func (cf *CompiledFusion) deriveStates(local [][]localName) error {
	initial := compState{img: cf.layout.Merged.AppendBinary(nil), mem: cf.layout.Merged.Memory().AppendBinary(nil)}
	if stateCmp(cf.states[0], &initial) != 0 {
		return fmt.Errorf("%w: state 0 is not the rebuilt fusion's initial directory state", ErrArtifactMismatch)
	}
	mem := cf.scratch.Memory().Clone()
	var dec spec.Dec
	var buf []byte
	for i, st := range cf.states {
		if i > 0 && (stateCmp(st, cf.states[0]) == 0 || i > 1 && stateCmp(cf.states[i-1], st) >= 0) {
			return fmt.Errorf("%w: state %d repeats a state or breaks the canonical state order", ErrArtifactCorrupt, i)
		}
		dec.Reset(st.img)
		if err := cf.scratch.DecodeState(&dec); err != nil {
			return fmt.Errorf("%w: state %d image undecodable against the rebuilt fusion: %v", ErrArtifactMismatch, i, err)
		}
		if buf = cf.scratch.AppendBinary(buf[:0]); !bytes.Equal(buf, st.img) {
			return fmt.Errorf("%w: state %d image does not re-encode to itself under the rebuilt fusion", ErrArtifactMismatch, i)
		}
		dec.Reset(st.mem)
		if err := mem.DecodeState(&dec); err != nil {
			return fmt.Errorf("%w: state %d memory undecodable: %v", ErrArtifactMismatch, i, err)
		}
		if buf = mem.AppendBinary(buf[:0]); !bytes.Equal(buf, st.mem) {
			return fmt.Errorf("%w: state %d memory does not re-encode to itself", ErrArtifactMismatch, i)
		}
		st.refs = cf.scratch.RefNodes()
		cf.nameLocal(local[i])
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
