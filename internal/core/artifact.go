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
//	          msgs     — every message the table delivers, once, in
//	                     first-use order: an offset blob of named
//	                     message images (Vocab.AppendMsg: the type as
//	                     its name, never as a number)
//	          lists    — per state, in discovery order, the message ids
//	                     of its records in message order
//
// The body holds only the (state, message) pairs the extraction
// delivered. States are not stored: state 0 is the initial directory
// state, and discovery order numbers the others as a replay of the lists
// interns them (CompiledFusion.discoveryOrder). A load rebuilds the
// growing table a fresh compile starts from, replays list k at state k
// through the compiler for k = 0, 1, …, and runs the same finalize as
// CompileCtx, so every state, successor, send, memory bit, POR reference
// and projected FSM row of a loaded table is the interpreted oracle's
// outcome. Only the verdict, the explored count and which pairs the
// extraction reached are taken on trust.
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
// The loader trusts nothing: every read is bounds-checked and every
// message id is validated before use, so a corrupt or truncated file
// fails with ErrArtifactCorrupt instead of panicking (FuzzArtifactCodec
// pins this, re-sealing the checksum so its mutations reach the parser).
// Every pooled message must travel to the merged directory from a node
// the rebuilt system routes, at an address some program names, before the
// replay delivers any; the replay must then reach exactly one state per
// list (buildFromParts, replay).

// ArtifactMagic identifies a compiled-fusion artifact file.
const ArtifactMagic = "HGCF"

// ArtifactVersion is the current on-disk format version. Version 2 added
// the verdict section; version 3 added the body checksum, stores one image
// per state and writes the table as per-state record lists; version 4
// drops the derived sections (POR reference sets and the projected FSM)
// and stores messages as their binary images; version 5 drops the states
// and every record's outcome, keeping per state only the messages it
// delivers, which a load replays.
const ArtifactVersion = 5

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
func (cf *CompiledFusion) MarshalArtifact() []byte { return cf.artifactParts().marshal() }

// artifactParts is the artifact's content: what a table is compiled from,
// what its extraction found, and the (state, message) pairs it delivered.
// MarshalArtifact writes it and parseArtifact reads it back.
type artifactParts struct {
	digest   [sha256.Size]byte
	name     string
	opts     Options
	pccTexts []string
	cfg      CompileConfig
	explored int

	deadlocks  int
	deadlockAt string

	// msgs holds every delivered message once, in first-use order; lists
	// holds, per state in discovery order (discoveryOrder), the message
	// ids of its records in message order. The pool stores each message's
	// named image (Vocab.AppendMsg): vocab is the fusion's, and a parse
	// keeps the images in msgImgs until decodeMsgs numbers them under the
	// rebuilt fusion's vocabulary.
	vocab   *spec.Vocab
	msgImgs [][]byte
	msgs    []spec.Msg
	lists   [][]uint32
}

// artifactParts collects cf's artifact content.
func (cf *CompiledFusion) artifactParts() *artifactParts {
	p := &artifactParts{
		digest:     compileDigestRaw(cf.fusion, cf.cfg),
		name:       cf.fusion.Name(),
		opts:       cf.fusion.Opts,
		cfg:        cf.cfg,
		explored:   cf.explored,
		deadlocks:  cf.stats.Deadlocks,
		deadlockAt: cf.stats.DeadlockAt,
		vocab:      cf.fusion.vocab,
	}
	for _, proto := range cf.fusion.Protocols {
		p.pccTexts = append(p.pccTexts, spec.ExportPCC(proto))
	}
	msgID := map[spec.Msg]uint32{}
	ids := make([]uint32, 0, len(cf.recs))
	for _, s := range cf.discoveryOrder() {
		start := len(ids)
		for _, ri := range cf.spans[s] {
			m := cf.recs[ri].msg
			id, ok := msgID[m]
			if !ok {
				id = uint32(len(p.msgs))
				msgID[m] = id
				p.msgs = append(p.msgs, m)
			}
			ids = append(ids, id)
		}
		p.lists = append(p.lists, ids[start:len(ids):len(ids)])
	}
	return p
}

// marshal encodes p as a sealed artifact.
func (p *artifactParts) marshal() []byte {
	var e artEnc
	e.buf = make([]byte, 0, 64<<10)
	e.buf = append(e.buf, ArtifactMagic...)
	e.u32(ArtifactVersion)
	e.buf = append(e.buf, p.digest[:]...)
	e.buf = append(e.buf, make([]byte, sha256.Size)...) // body checksum, sealed below

	// Fusion: self-contained — constituents travel as canonical PCC text.
	e.str(p.name)
	e.u32(uint32(p.opts.Handshake))
	e.u32(uint32(p.opts.ProxyPool))
	e.bool(p.opts.ForceConservative)
	e.u32(uint32(len(p.pccTexts)))
	for _, text := range p.pccTexts {
		e.str(text)
	}

	// Config (semantic fields only; MaxStates/Workers are not part of the
	// table's identity).
	e.u32(uint32(len(p.cfg.CachesPerCluster)))
	for _, n := range p.cfg.CachesPerCluster {
		e.u32(uint32(n))
	}
	e.u32(uint32(len(p.cfg.Programs)))
	for _, prog := range p.cfg.Programs {
		e.u32(uint32(len(prog)))
		for _, r := range prog {
			e.i64(int64(r.Op))
			e.i64(int64(r.Addr))
			e.i64(int64(r.Value))
		}
	}
	e.bool(p.cfg.Evictions)
	e.u64(uint64(p.explored))

	// Verdict: a loaded table reports what its extraction found.
	e.u64(uint64(p.deadlocks))
	e.str(p.deadlockAt)

	e.offsetBlob(func(i int) []byte { return p.vocab.AppendMsg(nil, &p.msgs[i]) }, len(p.msgs))
	e.u32(uint32(len(p.lists)))
	for _, list := range p.lists {
		e.u32(uint32(len(list)))
		for _, id := range list {
			e.u32(id)
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

// parseArtifact decodes and structurally validates the byte form: header,
// body checksum, section framing, a pool of distinct message images that
// re-encode to themselves and are used in pool order, strictly
// message-sorted lists, and a sane verdict. It does not touch protocol
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

	// The pool's images are decoded once the fusion is rebuilt
	// (decodeMsgs); the lists are checked against its size here.
	p.msgImgs = d.offsetBlob()

	// The lists are the rest of the body, so its length sizes their one
	// backing array.
	nLists := d.count(4)
	ids := make([]uint32, 0, max(0, d.rem()/4-nLists))
	p.lists = make([][]uint32, 0, nLists)
	firstUnused := uint32(0)
	for k := 0; k < nLists && d.ok; k++ {
		n := d.count(4)
		start := len(ids)
		for i := 0; i < n && d.ok; i++ {
			id := d.u32()
			switch {
			case id > firstUnused || int(id) >= len(p.msgImgs):
				d.fail()
			case id == firstUnused:
				firstUnused++
			}
			ids = append(ids, id)
		}
		p.lists = append(p.lists, ids[start:len(ids):len(ids)])
	}
	if d.ok && int(firstUnused) != len(p.msgImgs) {
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
	return p, nil
}

// decodeMsgs numbers the parsed pool under v, the rebuilt fusion's
// vocabulary. An accepted artifact re-marshals byte-identically, so the
// pool must be the one MarshalArtifact writes: distinct messages of types
// v names, in first-use order, each image re-encoding to itself (spec.Dec
// accepts non-minimal varints); and every list strictly message-sorted —
// a state delivers each message once, and the replay records them in the
// order the binary search expects.
func (p *artifactParts) decodeMsgs(v *spec.Vocab) error {
	p.vocab = v
	var md spec.Dec
	pooled := make(map[spec.Msg]bool, len(p.msgImgs))
	p.msgs = make([]spec.Msg, 0, len(p.msgImgs))
	for i, b := range p.msgImgs {
		md.Reset(b)
		m := v.DecodeMsg(&md)
		if md.Err() != nil || pooled[m] || !bytes.Equal(v.AppendMsg(nil, &m), b) {
			return fmt.Errorf("%w: pooled message %d is not a distinct, minimal image of a message the fusion names", ErrArtifactCorrupt, i)
		}
		pooled[m] = true
		p.msgs = append(p.msgs, m)
	}
	for k, list := range p.lists {
		for i := 1; i < len(list); i++ {
			if msgCmp(&p.msgs[list[i-1]], &p.msgs[list[i]], v) >= 0 {
				return fmt.Errorf("%w: list %d not strictly message-sorted", ErrArtifactCorrupt, k)
			}
		}
	}
	return nil
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

// buildFromParts derives the table from the artifact's delivered pairs:
// the growing table a fresh compile starts from, built for (f, cfg), is
// replayed list by list (replay) and then finalized exactly as CompileCtx
// finalizes an extraction, so every state, record, POR reference and
// projected FSM row is the interpreted oracle's. Besides which pairs to
// deliver, only the verdict and the explored count are taken from the
// artifact. Every pooled message is
// checked before the replay delivers any: it must travel to the merged
// directory from a node the rebuilt system routes, at an address some
// program names.
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
	if err := p.decodeMsgs(f.vocab); err != nil {
		return nil, err
	}
	cf, c, _ := growingSystem(f, cfg)
	var routed, dir spec.NodeSet
	for _, comp := range cf.template.Components {
		for _, id := range comp.OwnedIDs() {
			routed.Add(id)
		}
	}
	for _, id := range cf.owned {
		dir.Add(id)
	}
	named := map[spec.Addr]bool{}
	for _, prog := range cfg.Programs {
		for _, r := range prog {
			named[r.Addr] = true
		}
	}
	for i, m := range p.msgs {
		switch {
		case !named[m.Addr]:
			return nil, fmt.Errorf("%w: stored message %d (%s) is at an address no program names",
				ErrArtifactMismatch, i, m)
		case !dir.Has(m.Dst) || !routed.Has(m.Src) || (m.Req != spec.NoNode && !routed.Has(m.Req)):
			return nil, fmt.Errorf("%w: stored message %d (%s) is not routed from a node of the rebuilt system to its merged directory",
				ErrArtifactMismatch, i, m)
		}
	}
	if err := replay(c, p); err != nil {
		return nil, err
	}
	cf.explored = p.explored
	cf.stats = CompileStats{Source: SourceArtifact, Deadlocks: p.deadlocks, DeadlockAt: p.deadlockAt}
	cf.finalize(c)
	return cf, nil
}

// replay delivers list k's messages at state k through the compiler, for
// k = 0, 1, …: each delivery interprets and records its outcome and
// interns a new successor under the next index, so a list may only be
// replayed once its state is discovered, and the replay must discover
// exactly one state per list (ErrArtifactCorrupt). A stall that sends is
// refused, as it fails a compile (ErrArtifactMismatch).
func replay(c *compiler, p *artifactParts) error {
	// A list's records land consecutively and in message order, so the
	// records and every state's span are sized up front, the spans cut
	// from one array.
	total := 0
	for _, list := range p.lists {
		total += len(list)
	}
	c.recs = make([]compRecord, 0, total)
	spans := make([]int32, total)
	for k := range p.lists {
		if k >= len(c.states) {
			return fmt.Errorf("%w: list %d names a state the replay does not reach (%d reached)",
				ErrArtifactCorrupt, k, len(c.states))
		}
		start := len(c.recs)
		c.spans[k] = spans[start : start : start+len(p.lists[k])]
		for _, id := range p.lists[k] {
			c.step(int32(k), &p.msgs[id])
		}
	}
	if c.err != nil {
		return fmt.Errorf("%w: %v", ErrArtifactMismatch, c.err)
	}
	if len(c.states) != len(p.lists) {
		return fmt.Errorf("%w: the replay reaches %d states, the artifact lists %d",
			ErrArtifactCorrupt, len(c.states), len(p.lists))
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
