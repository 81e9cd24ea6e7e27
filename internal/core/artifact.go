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
// Layout ("HGCF" format):
//
//	[0:4]   magic "HGCF"
//	[4:8]   little-endian u32 format version (ArtifactVersion)
//	[8:40]  sha256 content digest of (fusion spec, CompileConfig)
//	[40:72] sha256 checksum of the body
//	body    sections in fixed order, in the codec of the state images
//	        (spec.AppendUvarint, AppendInt, AppendBool, AppendString):
//	          fusion   — name, fuse options, constituent protocols as
//	                     embedded PCC text (the artifact is self-contained)
//	          config   — caches per cluster, driver programs, evictions,
//	                     explored-state count
//	          verdict  — the extraction's deadlock count and lex-least
//	                     deadlock snapshot (CompiledFusion.Verdict)
//	          msgs     — every message the table delivers, once, in
//	                     first-use order, as named message images
//	                     (Vocab.AppendMsg: the type as its name, never as
//	                     a number)
//	          lists    — per state, in discovery order, the pool ids of
//	                     its records' messages in message order
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
// Versioning rule: any change to the section layout or encoding bumps
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
// The loader trusts nothing: every read is bounds-checked, no count may
// exceed the bytes left (spec.Dec.Count) and every message id is
// validated before use, so a corrupt or truncated file fails with
// ErrArtifactCorrupt instead of panicking (FuzzArtifactCodec pins this,
// re-sealing the checksum so its mutations reach the parser). Before the
// replay delivers anything, the configuration must be one the system
// builder can number, every program address must lie in
// [0, spec.MaxDecodeAddr), and every pooled message must travel to the merged directory from a
// node the rebuilt system routes, at an address some program names; the
// replay must then reach exactly one state per list. One rule stands for
// every canonical-form check: the loaded table must re-marshal to the
// loaded bytes exactly (buildFromParts, replay).

// ArtifactMagic identifies a compiled-fusion artifact file.
const ArtifactMagic = "HGCF"

// ArtifactVersion is the current on-disk format version. Version 2 added
// the verdict section; version 3 added the body checksum, stores one image
// per state and writes the table as per-state record lists; version 4
// drops the derived sections (POR reference sets and the projected FSM)
// and stores messages as their binary images; version 5 drops the states
// and every record's outcome, keeping per state only the messages it
// delivers, which a load replays; version 6 writes the body in the state
// images' varint codec, the pooled messages inline, where version 5 used
// fixed-width fields and an offset table.
const ArtifactVersion = 6

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

// MarshalArtifact serializes the compiled table into the versioned binary
// artifact. The encoding is deterministic: marshaling the same table (or a
// table reloaded from the artifact) reproduces identical bytes. Every call
// marshals afresh.
func (cf *CompiledFusion) MarshalArtifact() []byte { return cf.artifactParts().marshal() }

// Artifact returns the table's artifact bytes: the ones its load verified
// (a load re-marshals the table and requires those bytes to equal its
// input) or its cache write marshalled, and otherwise a fresh
// MarshalArtifact. The caller must not modify the returned slice.
func (cf *CompiledFusion) Artifact() []byte {
	if cf.artifact != nil {
		return cf.artifact
	}
	return cf.MarshalArtifact()
}

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
	// named image (Vocab.AppendMsg) under vocab, the fusion's; a parse
	// leaves both sections in rest until decodeTable reads them under the
	// rebuilt fusion's vocabulary.
	vocab *spec.Vocab
	msgs  []spec.Msg
	lists [][]uint32
	rest  spec.Dec
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
	buf := make([]byte, 0, 16<<10)
	buf = append(buf, ArtifactMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ArtifactVersion)
	buf = append(buf, p.digest[:]...)
	buf = append(buf, make([]byte, sha256.Size)...) // body checksum, sealed below

	// Fusion: self-contained — constituents travel as canonical PCC text.
	buf = spec.AppendString(buf, p.name)
	buf = spec.AppendInt(buf, int(p.opts.Handshake))
	buf = spec.AppendInt(buf, p.opts.ProxyPool)
	buf = spec.AppendBool(buf, p.opts.ForceConservative)
	buf = spec.AppendUvarint(buf, uint64(len(p.pccTexts)))
	for _, text := range p.pccTexts {
		buf = spec.AppendString(buf, text)
	}

	// Config (semantic fields only; MaxStates/Workers are not part of the
	// table's identity).
	buf = spec.AppendUvarint(buf, uint64(len(p.cfg.CachesPerCluster)))
	for _, n := range p.cfg.CachesPerCluster {
		buf = spec.AppendInt(buf, n)
	}
	buf = spec.AppendUvarint(buf, uint64(len(p.cfg.Programs)))
	for _, prog := range p.cfg.Programs {
		buf = spec.AppendUvarint(buf, uint64(len(prog)))
		for _, r := range prog {
			buf = spec.AppendInt(buf, int(r.Op))
			buf = spec.AppendInt(buf, int(r.Addr))
			buf = spec.AppendInt(buf, r.Value)
		}
	}
	buf = spec.AppendBool(buf, p.cfg.Evictions)
	buf = spec.AppendInt(buf, p.explored)

	// Verdict: a loaded table reports what its extraction found.
	buf = spec.AppendInt(buf, p.deadlocks)
	buf = spec.AppendString(buf, p.deadlockAt)

	buf = spec.AppendUvarint(buf, uint64(len(p.msgs)))
	for i := range p.msgs {
		buf = p.vocab.AppendMsg(buf, &p.msgs[i])
	}
	buf = spec.AppendUvarint(buf, uint64(len(p.lists)))
	for _, list := range p.lists {
		buf = spec.AppendUvarint(buf, uint64(len(list)))
		for _, id := range list {
			buf = spec.AppendUvarint(buf, uint64(id))
		}
	}

	sealArtifact(buf)
	return buf
}

// sealArtifact writes the checksum of data's body into its header.
func sealArtifact(data []byte) {
	sum := sha256.Sum256(data[artifactHeaderLen:])
	copy(data[artifactHeaderLen-sha256.Size:artifactHeaderLen], sum[:])
}

// WriteArtifact writes the artifact atomically (temp file + rename) so a
// crashed writer never leaves a torn file behind for the cache to load.
func (cf *CompiledFusion) WriteArtifact(path string) error {
	return writeArtifactFile(path, cf.Artifact())
}

// writeArtifactFile writes data to path atomically.
func writeArtifactFile(path string, data []byte) error {
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

// parseArtifact checks the header and the body checksum and reads the
// sections that need no vocabulary — fusion, config and verdict — with a
// sane verdict. The pool and the lists stay unread in p.rest.
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
	d := &p.rest
	d.Reset(data[artifactHeaderLen:])

	p.name = d.String()
	p.opts.Handshake = HandshakeMode(d.Int())
	p.opts.ProxyPool = d.Int()
	p.opts.ForceConservative = d.Bool()
	p.pccTexts = make([]string, d.Count())
	for i := range p.pccTexts {
		p.pccTexts[i] = d.String()
	}

	p.cfg.CachesPerCluster = make([]int, d.Count())
	for i := range p.cfg.CachesPerCluster {
		p.cfg.CachesPerCluster[i] = d.Int()
	}
	p.cfg.Programs = make([][]spec.CoreReq, d.Count())
	for i := range p.cfg.Programs {
		prog := make([]spec.CoreReq, d.Count())
		for j := range prog {
			prog[j] = spec.CoreReq{Op: spec.CoreOp(d.Int()), Addr: spec.Addr(d.Int()), Value: d.Int()}
		}
		p.cfg.Programs[i] = prog
	}
	p.cfg.Evictions = d.Bool()
	p.explored = d.Int()
	p.deadlocks = d.Int()
	p.deadlockAt = d.String()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}

	// A verdict names a deadlock state exactly when it counts some, and
	// never counts more deadlock states than the extraction explored.
	if p.deadlocks < 0 || p.deadlocks > p.explored || (p.deadlocks == 0) != (p.deadlockAt == "") {
		return nil, fmt.Errorf("%w: verdict of %d deadlock states (snapshot %d bytes) over %d explored",
			ErrArtifactCorrupt, p.deadlocks, len(p.deadlockAt), p.explored)
	}
	return p, nil
}

// decodeTable reads the pool and the lists, the rest of the body, under v,
// the rebuilt fusion's vocabulary; every list's ids must name pooled
// messages.
func (p *artifactParts) decodeTable(v *spec.Vocab) error {
	d := &p.rest
	p.vocab = v
	p.msgs = make([]spec.Msg, d.Count())
	for i := range p.msgs {
		p.msgs[i] = v.DecodeMsg(d)
	}
	p.lists = make([][]uint32, d.Count())
	ids := make([]uint32, 0, d.Len())
	for k := range p.lists {
		start := len(ids)
		for range d.Count() {
			id := d.Uvarint()
			if id >= uint64(len(p.msgs)) && d.Err() == nil {
				return fmt.Errorf("%w: list %d names message %d of a pool of %d", ErrArtifactCorrupt, k, id, len(p.msgs))
			}
			ids = append(ids, uint32(id))
		}
		p.lists[k] = ids[start:len(ids):len(ids)]
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	return nil
}

// LoadArtifact loads a self-contained artifact: the constituent protocols
// are reparsed from the embedded PCC text and re-fused with the stored
// options, and the table is replayed for the stored configuration. The
// loaded table must re-marshal to data, so the stored digest is the
// content address of the embedded spec (buildFromParts).
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
	return buildFromParts(data, f, p.cfg, p, start)
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
	return buildFromParts(data, f, cfg, p, start)
}

// maxArtifactBytes bounds the artifact files a load reads: no file larger,
// and nothing but a regular file, is read at all. The largest Table II
// artifact is about a tenth of a megabyte.
const maxArtifactBytes = 64 << 20

// readArtifactFile reads path if it is a regular file of at most
// maxArtifactBytes; anything else fails with ErrArtifactFormat before a
// byte is read, so a device or a FIFO can neither exhaust memory nor
// block the caller.
func readArtifactFile(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	switch {
	case !fi.Mode().IsRegular():
		return nil, fmt.Errorf("%w: %s is not a regular file", ErrArtifactFormat, path)
	case fi.Size() > maxArtifactBytes:
		return nil, fmt.Errorf("%w: %s holds %d bytes, over the %d an artifact may", ErrArtifactFormat, path, fi.Size(), maxArtifactBytes)
	}
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	// A file that grows after the stat is cut at the bound, and then
	// fails its checksum.
	return io.ReadAll(io.LimitReader(fh, maxArtifactBytes))
}

// LoadArtifactFile is LoadArtifact over a file.
func LoadArtifactFile(path string) (*CompiledFusion, error) {
	data, err := readArtifactFile(path)
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
	data, err := readArtifactFile(path)
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
// artifact.
//
// Before the replay delivers anything, the configuration must be one
// BuildSystem builds, every program request must be a core operation in
// [spec.OpLoad, spec.OpEvict] at an address in [0, spec.MaxDecodeAddr),
// and every pooled message must travel to the merged directory from a
// node the rebuilt system routes, at an address some program names. After it, one rule stands for every canonical-form
// check: the table must re-marshal to data, byte for byte.
func buildFromParts(data []byte, f *Fusion, cfg CompileConfig, p *artifactParts, start time.Time) (*CompiledFusion, error) {
	if err := p.decodeTable(f.vocab); err != nil {
		return nil, err
	}
	if err := f.CheckCaches(cfg.CachesPerCluster); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrArtifactCorrupt, err)
	}
	named := map[spec.Addr]bool{}
	for _, prog := range cfg.Programs {
		for _, r := range prog {
			if r.Op < spec.OpLoad || r.Op > spec.OpEvict {
				return nil, fmt.Errorf("%w: a program names core operation %d, outside [%d, %d]", ErrArtifactCorrupt, r.Op, spec.OpLoad, spec.OpEvict)
			}
			if r.Addr < 0 || r.Addr >= spec.MaxDecodeAddr {
				return nil, fmt.Errorf("%w: a program names address %d, outside [0, %d)", ErrArtifactCorrupt, r.Addr, spec.MaxDecodeAddr)
			}
			named[r.Addr] = true
		}
	}
	cf, _ := newCompiledFusion(f, cfg)
	c := cf.fresh()
	var routed, dir spec.NodeSet
	for _, comp := range cf.template.Components {
		for _, id := range comp.OwnedIDs() {
			routed.Add(id)
		}
	}
	for _, id := range cf.owned {
		dir.Add(id)
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
	again := cf.MarshalArtifact()
	if !bytes.Equal(again, data) {
		return nil, fmt.Errorf("%w: not the form MarshalArtifact writes (the loaded table re-marshals to %d different bytes, the artifact has %d)",
			ErrArtifactCorrupt, len(again), len(data))
	}
	// The re-marshal is the load's own copy of data, which the caller may
	// go on to reuse.
	cf.artifact = again
	cf.stats.Load = time.Since(start)
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
	if cf, lerr := LoadArtifactFileFor(path, f, cfg); lerr == nil {
		cf.stats.Source = SourceCache
		return cf, true, nil
	}
	cf, err = CompileCtx(ctx, f, cfg)
	if err != nil {
		return nil, false, err
	}
	cf.artifact = cf.MarshalArtifact()
	if mkErr := os.MkdirAll(cacheDir, 0o755); mkErr == nil {
		_ = writeArtifactFile(path, cf.artifact)
	}
	return cf, false, nil
}
