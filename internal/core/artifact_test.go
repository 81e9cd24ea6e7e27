package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"heterogen/internal/mcheck"
	"heterogen/internal/protocols"
	"heterogen/internal/spec"
)

// quickArtifactFusion compiles a small fixed configuration used by the
// artifact unit tests (two single-cache clusters, two-op programs).
func quickArtifactFusion(t testing.TB) (*Fusion, CompileConfig, *CompiledFusion) {
	t.Helper()
	f, err := Fuse(Options{}, protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CompileConfig{CachesPerCluster: []int{1, 1}, Programs: tableIIDriver()}
	cf, err := Compile(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, cfg, cf
}

// TestArtifactRoundTripAllPairs pins the full codec on every Table II
// pair in the quick configuration and on MESI&RCC-O in the full one: a
// self-contained load from the marshaled bytes must reproduce the
// compiled table state by state and record by record, a byte-identical
// FlatFSM dump, the same stability verdicts and projected PCC protocol,
// the same content digest, and a byte-identical re-marshal (the encoding
// is deterministic). The artifact stores none of these — only each
// state's delivered messages — so this pins the load's replay against the
// extraction it stands for.
func TestArtifactRoundTripAllPairs(t *testing.T) {
	type tcase struct {
		pair [2]string
		cfg  CompileConfig
	}
	var cases []tcase
	for _, pair := range TableIIPairs() {
		cases = append(cases, tcase{pair, TableIICompileConfig(true, 0)})
	}
	cases = append(cases, tcase{[2]string{protocols.NameMESI, protocols.NameRCCO}, TableIICompileConfig(false, 0)})
	for _, tc := range cases {
		f := fusePair(t, tc.pair[0], tc.pair[1])
		cf, err := Compile(f, tc.cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", f.Name(), err)
		}
		name := fmt.Sprintf("%s (evictions=%t)", f.Name(), tc.cfg.Evictions)
		data := cf.MarshalArtifact()
		lcf, err := LoadArtifact(data)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if lcf.Explored() != cf.Explored() {
			t.Errorf("%s: loaded table explored %d, compiled %d", name, lcf.Explored(), cf.Explored())
		}
		requireSameTable(t, name, cf, lcf)
		if lcf.Fusion().Name() != f.Name() {
			t.Errorf("%s: re-fused name %q", name, lcf.Fusion().Name())
		}
		if got, want := lcf.FlatFSM().Format(), cf.FlatFSM().Format(); got != want {
			t.Errorf("%s: FlatFSM dump differs across the round trip", name)
		}
		if !maps.Equal(lcf.stable, cf.stable) {
			t.Errorf("%s: stability map differs across the round trip", name)
		}
		if got, want := exportProtocol(t, lcf), exportProtocol(t, cf); got != want {
			t.Errorf("%s: projected PCC protocol differs across the round trip", name)
		}
		if lcf.Digest() != cf.Digest() {
			t.Errorf("%s: digest differs across the round trip", name)
		}
		if again := lcf.MarshalArtifact(); !bytes.Equal(again, data) {
			t.Errorf("%s: re-marshal of the loaded table is not byte-identical (%d vs %d bytes)",
				name, len(again), len(data))
		}
		if src := lcf.Stats().Source; src != SourceArtifact {
			t.Errorf("%s: loaded table reports source %q", name, src)
		}
	}
}

// requireSameTable fails unless the two tables hold the same states in the
// same order — image, memory and POR references — and, state by state, the
// same records in the same order: message, successor and sends.
func requireSameTable(t *testing.T, name string, want, got *CompiledFusion) {
	t.Helper()
	if got.DirStates() != want.DirStates() || got.Transitions() != want.Transitions() {
		t.Fatalf("%s: %d states and %d records, want %d and %d",
			name, got.DirStates(), got.Transitions(), want.DirStates(), want.Transitions())
	}
	for s, ws := range want.states {
		gs := got.states[s]
		if !bytes.Equal(gs.Img, ws.Img) || !bytes.Equal(gs.Mem, ws.Mem) || gs.Refs != ws.Refs {
			t.Fatalf("%s: state %d differs (image, memory or POR references)", name, s)
		}
		if len(got.spans[s]) != len(want.spans[s]) {
			t.Fatalf("%s: state %d has %d records, want %d", name, s, len(got.spans[s]), len(want.spans[s]))
		}
		for i, wi := range want.spans[s] {
			w, g := &want.recs[wi], &got.recs[got.spans[s][i]]
			if g.msg != w.msg || g.tr.next != w.tr.next || !slices.Equal(g.tr.sends, w.tr.sends) {
				t.Fatalf("%s: state %d record %d is %s -> %d (sends %v), want %s -> %d (sends %v)",
					name, s, i, g.msg, g.tr.next, g.tr.sends, w.msg, w.tr.next, w.tr.sends)
			}
		}
	}
}

// exportProtocol renders cf's projected flat protocol as PCC text.
func exportProtocol(t *testing.T, cf *CompiledFusion) string {
	t.Helper()
	p, err := cf.Protocol()
	if err != nil {
		t.Fatalf("%s: %v", cf.Fusion().Name(), err)
	}
	return spec.ExportPCC(p)
}

// doctor parses a valid artifact, lets edit change its content and
// marshals the result, sealed: a well-formed artifact whose content is
// whatever edit made it.
func doctor(t testing.TB, data []byte, edit func(p *artifactParts)) []byte {
	t.Helper()
	p, err := parseArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	var protos []*spec.Protocol
	for _, text := range p.pccTexts {
		proto, err := spec.ParsePCC(text)
		if err != nil {
			t.Fatal(err)
		}
		protos = append(protos, proto)
	}
	f, err := Fuse(p.opts, protos...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.decodeTable(f.vocab); err != nil {
		t.Fatal(err)
	}
	lists := make([][]uint32, len(p.lists))
	for k, list := range p.lists {
		lists[k] = slices.Clone(list)
	}
	p.lists = lists
	edit(p)
	return p.marshal()
}

// lastMsg returns the pool id of p's greatest message in the list order:
// wherever a list delivers it, it comes last, so an edit that keeps it the
// greatest keeps every list sorted.
func lastMsg(p *artifactParts) int {
	last := 0
	for i := range p.msgs {
		if msgCmp(&p.msgs[i], &p.msgs[last], p.vocab) > 0 {
			last = i
		}
	}
	return last
}

// TestArtifactMismatchErrors pins the structured load-time failures: a
// digest mismatch against the requested search, a foreign format, an
// unsupported version, corrupted or truncated bytes, and well-formed
// artifacts whose lists or messages the replay cannot stand behind all
// fail with the matching sentinel error — never a panic inside the replay
// or a later Deliver. A sealed artifact that is not in the form
// MarshalArtifact writes is refused rather than loaded to a table that
// re-marshals differently.
func TestArtifactMismatchErrors(t *testing.T) {
	f, cfg, cf := quickArtifactFusion(t)
	data := cf.MarshalArtifact()

	t.Run("foreign config digest", func(t *testing.T) {
		foreign := cfg
		foreign.Programs = [][]spec.CoreReq{
			{{Op: spec.OpStore, Addr: 1, Value: 9}},
			{{Op: spec.OpStore, Addr: 1, Value: 8}},
		}
		if _, err := LoadArtifactFor(data, f, foreign); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("foreign programs: got %v, want ErrArtifactMismatch", err)
		}
	})
	t.Run("foreign fusion digest", func(t *testing.T) {
		g, err := Fuse(Options{}, protocols.MustByName(protocols.NameRCC), protocols.MustByName(protocols.NameRCC))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifactFor(data, g, cfg); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("foreign fusion: got %v, want ErrArtifactMismatch", err)
		}
	})
	t.Run("matching digest loads", func(t *testing.T) {
		if _, err := LoadArtifactFor(data, f, cfg); err != nil {
			t.Errorf("matching load failed: %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactFormat) {
			t.Errorf("bad magic: got %v, want ErrArtifactFormat", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		for _, v := range []byte{ArtifactVersion - 1, ArtifactVersion + 1} {
			bad := append([]byte(nil), data...)
			bad[4] = v
			if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactVersion) {
				t.Errorf("version %d: got %v, want ErrArtifactVersion", v, err)
			}
		}
	})
	t.Run("tampered digest", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] ^= 0xff
		if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("tampered digest: got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{artifactHeaderLen + 3, len(data) / 2, len(data) - 1} {
			if _, err := LoadArtifact(data[:n]); !errors.Is(err, ErrArtifactCorrupt) {
				t.Errorf("truncated to %d bytes: got %v, want ErrArtifactCorrupt", n, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := LoadArtifact(append(append([]byte(nil), data...), 0xaa)); !errors.Is(err, ErrArtifactCorrupt) {
			t.Error("trailing byte accepted")
		}
	})
	t.Run("body bit flip", func(t *testing.T) {
		for _, i := range []int{artifactHeaderLen, (artifactHeaderLen + len(data)) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x10
			if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
				t.Errorf("bit flip at byte %d: got %v, want ErrArtifactCorrupt", i, err)
			}
		}
	})
	t.Run("non_minimal_message", func(t *testing.T) {
		// The first pooled message's type length rewritten as a two-byte
		// varint, its last character dropped to keep the length: the image
		// decodes, but does not re-encode to itself.
		m := cf.recs[cf.spans[0][0]].msg
		v := cf.fusion.Vocab()
		img := v.AppendMsg(nil, &m)
		name := v.Name(m.Type)
		at := bytes.LastIndex(data, img)
		if n := len(name); at < 0 || n < 2 || n > 128 {
			t.Fatalf("message %s image not found in the pool", v.Format(m))
		}
		bad := append([]byte(nil), data...)
		bad[at], bad[at+1] = 0x80|byte(len(name)-1), 0
		copy(bad[at+2:], name[:len(name)-1])
		sealArtifact(bad)
		if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("non-minimal message image: got %v, want ErrArtifactCorrupt", err)
		}
	})
	// refused reports whether the sealed artifact bad is refused with the
	// sentinel want.
	refused := func(t *testing.T, bad []byte, want error) {
		t.Helper()
		if _, err := LoadArtifact(bad); !errors.Is(err, want) {
			t.Errorf("got %v, want %v", err, want)
		}
	}
	t.Run("duplicate_message", func(t *testing.T) {
		// A pool that holds a message twice would re-marshal differently.
		refused(t, doctor(t, data, func(p *artifactParts) { p.msgs[1] = p.msgs[0] }), ErrArtifactCorrupt)
	})
	t.Run("message_order", func(t *testing.T) {
		// Each of state 0's message ids rewritten to every pooled id: a
		// list that uses a message before an earlier-pooled one, or out of
		// message order, would re-marshal differently.
		pooled := len(cf.artifactParts().msgs)
		for i := range cf.spans[0] {
			for id := range pooled {
				bad := doctor(t, data, func(p *artifactParts) { p.lists[0][i] = uint32(id) })
				if lcf, err := LoadArtifact(bad); err == nil && !bytes.Equal(lcf.MarshalArtifact(), bad) {
					t.Errorf("state 0 message %d rewritten to pool id %d loads and re-marshals differently", i, id)
				}
			}
		}
	})
	t.Run("non_canonical_pcc", func(t *testing.T) {
		// A space of the first embedded protocol's text turned into a tab:
		// the text parses to the same protocol, so the digest still holds.
		text := []byte(spec.ExportPCC(f.Protocols[0]))
		at := bytes.Index(data, text) + bytes.IndexByte(text, ' ')
		bad := append([]byte(nil), data...)
		bad[at] = '\t'
		sealArtifact(bad)
		if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("tab in the embedded PCC text: got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("zero states", func(t *testing.T) {
		refused(t, doctor(t, data, func(p *artifactParts) { p.msgs, p.lists = nil, nil }), ErrArtifactCorrupt)
	})
	t.Run("open_table", func(t *testing.T) {
		// Without the last list the replay reaches a state it has no list
		// for.
		refused(t, doctor(t, data, func(p *artifactParts) { p.lists = p.lists[:len(p.lists)-1] }), ErrArtifactCorrupt)
	})
	t.Run("unreached_list", func(t *testing.T) {
		// An extra list stands for a state the replay never reaches.
		refused(t, doctor(t, data, func(p *artifactParts) { p.lists = append(p.lists, p.lists[0]) }), ErrArtifactCorrupt)
	})
	t.Run("foreign_address", func(t *testing.T) {
		// The greatest message moved to address 2^40, which no program
		// names. Delivered, it would grow a directory's line table toward
		// that address; the load must refuse it first, cheaply.
		bad := doctor(t, data, func(p *artifactParts) { p.msgs[lastMsg(p)].Addr = 1 << 40 })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadArtifactFor(bad, f, cfg)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("message at address 2^40: got %v, want ErrArtifactMismatch", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("refusing a message at address 2^40 allocated %d bytes", grew)
		}
	})
	t.Run("program_address", func(t *testing.T) {
		// A program request and the greatest pooled message moved to an
		// address outside [0, spec.MaxDecodeAddr), the digest recomputed:
		// the message passes the named-address check, and only the bound
		// keeps its delivery from panicking in DirInst.slot.
		for _, a := range []spec.Addr{1 << 20, -1} {
			refused(t, doctor(t, data, func(p *artifactParts) {
				p.cfg.Programs[0][0].Addr = a
				p.msgs[lastMsg(p)].Addr = a
				p.digest = compileDigestRaw(f, p.cfg)
			}), ErrArtifactCorrupt)
		}
	})
	t.Run("program_op", func(t *testing.T) {
		// A program request whose operation is no core operation, the
		// digest recomputed: the replay would drive a core through it, and
		// a search of the loaded table reported a deadlock.
		for _, op := range []spec.CoreOp{spec.CoreNone, 99} {
			refused(t, doctor(t, data, func(p *artifactParts) {
				p.cfg.Programs[0][0].Op = op
				p.digest = compileDigestRaw(f, p.cfg)
			}), ErrArtifactCorrupt)
		}
	})
	t.Run("cache_counts", func(t *testing.T) {
		// Cache counts BuildSystem cannot build, the digest recomputed: a
		// negative count, more node ids than a NodeSet holds, and a count
		// for a cluster the fusion lacks.
		for _, caches := range [][]int{{-1, 1}, {1, spec.MaxNodes}, {1, 1, 1}} {
			refused(t, doctor(t, data, func(p *artifactParts) {
				p.cfg.CachesPerCluster = caches
				p.digest = compileDigestRaw(f, p.cfg)
			}), ErrArtifactCorrupt)
		}
	})
	t.Run("unrouted_message", func(t *testing.T) {
		// The greatest message sent from, or to, node 999: the rebuilt
		// system has no such node.
		for _, edit := range []func(m *spec.Msg){
			func(m *spec.Msg) { m.Src = 999 },
			func(m *spec.Msg) { m.Dst = 999 },
		} {
			refused(t, doctor(t, data, func(p *artifactParts) { edit(&p.msgs[lastMsg(p)]) }), ErrArtifactMismatch)
		}
	})
}

// msiRCCArtifactBytes is the measured size of the MSI&RCC artifact in the
// quick Table II configuration.
const msiRCCArtifactBytes = 4126

// TestArtifactFileAndCache pins the file layer and the content-addressed
// cache: WriteArtifact round-trips through disk within the size guard,
// CompileOrLoad compiles and populates the cache on a miss, then loads on
// a hit (reporting Source "cache"), and a corrupt or format-5 cache entry
// is silently recompiled over.
func TestArtifactFileAndCache(t *testing.T) {
	f, cfg, cf := quickArtifactFusion(t)
	dir := t.TempDir()

	path := filepath.Join(dir, "table"+ArtifactExt)
	if err := cf.WriteArtifact(path); err != nil {
		t.Fatal(err)
	}
	// The size guard: this is the artifact `heterogen -pair MSI,RCC
	// -compile-out` writes, measured at 4,126 bytes; CI bounds that file
	// the same way.
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() > msiRCCArtifactBytes*11/10 {
		t.Errorf("MSI&RCC artifact is %d bytes, over %d + 10%%", fi.Size(), msiRCCArtifactBytes)
	}
	lcf, err := LoadArtifactFileFor(path, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lcf.DirStates() != cf.DirStates() {
		t.Errorf("file round trip: %d states vs %d", lcf.DirStates(), cf.DirStates())
	}
	if _, err := LoadArtifactFile(path); err != nil {
		t.Errorf("self-contained file load: %v", err)
	}

	cacheDir := filepath.Join(dir, "cache")
	ccf, cached, err := CompileOrLoad(f, cfg, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first CompileOrLoad reported a cache hit")
	}
	entry := filepath.Join(cacheDir, CompileDigest(f, cfg)+ArtifactExt)
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	ccf2, cached2, err := CompileOrLoad(f, cfg, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Error("second CompileOrLoad missed the cache")
	}
	if ccf2.Stats().Source != "cache" {
		t.Errorf("cache hit reports source %q", ccf2.Stats().Source)
	}
	if ccf2.DirStates() != ccf.DirStates() || ccf2.Transitions() != ccf.Transitions() {
		t.Errorf("cache hit table differs: %d/%d vs %d/%d",
			ccf2.DirStates(), ccf2.Transitions(), ccf.DirStates(), ccf.Transitions())
	}

	// A corrupt entry and an entry from an older format version are both
	// recompiled over, and the entry is rewritten in the current format.
	old := cf.MarshalArtifact()
	old[4] = 5 // a format-5 header
	for name, content := range map[string][]byte{"corrupt": []byte("garbage"), "old-version": old} {
		if err := os.WriteFile(entry, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, cached3, err := CompileOrLoad(f, cfg, cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		if cached3 {
			t.Errorf("%s cache entry reported as a hit", name)
		}
		if _, err := LoadArtifactFileFor(entry, f, cfg); err != nil {
			t.Errorf("%s cache entry not rewritten: %v", name, err)
		}
	}
}

// TestArtifactSnapshotEncoding pins that a loaded table's System() is the
// interpreted composite its seed was extracted from: the interpreted
// system and a system over the loaded artifact, walked in the same move
// order, must offer the same moves and render byte-identical Snapshot
// strings at every reachable state.
func TestArtifactSnapshotEncoding(t *testing.T) {
	f, cfg, cf := quickArtifactFusion(t)
	lcf, err := LoadArtifactFor(cf.MarshalArtifact(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isys, _ := BuildSystem(f, cfg.CachesPerCluster)
	isys.SetPrograms(cfg.Programs)
	lsys := lcf.System()
	if is, ls := isys.Snapshot(), lsys.Snapshot(); is != ls {
		t.Fatalf("initial snapshots differ:\ninterpreted %q\nloaded      %q", is, ls)
	}
	type pair struct{ i, l *mcheck.System }
	seen := map[string]bool{isys.Snapshot(): true}
	queue := []pair{{isys, lsys}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		moves := cur.i.Moves(cfg.Evictions)
		if lm := cur.l.Moves(cfg.Evictions); len(lm) != len(moves) {
			t.Fatalf("at %q: %d interpreted moves vs %d loaded", cur.i.Snapshot(), len(moves), len(lm))
		}
		for _, mv := range moves {
			ni, nl := cur.i.Clone(), cur.l.Clone()
			iok, lok := ni.Apply(mv), nl.Apply(mv)
			if iok != lok {
				t.Fatalf("move %v from %q: interpreted applied=%t, loaded applied=%t", mv, cur.i.Snapshot(), iok, lok)
			}
			if !iok {
				continue
			}
			is, ls := ni.Snapshot(), nl.Snapshot()
			if is != ls {
				t.Fatalf("move %v: snapshots differ:\ninterpreted %q\nloaded      %q", mv, is, ls)
			}
			if !seen[is] {
				seen[is] = true
				queue = append(queue, pair{ni, nl})
			}
		}
	}
	if len(seen) < 10 {
		t.Fatalf("walk visited only %d states", len(seen))
	}
}

// FuzzArtifactCodec hammers the loader with mutated artifact bytes: it
// must return structured errors, never panic or hang, and any accepted
// input must re-marshal byte-identically (the load's own last check, so
// this pins that the rule is kept). Each input's body checksum is
// re-sealed first, so mutations reach the parser instead of stopping at
// the checksum.
func FuzzArtifactCodec(f *testing.F) {
	fz, err := Fuse(Options{}, protocols.MustByName(protocols.NameMSI), protocols.MustByName(protocols.NameRCC))
	if err != nil {
		f.Fatal(err)
	}
	progs := [][]spec.CoreReq{
		{{Op: spec.OpLoad, Addr: 0}},
		{{Op: spec.OpLoad, Addr: 0}},
	}
	cf, err := Compile(fz, CompileConfig{CachesPerCluster: []int{1, 1}, Programs: progs})
	if err != nil {
		f.Fatal(err)
	}
	valid := cf.MarshalArtifact()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:artifactHeaderLen])
	f.Add([]byte(ArtifactMagic))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	for i := artifactHeaderLen; i < len(mutated); i += 97 {
		mutated[i] ^= 0x5a
	}
	f.Add(mutated)
	// Well-formed artifacts with doctored lists: one list short (the
	// replay reaches a state without a list), one list's last message
	// dropped, and one message id rewritten to another pooled message.
	f.Add(doctor(f, valid, func(p *artifactParts) { p.lists = p.lists[:len(p.lists)-1] }))
	f.Add(doctor(f, valid, func(p *artifactParts) {
		k := len(p.lists) / 2
		p.lists[k] = p.lists[k][:max(0, len(p.lists[k])-1)]
	}))
	f.Add(doctor(f, valid, func(p *artifactParts) {
		list := p.lists[len(p.lists)-1]
		if len(list) > 0 {
			list[len(list)-1] = uint32(len(p.msgs) - 1)
		}
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= artifactHeaderLen {
			data = append([]byte(nil), data...)
			sealArtifact(data)
		}
		lcf, err := LoadArtifact(data)
		if err != nil {
			return
		}
		if again := lcf.MarshalArtifact(); !bytes.Equal(again, data) {
			t.Errorf("accepted %d-byte input re-marshals to %d different bytes", len(data), len(again))
		}
	})
}
