package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
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
// pair: a self-contained load from the marshaled bytes must reproduce the
// table's counts, a byte-identical FlatFSM dump, the same per-state POR
// references, stability verdicts and projected PCC protocol, the same
// content digest, and a byte-identical re-marshal (the encoding is
// deterministic). The references and the projection are not stored, so
// this pins the load's derivation against the compile's.
func TestArtifactRoundTripAllPairs(t *testing.T) {
	for _, pair := range TableIIPairs() {
		f, err := Fuse(Options{}, protocols.MustByName(pair[0]), protocols.MustByName(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		cfg := CompileConfig{CachesPerCluster: []int{1, 1}, Programs: tableIIDriver()}
		cf, err := Compile(f, cfg)
		if err != nil {
			t.Fatalf("%s: compile: %v", f.Name(), err)
		}
		data := cf.MarshalArtifact()
		lcf, err := LoadArtifact(data)
		if err != nil {
			t.Fatalf("%s: load: %v", f.Name(), err)
		}
		if lcf.DirStates() != cf.DirStates() || lcf.Transitions() != cf.Transitions() || lcf.Explored() != cf.Explored() {
			t.Errorf("%s: loaded table %d/%d/%d vs compiled %d/%d/%d",
				f.Name(), lcf.DirStates(), lcf.Transitions(), lcf.Explored(),
				cf.DirStates(), cf.Transitions(), cf.Explored())
		}
		if lcf.Fusion().Name() != f.Name() {
			t.Errorf("%s: re-fused name %q", f.Name(), lcf.Fusion().Name())
		}
		if got, want := lcf.FlatFSM().Format(), cf.FlatFSM().Format(); got != want {
			t.Errorf("%s: FlatFSM dump differs across the round trip", f.Name())
		}
		for i := range cf.states {
			if i < len(lcf.states) && lcf.states[i].refs != cf.states[i].refs {
				t.Errorf("%s: state %d POR references differ across the round trip", f.Name(), i)
				break
			}
		}
		if !maps.Equal(lcf.stable, cf.stable) {
			t.Errorf("%s: stability map differs across the round trip", f.Name())
		}
		if got, want := exportProtocol(t, lcf), exportProtocol(t, cf); got != want {
			t.Errorf("%s: projected PCC protocol differs across the round trip", f.Name())
		}
		if lcf.Digest() != cf.Digest() {
			t.Errorf("%s: digest differs across the round trip", f.Name())
		}
		if again := lcf.MarshalArtifact(); !bytes.Equal(again, data) {
			t.Errorf("%s: re-marshal of the loaded table is not byte-identical (%d vs %d bytes)",
				f.Name(), len(again), len(data))
		}
		if src := lcf.Stats().Source; src != "artifact" {
			t.Errorf("%s: loaded table reports source %q", f.Name(), src)
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

// TestArtifactMismatchErrors pins the structured load-time failures: a
// digest mismatch against the requested search, a foreign format, an
// unsupported version, corrupted or truncated bytes, and well-formed
// tables that break the table's invariants all fail with the matching
// sentinel error — never an unknown-key panic inside a later Deliver. A
// sealed artifact that is not in the form MarshalArtifact writes is
// refused rather than loaded to a table that re-marshals differently.
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
		img := m.AppendBinary(nil)
		at := bytes.LastIndex(data, img)
		if n := len(m.Type); at < 0 || n < 2 || n > 128 {
			t.Fatalf("message %s image not found in the pool", m)
		}
		bad := append([]byte(nil), data...)
		bad[at], bad[at+1] = 0x80|byte(len(m.Type)-1), 0
		copy(bad[at+2:], m.Type[:len(m.Type)-1])
		sealArtifact(bad)
		if _, err := LoadArtifact(bad); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("non-minimal message image: got %v, want ErrArtifactCorrupt", err)
		}
	})
	// pool lists the message images in the order MarshalArtifact pools
	// them: first use, record by record, each record's message before its
	// sends.
	var pool [][]byte
	pooled := map[spec.Msg]bool{}
	cf.eachRecord(func(_ int32, r *compRecord) {
		for _, m := range append([]spec.Msg{r.msg}, r.tr.sends...) {
			if !pooled[m] {
				pooled[m] = true
				pool = append(pool, m.AppendBinary(nil))
			}
		}
	})
	// remarshals reports whether bad, once sealed, is refused or loads to
	// a table that re-marshals to it byte for byte.
	remarshals := func(bad []byte) bool {
		sealArtifact(bad)
		lcf, err := LoadArtifact(bad)
		return err != nil || bytes.Equal(lcf.MarshalArtifact(), bad)
	}
	t.Run("duplicate_message", func(t *testing.T) {
		// Every pooled message image overwritten by every other of the
		// same length; a pool holding a message twice would re-marshal
		// differently.
		for i, a := range pool {
			at := bytes.LastIndex(data, a)
			for j, b := range pool {
				if i == j || len(a) != len(b) {
					continue
				}
				bad := append([]byte(nil), data...)
				copy(bad[at:], b)
				if !remarshals(bad) {
					t.Errorf("pool message %d overwritten by %d loads and re-marshals differently", i, j)
				}
			}
		}
	})
	t.Run("message_order", func(t *testing.T) {
		// Each of state 0's record message ids rewritten to every pooled
		// id; a table that uses a message before an earlier-pooled one
		// would re-marshal differently. The table section follows the
		// pool: per state a record count, per record a message id,
		// successor, memory bit, send count and send ids.
		last := pool[len(pool)-1]
		at := bytes.LastIndex(data, last) + len(last) + 4
		for _, ri := range cf.spans[0] {
			for id := range pool {
				bad := append([]byte(nil), data...)
				binary.LittleEndian.PutUint32(bad[at:], uint32(id))
				if !remarshals(bad) {
					t.Errorf("record %d rewritten to message %d loads and re-marshals differently", ri, id)
				}
			}
			at += 13 + 4*len(cf.recs[ri].tr.sends)
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
	// The remaining cases are sealed artifacts whose table itself is
	// unsound, marshaled from a doctored copy of cf.
	doctored := func(states []*compState, recs []compRecord, spans [][]int32) []byte {
		return (&CompiledFusion{fusion: cf.fusion, cfg: cf.cfg, explored: cf.explored, stats: cf.stats,
			states: states, recs: recs, spans: spans}).MarshalArtifact()
	}
	t.Run("zero states", func(t *testing.T) {
		if _, err := LoadArtifact(doctored(nil, nil, nil)); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("zero-state artifact: got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("stall with effects", func(t *testing.T) {
		sends := -1
		for i := range cf.recs {
			if len(cf.recs[i].tr.sends) > 0 {
				sends = i
				break
			}
		}
		if sends < 0 {
			t.Fatal("table has no record that sends")
		}
		for _, tc := range []struct {
			name  string
			rec   int
			remem bool
		}{{"sends", sends, false}, {"memory bit", 0, true}} {
			recs := append([]compRecord(nil), cf.recs...)
			recs[tc.rec].tr.next = stallState
			recs[tc.rec].tr.remem = tc.remem
			if _, err := LoadArtifact(doctored(cf.states, recs, cf.spans)); !errors.Is(err, ErrArtifactCorrupt) {
				t.Errorf("stall with %s: got %v, want ErrArtifactCorrupt", tc.name, err)
			}
		}
	})
	t.Run("swapped_initial", func(t *testing.T) {
		// States 0 and 1 trade places, with spans and successors remapped:
		// a consistent table whose search would start elsewhere.
		swap := func(s int32) int32 {
			switch s {
			case 0:
				return 1
			case 1:
				return 0
			}
			return s
		}
		states := append([]*compState(nil), cf.states...)
		states[0], states[1] = states[1], states[0]
		spans := append([][]int32(nil), cf.spans...)
		spans[0], spans[1] = spans[1], spans[0]
		recs := append([]compRecord(nil), cf.recs...)
		for i := range recs {
			if recs[i].tr.next != stallState {
				recs[i].tr.next = swap(recs[i].tr.next)
			}
		}
		if _, err := LoadArtifact(doctored(states, recs, spans)); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("initial state swapped out: got %v, want ErrArtifactMismatch", err)
		}
	})
	t.Run("duplicate_state", func(t *testing.T) {
		// A copy of state 1 is appended and one record that reaches state
		// 1 is redirected to the copy.
		dup := int32(len(cf.states))
		states := append(append([]*compState(nil), cf.states...), cf.states[1])
		spans := append(append([][]int32(nil), cf.spans...), cf.spans[1])
		recs := append([]compRecord(nil), cf.recs...)
		redirected := false
		for i := range recs {
			if recs[i].tr.next == 1 {
				recs[i].tr.next = dup
				redirected = true
				break
			}
		}
		if !redirected {
			t.Fatal("no record reaches state 1")
		}
		if _, err := LoadArtifact(doctored(states, recs, spans)); !errors.Is(err, ErrArtifactCorrupt) {
			t.Errorf("duplicated state: got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("undecodable_memory", func(t *testing.T) {
		// A truncated memory image on a state whose image no neighbour
		// shares, so the canonical order still holds.
		states := append([]*compState(nil), cf.states...)
		for k := 1; k < len(states)-1; k++ {
			if !bytes.Equal(states[k].img, states[k-1].img) && !bytes.Equal(states[k].img, states[k+1].img) {
				states[k] = &compState{img: states[k].img, mem: []byte{5}}
				break
			}
		}
		if _, err := LoadArtifact(doctored(states, cf.recs, cf.spans)); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("truncated memory image: got %v, want ErrArtifactMismatch", err)
		}
	})
	t.Run("out_of_range_dir_address", func(t *testing.T) {
		// The last state's first directory line moved to an address far
		// past the decode bound. States ascend by image and the image
		// opens with the first directory's line count, so the last state
		// holds lines there, and a larger address keeps it the largest:
		// the canonical order holds and the directory decode refuses it.
		last := len(cf.states) - 1
		img := cf.states[last].img
		dec := spec.NewDec(img)
		dec.Int() // directory id
		if n := dec.Uvarint(); n == 0 || dec.Err() != nil {
			t.Fatalf("last state's first directory holds %d lines (%v)", n, dec.Err())
		}
		at := len(img) - dec.Len()
		dec.Int() // the first line's address
		rest := img[len(img)-dec.Len():]
		bad := append(spec.AppendInt(append([]byte(nil), img[:at]...), 1<<40), rest...)
		states := append([]*compState(nil), cf.states...)
		states[last] = &compState{img: bad, mem: cf.states[last].mem}
		_, err := LoadArtifact(doctored(states, cf.recs, cf.spans))
		if !errors.Is(err, ErrArtifactMismatch) && !errors.Is(err, ErrArtifactCorrupt) {
			t.Fatalf("directory line at address 2^40: got %v, want ErrArtifactMismatch or ErrArtifactCorrupt", err)
		}
		if !strings.Contains(err.Error(), "address") {
			t.Errorf("directory line at address 2^40 refused for another reason: %v", err)
		}
	})
	t.Run("unrouted_send", func(t *testing.T) {
		recs := append([]compRecord(nil), cf.recs...)
		for i := range recs {
			if len(recs[i].tr.sends) > 0 {
				sends := append([]spec.Msg(nil), recs[i].tr.sends...)
				sends[0].Dst = 999
				recs[i].tr.sends = sends
				break
			}
		}
		if _, err := LoadArtifact(doctored(cf.states, recs, cf.spans)); !errors.Is(err, ErrArtifactMismatch) {
			t.Errorf("send to node 999: got %v, want ErrArtifactMismatch", err)
		}
	})
}

// TestArtifactFileAndCache pins the file layer and the content-addressed
// cache: WriteArtifact round-trips through disk, CompileOrLoad compiles
// and populates the cache on a miss, then loads on a hit (reporting
// Source "cache"), and a corrupt cache entry is silently recompiled over.
func TestArtifactFileAndCache(t *testing.T) {
	f, cfg, cf := quickArtifactFusion(t)
	dir := t.TempDir()

	path := filepath.Join(dir, "table"+ArtifactExt)
	if err := cf.WriteArtifact(path); err != nil {
		t.Fatal(err)
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
	old[4] = ArtifactVersion - 1
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

// TestArtifactSnapshotEncoding pins the lazy snapshot reconstruction: the
// interpreted system and a system over the loaded artifact, walked in the
// same move order, must offer the same moves and render byte-identical
// Snapshot strings at every reachable state.
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
// must return structured errors, never panic, and any accepted input must
// re-marshal deterministically. Each input's body checksum is re-sealed
// first, so mutations reach the parser instead of stopping at the
// checksum.
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
