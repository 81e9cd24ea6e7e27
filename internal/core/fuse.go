package core

import (
	"errors"
	"fmt"

	"heterogen/internal/armor"
	"heterogen/internal/memmodel"
	"heterogen/internal/spec"
)

// Typed fusion errors for the protocol classes HeteroGen cannot compose
// (§VI-E1) and the model classes the compound formalism excludes (§IV).
var (
	// ErrUpdateProtocol rejects update-based protocols: write permissions
	// are incompatible with propagating every write.
	ErrUpdateProtocol = errors.New("core: update-based protocols cannot be fused")
	// ErrLeaseProtocol rejects lease/timestamp protocols (Tardis, G-TSC,
	// Relativistic Coherence): read permissions are incompatible with
	// expiring leases.
	ErrLeaseProtocol = errors.New("core: lease-based protocols cannot be fused")
	// ErrTooFewClusters requires at least two input protocols.
	ErrTooFewClusters = errors.New("core: fusion needs at least two input protocols")
)

// HandshakeMode selects the handshaking variant (§VIII): HeteroGen's
// default eschews the redundant handshakes the manually-built HCC performs;
// variants reintroduce them on writes (the configuration that beats HCC by
// ~2%) or on both writes and reads (the HCC-like behavior).
type HandshakeMode int

const (
	// HSNone performs no handshakes (HeteroGen default).
	HSNone HandshakeMode = iota
	// HSWrites handshakes ownership transfers on writes only.
	HSWrites
	// HSAll handshakes writes and reads (HCC-like).
	HSAll
)

// String names the mode as the CLI flags spell it.
func (h HandshakeMode) String() string {
	switch h {
	case HSNone:
		return "none"
	case HSWrites:
		return "writes"
	case HSAll:
		return "all"
	}
	return fmt.Sprintf("HandshakeMode(%d)", int(h))
}

// Options configure a fusion.
type Options struct {
	// Handshake selects the §VIII handshaking variant.
	Handshake HandshakeMode
	// ProxyPool is the number of proxy cache instances per cluster. The
	// aggressive memory-centric design overlaps bridges to different
	// addresses across pool instances; the conservative design forces 1.
	ProxyPool int
	// ForceConservative selects the processor-centric design even when the
	// analysis would permit the aggressive one.
	ForceConservative bool
}

// Fusion is the synthesized composition: the validated inputs, their
// analyses, the chosen concurrency design and translation tables. Build
// instantiates executable merged directories from it.
type Fusion struct {
	Protocols []*spec.Protocol
	Analyses  []*Analysis
	// Conservative reports whether the processor-centric proxy design was
	// selected (§VI-D2): true iff any input acknowledges writes early.
	Conservative bool
	// StoreSeqs and LoadSeqs are the ArMOR-derived SC-equivalent access
	// sequences per cluster (§VI-C).
	StoreSeqs [][]spec.CoreOp
	LoadSeqs  [][]spec.CoreOp
	// Compound is the compound consistency model the output enforces.
	Compound []memmodel.Model
	Opts     Options

	// The runtime numbering: one vocabulary for every message the fused
	// system exchanges (the clusters' and the handshake's), under which
	// Protocols — clones of the inputs — are frozen; the analyses'
	// request classes as per-cluster rows by MsgID; the handshake types'
	// numbers.
	vocab        *spec.Vocab
	gvWrites     [][]bool
	readFills    [][]bool
	hsReq, hsAck spec.MsgID
}

// Fuse analyzes and composes the input protocols. Each input keeps its
// cache controllers unchanged; the result describes the merged directory.
func Fuse(opts Options, protos ...*spec.Protocol) (*Fusion, error) {
	if len(protos) < 2 {
		return nil, ErrTooFewClusters
	}
	f := &Fusion{Opts: opts}
	for i, p := range protos {
		switch p.Class {
		case spec.ClassUpdate:
			return nil, fmt.Errorf("%w: %s", ErrUpdateProtocol, p.Name)
		case spec.ClassLease:
			return nil, fmt.Errorf("%w: %s", ErrLeaseProtocol, p.Name)
		}
		m, err := memmodel.ByID(p.Model)
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d (%s): %w", i, p.Name, err)
		}
		if !m.MultiCopyAtomic() || m.Scoped() {
			return nil, fmt.Errorf("core: cluster %d (%s): model %s outside the compound formalism", i, p.Name, p.Model)
		}
		an, err := Analyze(p)
		if err != nil {
			return nil, err
		}
		if err := checkEvictable(p); err != nil {
			return nil, err
		}
		st, err := armor.ProxyStoreSeq(p.Model)
		if err != nil {
			return nil, err
		}
		if err := armor.VerifyStoreSeq(m, st); err != nil {
			return nil, err
		}
		ld, err := armor.ProxyLoadSeq(p.Model)
		if err != nil {
			return nil, err
		}
		if err := armor.VerifyLoadSeq(m, ld); err != nil {
			return nil, err
		}
		f.Protocols = append(f.Protocols, p)
		f.Analyses = append(f.Analyses, an)
		f.StoreSeqs = append(f.StoreSeqs, st)
		f.LoadSeqs = append(f.LoadSeqs, ld)
		f.Compound = append(f.Compound, m)
		if an.EarlyWriteAck {
			f.Conservative = true
		}
	}
	if err := f.number(); err != nil {
		return nil, err
	}
	if opts.ForceConservative {
		f.Conservative = true
	}
	if f.Conservative {
		f.Opts.ProxyPool = 1
	} else if f.Opts.ProxyPool <= 0 {
		f.Opts.ProxyPool = 2
	}
	return f, nil
}

// number builds the fusion's vocabulary and freezes a clone of each input
// protocol under it, so the inputs stay free to run (or fuse) elsewhere.
func (f *Fusion) number() error {
	names := []spec.MsgType{spec.EvLastAck, msgHSReq, msgHSAck}
	for _, p := range f.Protocols {
		names = append(names, p.MsgTypes()...)
	}
	var err error
	if f.vocab, err = spec.NewVocab(names); err != nil {
		return fmt.Errorf("core: fusion %s: %w", f.Name(), err)
	}
	f.hsReq, f.hsAck = f.vocab.ID(msgHSReq), f.vocab.ID(msgHSAck)
	row := func(set map[spec.MsgType]bool) []bool {
		out := make([]bool, f.vocab.Len())
		for t, ok := range set {
			if id := f.vocab.ID(t); ok && id != spec.NoMsg {
				out[id] = true
			}
		}
		return out
	}
	for i, p := range f.Protocols {
		cp := p.Clone()
		if err := cp.FreezeWith(f.vocab); err != nil {
			return err
		}
		f.Protocols[i] = cp
		f.gvWrites = append(f.gvWrites, row(f.Analyses[i].GVWrites))
		f.readFills = append(f.readFills, row(f.Analyses[i].ReadFills))
	}
	return nil
}

// Vocab returns the vocabulary the fused system's messages are numbered
// in.
func (f *Fusion) Vocab() *spec.Vocab { return f.vocab }

// IsHandshake reports whether t is one of the merged directory's
// handshake message types (§VIII variants).
func (f *Fusion) IsHandshake(t spec.MsgID) bool { return t == f.hsReq || t == f.hsAck }

// checkEvictable verifies every stable non-initial cache state can be
// evicted — the proxy cache relinquishes each line after bridging, so the
// protocol must provide a replacement path.
func checkEvictable(p *spec.Protocol) error {
	for _, s := range p.Cache.Stable {
		if s == p.Cache.Init {
			continue
		}
		if p.Cache.OnCoreOp(s, spec.OpEvict) == nil {
			return fmt.Errorf("core: protocol %s cache state %s has no eviction transition (proxy caches cannot relinquish it)", p.Name, s)
		}
	}
	return nil
}

// CompoundModel builds the compound consistency model for a thread→cluster
// assignment over this fusion.
func (f *Fusion) CompoundModel(assign []int) (*memmodel.Compound, error) {
	return memmodel.NewCompound(f.Compound, assign)
}

// Name renders the fusion's name, e.g. "MESI&RCC-O".
func (f *Fusion) Name() string {
	s := ""
	for i, p := range f.Protocols {
		if i > 0 {
			s += "&"
		}
		s += p.Name
	}
	return s
}

// Describe summarizes the fusion decisions for CLI output.
func (f *Fusion) Describe() string {
	design := "aggressive memory-centric"
	if f.Conservative {
		design = "conservative processor-centric"
	}
	s := fmt.Sprintf("fusion %s: design=%s handshake=%s proxyPool=%d\n",
		f.Name(), design, f.Opts.Handshake, f.Opts.ProxyPool)
	for i, an := range f.Analyses {
		s += fmt.Sprintf("  cluster%d %s (store-seq=%v load-seq=%v)\n", i, an.Summary(), f.StoreSeqs[i], f.LoadSeqs[i])
	}
	return s
}
