// Package protocols provides the seven homogeneous input protocols of
// HeteroGen's case studies (Table I):
//
//	SC:  MSI, MESI          — writer-initiated invalidation, SWMR
//	TSO: TSO-CC             — consistency-directed, stale shared reads
//	RC:  RCC, RCC-O, GPU    — self-invalidation / ownership / write-through
//	PLO: PLO-CC             — RCC-O without a release
//
// and two further SWMR protocols, MOESI and MESIF.
//
// Each protocol is written in the PCC-like description language of
// spec.ParsePCC, one file per protocol under pcc/, embedded in the
// binary: the same path a user's -spec file or a .hgcf artifact's
// constituents take. A file is the canonical spec.ExportPCC text of the
// protocol it defines, plus whole-line '#' comments that give sources and
// the reasons for individual rows. To add a protocol, write
// pcc/<lower-case name>.pcc in that form, declare its Name constant and
// list it in Names; TestPCCFilesAreCanonical checks all three.
package protocols

import (
	"embed"
	"fmt"
	"sync"

	"heterogen/internal/spec"
)

// Names of the built-in protocols.
const (
	NameMSI   = "MSI"
	NameMESI  = "MESI"
	NameTSOCC = "TSO-CC"
	NameRCC   = "RCC"
	NameRCCO  = "RCC-O"
	NameGPU   = "GPU"
	NamePLOCC = "PLO-CC"
	NameMOESI = "MOESI"
	NameMESIF = "MESIF"
)

// Message type names shared by several built-ins. Protocols that use the
// same flow reuse the same names; fusion namespaces them per cluster.
const (
	MsgGetS    spec.MsgType = "GetS"
	MsgGetM    spec.MsgType = "GetM"
	MsgGetV    spec.MsgType = "GetV"
	MsgPutS    spec.MsgType = "PutS"
	MsgPutM    spec.MsgType = "PutM"
	MsgPutAck  spec.MsgType = "PutAck"
	MsgFwdGetS spec.MsgType = "FwdGetS"
	MsgData    spec.MsgType = "Data"
)

//go:embed pcc/*.pcc
var files embed.FS

// templates parses every embedded file once per process, keyed by the
// parsed protocol name. The templates are never frozen or handed out:
// ByName clones them, so each caller gets an isolated copy (fusion
// rewrites tables in place on its clones).
var templates = sync.OnceValues(func() (map[string]*spec.Protocol, error) {
	entries, err := files.ReadDir("pcc")
	if err != nil {
		return nil, err
	}
	out := make(map[string]*spec.Protocol, len(entries))
	for _, e := range entries {
		src, err := files.ReadFile("pcc/" + e.Name())
		if err != nil {
			return nil, err
		}
		p, err := spec.ParsePCC(string(src))
		if err != nil {
			return nil, fmt.Errorf("protocols: %s: %w", e.Name(), err)
		}
		if _, dup := out[p.Name]; dup {
			return nil, fmt.Errorf("protocols: %s: protocol %s defined twice", e.Name(), p.Name)
		}
		out[p.Name] = p
	}
	return out, nil
})

// ByName returns a fresh instance of the named protocol.
func ByName(name string) (*spec.Protocol, error) {
	ts, err := templates()
	if err != nil {
		return nil, err
	}
	p, ok := ts[name]
	if !ok {
		return nil, fmt.Errorf("protocols: unknown protocol %q (have %v)", name, Names())
	}
	return p.Clone(), nil
}

// MustByName is ByName for statically known names.
func MustByName(name string) *spec.Protocol {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Names lists the built-in protocol names: the seven of Table I in
// canonical order, then extensions (MOESI, MESIF).
func Names() []string {
	return []string{NameMSI, NameMESI, NameTSOCC, NameRCC, NameRCCO, NameGPU, NamePLOCC, NameMOESI, NameMESIF}
}

// TableINames lists exactly the seven case-study protocols of Table I.
func TableINames() []string {
	return []string{NameMSI, NameMESI, NameTSOCC, NameRCC, NameRCCO, NameGPU, NamePLOCC}
}

// All returns fresh instances of every built-in protocol.
func All() []*spec.Protocol {
	names := Names()
	out := make([]*spec.Protocol, len(names))
	for i, n := range names {
		out[i] = MustByName(n)
	}
	return out
}

// Describe renders a one-line summary of a protocol for Table I output.
func Describe(p *spec.Protocol) string {
	return fmt.Sprintf("%-7s model=%-3s cacheStates=%d dirStates=%d msgs=%d",
		p.Name, p.Model, len(p.Cache.States()), len(p.Dir.States()), len(p.Msgs))
}
