package memmodel

import (
	"fmt"
	"strings"
)

// ID names one of the supported multi-copy-atomic memory models. These are
// the per-cluster consistency models of Table I.
type ID string

// The supported per-cluster models. HeteroGen's formalism (§V) is limited to
// non-scoped multi-copy-atomic models; all four qualify.
const (
	SC  ID = "SC"  // sequential consistency
	TSO ID = "TSO" // total store order (x86-like)
	RC  ID = "RC"  // release consistency (multi-copy atomic)
	PLO ID = "PLO" // partial load order: preserves W→W and R→W only
)

// Model is a multi-copy-atomic memory model expressed through its
// preserved-program-order relation, following §V: an execution conforms to
// the model iff acyclic(ppo ∪ rfe ∪ fr ∪ ws).
type Model interface {
	// ID returns the model's name.
	ID() ID
	// Preserved reports whether program order is preserved between the
	// memory operations at positions i < j of the given thread. The whole
	// thread is provided so intervening fences can be considered.
	Preserved(thread []*Op, i, j int) bool
	// MultiCopyAtomic reports whether stores propagate atomically. All
	// built-in models return true; the field exists so fusion can reject
	// unsupported inputs with a typed error.
	MultiCopyAtomic() bool
	// Scoped reports whether the model uses scopes (always false here).
	Scoped() bool
}

// fenceBetween reports whether a full fence separates positions i and j.
func fenceBetween(thread []*Op, i, j int) bool {
	for k := i + 1; k < j; k++ {
		if thread[k].Kind == Fence {
			return true
		}
	}
	return false
}

type scModel struct{}

func (scModel) ID() ID                { return SC }
func (scModel) MultiCopyAtomic() bool { return true }
func (scModel) Scoped() bool          { return false }

// Preserved: SC preserves all of program order (ppo ≡ po).
func (scModel) Preserved(thread []*Op, i, j int) bool {
	return thread[i].IsMem() && thread[j].IsMem()
}

type tsoModel struct{}

func (tsoModel) ID() ID                { return TSO }
func (tsoModel) MultiCopyAtomic() bool { return true }
func (tsoModel) Scoped() bool          { return false }

// Preserved: TSO preserves po minus St→Ld; a FENCE restores St→Ld.
func (tsoModel) Preserved(thread []*Op, i, j int) bool {
	a, b := thread[i], thread[j]
	if !a.IsMem() || !b.IsMem() {
		return false
	}
	if a.Kind == Store && b.Kind == Load {
		return fenceBetween(thread, i, j)
	}
	return true
}

type rcModel struct{}

func (rcModel) ID() ID                { return RC }
func (rcModel) MultiCopyAtomic() bool { return true }
func (rcModel) Scoped() bool          { return false }

// Preserved: release consistency orders an acquire before all later
// operations, all earlier operations before a release, and anything across a
// full fence. Plain accesses are otherwise unordered.
func (rcModel) Preserved(thread []*Op, i, j int) bool {
	a, b := thread[i], thread[j]
	if !a.IsMem() || !b.IsMem() {
		return false
	}
	if a.Ord == Acquire {
		return true
	}
	if b.Ord == Release {
		return true
	}
	// An intervening release followed (transitively) by an acquire on the
	// same thread also orders, but that composition is already captured by
	// the two rules above through transitivity of the acyclicity check.
	return fenceBetween(thread, i, j)
}

type ploModel struct{}

func (ploModel) ID() ID                { return PLO }
func (ploModel) MultiCopyAtomic() bool { return true }
func (ploModel) Scoped() bool          { return false }

// Preserved: partial load order (ArMOR's PLO, used by PLO-CC) preserves
// W→W and R→W but neither R→R nor W→R; a FENCE restores everything.
func (ploModel) Preserved(thread []*Op, i, j int) bool {
	a, b := thread[i], thread[j]
	if !a.IsMem() || !b.IsMem() {
		return false
	}
	if b.Kind == Store {
		return true
	}
	return fenceBetween(thread, i, j)
}

// ByID returns the built-in model with the given ID.
func ByID(id ID) (Model, error) {
	switch id {
	case SC:
		return scModel{}, nil
	case TSO:
		return tsoModel{}, nil
	case RC:
		return rcModel{}, nil
	case PLO:
		return ploModel{}, nil
	}
	return nil, fmt.Errorf("memmodel: unknown model %q", id)
}

// MustByID is ByID for statically known IDs; it panics on error.
func MustByID(id ID) Model {
	m, err := ByID(id)
	if err != nil {
		panic(err)
	}
	return m
}

// Compound is the compound consistency model of §V-B: a heterogeneous
// machine with n clusters where each thread obeys the model of the cluster
// it is mapped to. ppocom(t) ≡ ppo of Models[Assign[t]].
type Compound struct {
	// Clusters holds the per-cluster models, indexed by cluster id.
	Clusters []Model
	// Assign maps each thread id to a cluster id.
	Assign []int
}

// NewCompound builds a compound model. assign[t] selects the cluster of
// thread t; every entry must index into clusters.
func NewCompound(clusters []Model, assign []int) (*Compound, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("memmodel: compound model needs at least one cluster")
	}
	for t, c := range assign {
		if c < 0 || c >= len(clusters) {
			return nil, fmt.Errorf("memmodel: thread %d assigned to invalid cluster %d", t, c)
		}
	}
	for i, m := range clusters {
		if !m.MultiCopyAtomic() {
			return nil, fmt.Errorf("memmodel: cluster %d model %s is not multi-copy atomic", i, m.ID())
		}
		if m.Scoped() {
			return nil, fmt.Errorf("memmodel: cluster %d model %s is scoped", i, m.ID())
		}
	}
	return &Compound{Clusters: clusters, Assign: assign}, nil
}

// ID renders the compound model's name, e.g. "SCxTSO".
func (c *Compound) ID() ID {
	parts := make([]string, len(c.Clusters))
	for i, m := range c.Clusters {
		parts[i] = string(m.ID())
	}
	return ID(strings.Join(parts, "x"))
}

// MultiCopyAtomic reports whether all constituent models are (always true
// for compounds constructed via NewCompound).
func (c *Compound) MultiCopyAtomic() bool {
	for _, m := range c.Clusters {
		if !m.MultiCopyAtomic() {
			return false
		}
	}
	return true
}

// Scoped always reports false for valid compounds.
func (c *Compound) Scoped() bool { return false }

// ModelOf returns the model governing the given thread.
func (c *Compound) ModelOf(thread int) Model {
	if thread < len(c.Assign) {
		return c.Clusters[c.Assign[thread]]
	}
	// Threads beyond the assignment default to cluster 0; litmus drivers
	// always provide full assignments, so this is a permissive fallback.
	return c.Clusters[0]
}

// Preserved implements Model by dispatching on the thread's cluster:
// ppocom(t) ≡ ppo_{M_i} for t ∈ T_i (§V-B).
func (c *Compound) Preserved(thread []*Op, i, j int) bool {
	if len(thread) == 0 {
		return false
	}
	return c.ModelOf(thread[i].Thread).Preserved(thread, i, j)
}

var _ Model = (*Compound)(nil)

// Homogeneous returns a compound with a single cluster, useful for running
// the heterogeneous machinery on homogeneous inputs.
func Homogeneous(m Model, threads int) *Compound {
	assign := make([]int, threads)
	return &Compound{Clusters: []Model{m}, Assign: assign}
}

// AllIDs lists the built-in model IDs in canonical order.
func AllIDs() []ID { return []ID{SC, TSO, RC, PLO} }

// StrongerOrEqual reports whether model a preserves every ordering that
// model b preserves for plain two-op sequences (used by ArMOR-style
// translation and litmus fence reduction). It compares the four base
// ordering pairs R→R, R→W, W→R, W→W on plain accesses.
func StrongerOrEqual(a, b Model) bool {
	pairs := [][2]*Op{
		{Ld("x"), Ld("y")},
		{Ld("x"), St("y", 1)},
		{St("x", 1), Ld("y")},
		{St("x", 1), St("y", 1)},
	}
	for _, p := range pairs {
		th := []*Op{p[0], p[1]}
		th[0].Index, th[1].Index = 0, 1
		if b.Preserved(th, 0, 1) && !a.Preserved(th, 0, 1) {
			return false
		}
	}
	return true
}

// OrderMatrix summarizes a model's plain-access ordering as a 2x2 matrix
// indexed by [first][second] with 0=Load 1=Store.
func OrderMatrix(m Model) [2][2]bool {
	var out [2][2]bool
	kinds := []Kind{Load, Store}
	for i, k1 := range kinds {
		for j, k2 := range kinds {
			a := &Op{Kind: k1, Addr: "x", Index: 0}
			b := &Op{Kind: k2, Addr: "y", Index: 1}
			out[i][j] = m.Preserved([]*Op{a, b}, 0, 1)
		}
	}
	return out
}
