package core

import (
	"fmt"

	"heterogen/internal/mcheck"
	"heterogen/internal/spec"
)

// SystemLayout describes a concrete heterogeneous machine instantiated
// from a fusion: which cache endpoints belong to which cluster and the
// thread→cluster assignment (thread t drives cache t).
type SystemLayout struct {
	CacheIDs [][]spec.NodeID
	Assign   []int
	Merged   *MergedDir
}

// BuildSystem instantiates a model-checkable heterogeneous system:
// cachesPerCluster[i] caches of cluster i's protocol (with one core each),
// all served by one merged directory. Cache node ids are dense from 0 in
// cluster order, so core/thread t drives cache t.
func BuildSystem(f *Fusion, cachesPerCluster []int) (*mcheck.System, *SystemLayout) {
	layout := &SystemLayout{}
	var next spec.NodeID
	for _, n := range cachesPerCluster {
		ids := make([]spec.NodeID, n)
		for i := range ids {
			ids[i] = next
			next++
		}
		layout.CacheIDs = append(layout.CacheIDs, ids)
	}
	dl := f.DefaultLayout(next)
	merged := NewMergedDir(f, dl)
	layout.Merged = merged

	var comps []spec.Component
	var cores []*mcheck.Core
	for ci, ids := range layout.CacheIDs {
		for _, id := range ids {
			comps = append(comps, spec.NewCacheInst(id, dl.DirIDs[ci], f.Protocols[ci]))
			cores = append(cores, &mcheck.Core{Cache: id})
			layout.Assign = append(layout.Assign, ci)
		}
	}
	comps = append(comps, merged)
	sys := mcheck.NewSystem(comps, cores, merged.Memory())
	sys.SetEngine(EngineInterpreted)
	return sys, layout
}

// CheckCaches refuses a cache configuration BuildSystem cannot number:
// one count per cluster, none negative, and every node id — caches,
// directories and proxy pools — inside a spec.NodeSet (spec.MaxNodes).
func (f *Fusion) CheckCaches(cachesPerCluster []int) error {
	if len(cachesPerCluster) != len(f.Protocols) {
		return fmt.Errorf("core: %d cache counts for the %d clusters of %s", len(cachesPerCluster), len(f.Protocols), f.Name())
	}
	// Each term is clamped past the bound, so the sum cannot overflow.
	nodes := 0
	for _, n := range cachesPerCluster {
		if n < 0 {
			return fmt.Errorf("core: negative cache count %d", n)
		}
		nodes += min(n, spec.MaxNodes) + 1 + min(f.Opts.ProxyPool, spec.MaxNodes)
	}
	if nodes > spec.MaxNodes {
		return fmt.Errorf("core: %v caches per cluster need %d node ids with %s's directories and proxies, over the %d a system numbers",
			cachesPerCluster, nodes, f.Name(), spec.MaxNodes)
	}
	return nil
}
