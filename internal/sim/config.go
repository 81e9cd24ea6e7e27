// Package sim is a discrete-event, cycle-approximate simulator for
// heterogeneous cache-coherent multicores — the stand-in for the gem5/HCC
// infrastructure of §VIII. It executes the very same protocol controllers
// and HeteroGen merged directory the model checker validates, over an
// 8×8 mesh NoC with XY routing, private L1s with capacity management, a
// banked shared L2/directory and per-column memory channels (Table III).
//
// Fidelity notes (see DESIGN.md): the NoC model is latency+serialization
// per ordered (src,dst,vnet) channel rather than flit-level router
// contention, and out-of-order "big" cores hide memory latency behind
// their instruction window instead of simulating a full LSQ. Both
// simplifications affect absolute cycle counts, not the relative protocol
// effects Figure 10 reports.
package sim

import "fmt"

// Config carries the Table III system parameters.
type Config struct {
	// MeshDim is the mesh side (8 → 8×8 = 64 tiles).
	MeshDim int
	// FlitBytes is the link width (16 B/flit).
	FlitBytes int
	// CtrlBytes and DataBytes size control and data messages (8 B header;
	// 64 B cache block + header).
	CtrlBytes int
	DataBytes int
	// ChannelLatency and RouterLatency are per-hop cycle costs.
	ChannelLatency int
	RouterLatency  int
	// L1Latency is the hit latency (1 cycle).
	L1Latency int
	// L2Latency is the bank access latency charged at the directory.
	L2Latency int
	// MemLatency is the DRAM access latency charged when the directory
	// reads or writes the backing store.
	MemLatency int
	// L2Banks is the number of shared L2 banks (one per mesh column).
	L2Banks int
	// BigCores and TinyCores partition the mesh tiles (4 + 60).
	BigCores  int
	TinyCores int
	// BigL1Lines and TinyL1Lines are the private-cache capacities in
	// blocks (64 KB and 4 KB of 64 B blocks).
	BigL1Lines  int
	TinyL1Lines int
	// BigWindow is the out-of-order latency-hiding window in cycles
	// (16-entry LSQ, 128-entry ROB).
	BigWindow int
	// ProxyPool is the per-cluster proxy-pool size at the merged directory
	// (the banked directory's bridging capacity).
	ProxyPool int
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
}

// TableIII returns the paper's simulated system parameters, adapted to the
// simulator's abstractions: the 8×8-mesh point of the TableIIIMesh family.
func TableIII() Config { return TableIIIMesh(8) }

// TableIIIMesh returns the Table III parameter family scaled to a
// dim×dim mesh: one big core per 16 tiles (minimum 2), the rest tiny, one
// L2 bank and memory channel per column, and a proxy pool of 2·dim per
// cluster. TableIIIMesh(8) is exactly TableIII; larger meshes (12, 16)
// widen the sweep beyond the paper's 64-core machine, smaller ones (4)
// give quick runs.
func TableIIIMesh(dim int) Config {
	if dim < 2 {
		dim = 2
	}
	tiles := dim * dim
	big := tiles / 16
	if big < 2 {
		big = 2
	}
	return Config{
		MeshDim:        dim,
		FlitBytes:      16,
		CtrlBytes:      8,
		DataBytes:      72,
		ChannelLatency: 1,
		RouterLatency:  1,
		L1Latency:      1,
		L2Latency:      8,
		MemLatency:     60,
		L2Banks:        dim,
		BigCores:       big,
		TinyCores:      tiles - big,
		BigL1Lines:     1024, // 64 KB / 64 B
		TinyL1Lines:    64,   // 4 KB / 64 B
		BigWindow:      48,
		ProxyPool:      2 * dim,
		MaxCycles:      1 << 40,
	}
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.BigCores + c.TinyCores }

// Flits returns the flit count of a message with or without data.
func (c Config) Flits(hasData bool) int {
	bytes := c.CtrlBytes
	if hasData {
		bytes = c.DataBytes
	}
	f := (bytes + c.FlitBytes - 1) / c.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// Format renders the configuration as the Table III parameter block.
func (c Config) Format() string {
	return fmt.Sprintf(`Simulated system parameters (Table III)
  Big cores    %d × out-of-order (latency-hiding window %d cycles), L1 %d blocks, 1-cycle hit
  Tiny cores   %d × in-order, L1 %d blocks, 1-cycle hit
  L2           shared, %d banks (one per mesh column), %d-cycle bank access
  Interconnect %d×%d mesh, XY routing, %dB/flit, %d-cycle channel, %d-cycle router
  Memory       %d-cycle access, one channel per mesh column`,
		c.BigCores, c.BigWindow, c.BigL1Lines,
		c.TinyCores, c.TinyL1Lines,
		c.L2Banks, c.L2Latency,
		c.MeshDim, c.MeshDim, c.FlitBytes, c.ChannelLatency, c.RouterLatency,
		c.MemLatency)
}
