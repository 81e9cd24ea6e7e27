package spec

import "strings"

// Env is the interface a component uses to interact with the interconnect.
// The model checker and simulator provide implementations that queue
// outgoing messages on ordered (src, dst, vnet) channels.
type Env interface {
	// Send enqueues a message for delivery.
	Send(m Msg)
}

// Component is a coherence controller endpoint executed by a host system
// (model checker or simulator). A component may own several NodeIDs — the
// merged directory owns its constituent directories and proxy caches.
type Component interface {
	// OwnedIDs lists the interconnect endpoints this component serves.
	OwnedIDs() []NodeID
	// Deliver hands the component a message addressed to one of its IDs.
	// It returns false to stall: the message stays at its channel head and
	// is retried after other activity.
	Deliver(env Env, m Msg) bool
	// Clone deep-copies the component (state-space search needs value
	// semantics).
	Clone() Component
	// Snapshot appends a canonical encoding of the component's state.
	Snapshot(b *SnapshotWriter)
	// StateCodec is Snapshot's compact, exact form: AppendBinary writes
	// the state image DecodeState reads back. The model checker numbers
	// a component's states by their images and materializes a numbered
	// state from its image.
	StateCodec
}

// Namer is implemented by components that can name the message types
// they exchange: the vocabulary their messages are numbered in. Hosts
// use it where names are printed (snapshots, traces, statistics).
type Namer interface {
	Vocab() *Vocab
}

// SnapshotWriter accumulates canonical state encodings for hashing.
type SnapshotWriter struct {
	strings.Builder
}

// CollectFn receives outgoing messages during a synchronous action burst.
type CollectFn func(Msg)

// collectEnv adapts a function to Env.
type collectEnv struct{ fn CollectFn }

func (c collectEnv) Send(m Msg) { c.fn(m) }

// EnvFunc wraps a send function as an Env.
func EnvFunc(fn CollectFn) Env { return collectEnv{fn} }
