package spec

// Partial-order-reduction metadata: the static independence analysis over
// protocol tables and the dynamic node-reference probe the model checker's
// ample-set selector builds on (see internal/mcheck/por.go for the selector
// and docs/MCHECK.md for the soundness argument).
//
// The reduction treats one cache X as an isolated agent when nothing else
// in the state can ever interact with it: no component's dynamic state
// references X, and no in-flight message outside X's own incoming channels
// carries X as sender or requestor. That isolation is only inductive —
// preserved along every non-X move — because the action vocabulary is
// *local*: a controller can address a message only to its static directory,
// to the triggering message's Src/Req, or to the registered line owner, and
// it can only record node ids drawn from the triggering message. The checks
// here verify that property per machine at Freeze() time; a machine using a
// hypothetical non-local action simply reports false and the model checker
// declines to reduce searches over it.

// NodeReferrer exposes the node ids a component's dynamic state currently
// references (directory sharer sets, registered owners, captured bridge
// requests, ...). A component that may later send a message to id n without
// being triggered by a message referencing n must include n.
type NodeReferrer interface {
	RefNodes() NodeSet
}

// Or returns the union of s and o.
func (s NodeSet) Or(o NodeSet) NodeSet {
	for i := range s {
		s[i] |= o[i]
	}
	return s
}

// computeSendLocality scans a machine's rows for the locality property the
// POR isolation probe relies on: every action is one of the known local
// kinds, and every send addresses the static directory, the triggering
// message's Src/Req, or the line's registered owner. Unknown action or
// destination kinds (added after this analysis was written) default to
// non-local, keeping the reduction conservative.
func computeSendLocality(rows []Transition) bool {
	for i := range rows {
		for _, a := range rows[i].Actions {
			switch a.Op {
			case ActSend:
				switch a.Dst {
				case ToDir, ToMsgSrc, ToMsgReq, ToOwner:
				default:
					return false
				}
			case ActInvSharers, ActAddSharer, ActRemoveSharer, ActClearSharers,
				ActOwnerToSharers, ActSetOwner, ActClearOwner, ActWriteMem,
				ActStoreValue, ActLoadMsgData, ActSetAcks, ActCoreDone:
			default:
				return false
			}
		}
	}
	return true
}

// SendLocality reports whether every row of the frozen machine passes the
// POR locality analysis (computed once by Protocol.Freeze).
func (m *Machine) SendLocality() bool { return m.sendLocal }

// InvalidatesSharers reports whether any row of the machine performs
// ActInvSharers — the only action that addresses messages to a line's
// sharer set. A directory whose (possibly fusion-rewritten) table never
// uses it can only ever message the triggering Src/Req or the registered
// owner, so mere sharer membership need not pin a cache out of POR
// isolation (the self-invalidation protocols of Table I track sharers
// for counting but never invalidate them).
func (m *Machine) InvalidatesSharers() bool { return m.invSharers }

// PORLocal reports whether both of the protocol's controllers pass the
// locality analysis — the precondition for ample-set reduction over
// components running this protocol.
func (p *Protocol) PORLocal() bool {
	p.Freeze()
	return p.Cache.SendLocality() && p.Dir.SendLocality()
}

// RefNodes implements NodeReferrer: a cache's dynamic state (lines, pending
// request, ack balances) holds no node references — every message it sends
// is addressed via its static directory id or the triggering message.
func (c *CacheInst) RefNodes() NodeSet { return NodeSet{} }

// PORLocal reports whether the cache's protocol passes the POR locality
// analysis.
func (c *CacheInst) PORLocal() bool { return c.proto.PORLocal() }

// RefNodes implements NodeReferrer: the union of every line's registered
// owner and — only when this directory's table can actually invalidate
// sharers (InvalidatesSharers) — its sharer sets. These are the ids the
// directory could later message without a triggering message naming them.
func (d *DirInst) RefNodes() NodeSet {
	var ns NodeSet
	inv := d.proto.Dir.InvalidatesSharers()
	for _, pg := range d.pages {
		for i := range pg {
			l := &pg[i]
			if l.State == NoState {
				continue
			}
			if inv {
				ns = ns.Or(l.Sharers)
			}
			if l.Owner != NoNode {
				ns.Add(l.Owner)
			}
		}
	}
	return ns
}

// PORLocal reports whether the directory's protocol passes the POR locality
// analysis.
func (d *DirInst) PORLocal() bool { return d.proto.PORLocal() }
