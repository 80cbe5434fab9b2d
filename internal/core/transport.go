package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/transport"
)

// Real inter-node transport glue.  When Config.Transport is set, the runtime
// runs only the ranks placed on its own node; every cross-node message —
// two-sided sends, the leader-tree collective traffic on collTag, and RMA
// frames on rmaTag — is encoded as a transport KindData frame and carried
// over the peer link's sequenced, acked, retransmitted stream.  Inbound
// frames land in the same remoteChannel mailboxes the in-process modeled
// network uses, so the receive paths (progressRemoteRecv, rmaProgress) are
// unchanged.
//
// The one shared-memory signal that cannot cross processes is the RMA
// applied watermark: with one address space the target's rmaProgress
// advances the origin's rmaFlow.applied directly.  Across processes the
// target instead ships a KindApplied frame carrying its cumulative applied
// count after each inbox drain, and the origin's replica takes the
// monotonic max.
//
// Every upcall that completes a rank's wait rings that rank's bell after
// publishing, which is what lets socket waits park instead of polling (see
// ssw.Waiter.WaitIdle).

// tpPeer caches, for one peer node, the mailboxes and RMA flows its frames
// have resolved, so a steady stream skips the shared sync.Maps (whose
// LoadOrStore allocates a fresh candidate on every call).  Only that peer's
// link touches it: the transport runs Deliver and Applied under the link's
// receive lock, with SrcNode fixed to the link's peer.
type tpPeer struct {
	remotes map[chanKey]*remoteChannel
	flows   map[chanKey]*rmaFlow
}

// tpRemote resolves the mailbox for key through the source node's cache.
func (rt *Runtime) tpRemote(src int, key chanKey) *remoteChannel {
	c := &rt.tpPeers[src]
	if rc, ok := c.remotes[key]; ok {
		return rc
	}
	v, _ := rt.remotes.LoadOrStore(key, &remoteChannel{})
	rc := v.(*remoteChannel)
	c.remotes[key] = rc
	return rc
}

// ring wakes a local rank parked on its bell.  Frame fields are
// wire-derived, so an out-of-range rank is ignored rather than trusted.
func (rt *Runtime) ring(rank int32) {
	if rank >= 0 && int(rank) < len(rt.bells) {
		rt.bells[rank].Ring()
	}
}

// tpDeliver is the transport's Deliver upcall: one KindData frame for a rank
// on this node.  It runs on the owning link's reader goroutine in link
// order; the frame's payload is only valid during the call, so the mailbox
// gets a copy (into a buffer an earlier receive recycled, in steady state).
// The destination rank's progress loops consume the mailbox exactly as they
// do on the modeled network; the ring wakes it if it is parked.
func (rt *Runtime) tpDeliver(f *transport.Frame) {
	key := chanKey{src: int(f.SrcRank), dst: int(f.DstRank), tag: int(f.Tag), comm: f.Comm}
	rc := rt.tpRemote(int(f.SrcNode), key)
	rc.mu.lock()
	rc.pushLocked(append(rc.spareLocked(len(f.Payload)), f.Payload...))
	rc.mu.unlock()
	rt.ring(f.DstRank)
}

// tpApplied is the transport's Applied upcall: the peer's cumulative applied
// watermark for one RMA flow.  The frame travels target -> origin, so the
// flow it names is origin (f.DstRank, a rank on this node) -> target
// (f.SrcRank); its payload is the 8-byte little-endian applied total.
// Watermarks ride the same sequenced stream as data, but a reconnect replay
// may still present an older total, so the replica only moves forward.
func (rt *Runtime) tpApplied(f *transport.Frame) {
	if len(f.Payload) != 8 {
		return // malformed watermark; the retransmitted successor will carry it
	}
	applied := binary.LittleEndian.Uint64(f.Payload)
	key := chanKey{src: int(f.DstRank), dst: int(f.SrcRank), tag: rmaTag, comm: f.Comm}
	c := &rt.tpPeers[f.SrcNode]
	flow, ok := c.flows[key]
	if !ok {
		v, _ := rt.rmaFlows.LoadOrStore(key, &rmaFlow{rc: rt.tpRemote(int(f.SrcNode), key)})
		flow = v.(*rmaFlow)
		c.flows[key] = flow
	}
	for {
		cur := flow.applied.Load()
		if applied <= cur {
			return
		}
		if flow.applied.CompareAndSwap(cur, applied) {
			rt.ring(f.DstRank)
			return
		}
	}
}

// tpWritable is the transport's Writable upcall: the resend window toward
// node reopened after refusing a send.  The link does not know which rank
// was refused, so every rank of this node is rung; the rest re-probe once.
func (rt *Runtime) tpWritable(node int) {
	for _, id := range rt.place.RanksOnNode(rt.cfg.Transport.Node) {
		rt.bells[id].Ring()
	}
}

// tpPeerDead is the transport's failure-detector upcall.  After this
// process's ranks have all returned the loss of a peer is not an error
// (shutdown is not synchronized across nodes); mid-run it poisons the
// runtime so every rank unwinds with a *RunError naming the dead node.
func (rt *Runtime) tpPeerDead(node int, reason string) {
	if rt.tpFinished.Load() {
		return
	}
	rt.poisonNodeDead(node, reason)
}

// tpPeerBye is the transport's departure upcall.  A graceful Bye is a peer
// whose ranks completed (benign even mid-run: its sends to us were all
// delivered first, in link order).  An abort Bye propagates the peer's
// poison immediately, without waiting out the heartbeat detector.  When the
// Bye carries the peer's dead-node list — the peer aborted because it saw
// some third node die — those nodes are the ones recorded as dead here, so
// every survivor's RunError names the node that actually failed rather
// than whichever peer happened to announce its abort first.  An empty list
// means the peer's abort had a local cause (rank panic, deadlock); then the
// departing peer itself is the lost node.
func (rt *Runtime) tpPeerBye(node int, abort bool, reason string, dead []int) {
	if !abort || rt.tpFinished.Load() {
		return
	}
	if len(dead) > 0 {
		for _, d := range dead {
			rt.poisonNodeDead(d, fmt.Sprintf("node %d reported node %d dead: %s", node, d, reason))
		}
		return
	}
	rt.poisonNodeDead(node, fmt.Sprintf("node %d aborted: %s", node, reason))
}

// tpSendData routes one cross-node payload for key over the transport,
// blocking (with poison checks) while the link's resend window is full.  On
// return the link has copied the payload into its encoded resend buffer, so
// the caller's buffer is immediately reusable — the same buffered-send
// post-time completion as the modeled network.  A dead peer
// poisons the runtime and unwinds the calling rank.
func (r *Rank) tpSendData(key chanKey, payload []byte) {
	f := transport.Frame{
		Kind:    transport.KindData,
		SrcRank: int32(key.src), DstRank: int32(key.dst),
		Tag: int32(key.tag), Comm: key.comm,
		Payload: payload,
	}
	r.tpSend(r.rt.place.NodeOf(key.dst), &f)
}

// tpSendApplied ships this rank's cumulative applied watermark for one
// incoming RMA flow back to its origin (see tpApplied for the field
// convention).
func (r *Rank) tpSendApplied(in *rmaInbox) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], in.flow.applied.Load())
	f := transport.Frame{
		Kind:    transport.KindApplied,
		SrcRank: int32(r.id), DstRank: int32(in.origin),
		Tag: rmaTag, Comm: in.comm,
		Payload: buf[:],
	}
	r.tpSend(r.rt.place.NodeOf(in.origin), &f)
}

// tpSend submits one sequenced frame, retrying through backpressure.
func (r *Rank) tpSend(dstNode int, f *transport.Frame) {
	for {
		err := r.rt.tp.Send(dstNode, f)
		switch e := err.(type) {
		case nil:
			return
		case *transport.DeadError:
			r.rt.poisonNodeDead(e.Node, e.Reason)
			r.checkPoison() // unwinds
		default:
			if err == transport.ErrBusy {
				// Resend window full: park on the bell until the ack that
				// reopens it arrives on the netpoller and tpWritable rings.
				// Poison unwinds us if the peer never drains (the retry
				// budget kills the link, the DeadError branch fires, or
				// another rank poisons first) and rings us to get here.
				r.checkPoison()
				if !r.wait.Park() && r.met != nil {
					r.met.tpBusyParkTimeouts.Inc()
				}
				continue
			}
			// ErrClosed and routing errors cannot happen from a live rank
			// (Close runs only after every local rank returned) — unless the
			// runtime is already unwinding, in which case poison wins.
			r.checkPoison()
			panic(fmt.Sprintf("core: rank %d: transport send to node %d: %v", r.id, dstNode, err))
		}
	}
}
