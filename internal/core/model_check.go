//go:build purecheck

package core

import (
	"sync"

	"repro/internal/queue"
)

// ModelChannelTable is a purecheck-only harness over the shared
// channel-manager map: it lets internal/check drive the real
// endpoint-creation seam (lookupChannel + the CAS-once PBQ bind) from
// cooperative model threads without bootstrapping a full runtime.  The two
// halves of a pair racing through Endpoint on first use is exactly the race
// newEndpoint runs when both ranks touch a fresh (src, dst, tag, comm) key.
type ModelChannelTable struct {
	m sync.Map
}

// Endpoint resolves the channel for (src, dst, tag) the way endpoint
// creation does and binds its eager queue, returning both so the model can
// assert that every interleaving converges on one shared object pair.
func (t *ModelChannelTable) Endpoint(src, dst, tag, slots, maxPayload int) (any, *queue.PBQ) {
	ch := lookupChannel(&t.m, chanKey{src: src, dst: dst, tag: tag, comm: 1})
	return ch, ch.pbq(slots, maxPayload)
}

// ModelRendezvous is a purecheck-only harness over one intra-node channel's
// rendezvous path: a sender and a receiver endpoint on bare ranks (no
// runtime goroutines, no tracing or metrics) that drive the real
// Isend/Irecv posting and progressSend/progressRecv from cooperative model
// threads, so internal/check can explore every interleaving of a split
// copy's chunk claims, done counts and retirement.
type ModelRendezvous struct {
	snd, rcv     *Channel
	sreqs, rreqs []*Request
}

// NewModelRendezvous builds the sender/receiver pair over a fresh channel.
func NewModelRendezvous() *ModelRendezvous {
	rt := &Runtime{cfg: Config{SmallMsgMax: DefaultSmallMsgMax, PBQSlots: 2, RendezvousDepth: 4}}
	ch := &channel{}
	ep := func(id, peer int, dir epDir) *Channel {
		return &Channel{r: &Rank{id: id, rt: rt}, peer: peer, peer32: int32(peer),
			dir: dir, eagerMax: rt.cfg.SmallMsgMax, ch: ch}
	}
	return &ModelRendezvous{snd: ep(0, 1, epSend), rcv: ep(1, 0, epRecv)}
}

// ChunkSize is the split-copy chunk size.
func (m *ModelRendezvous) ChunkSize() int { return rvzChunk }

// Chunks is the number of chunks an n-byte payload splits into.
func (m *ModelRendezvous) Chunks(n int) int { return int(rvzChunks(n)) }

// Isend posts a send (sender thread).
func (m *ModelRendezvous) Isend(buf []byte) { m.sreqs = append(m.sreqs, m.snd.Isend(buf)) }

// Irecv posts a receive (receiver thread).
func (m *ModelRendezvous) Irecv(buf []byte) { m.rreqs = append(m.rreqs, m.rcv.Irecv(buf)) }

// SendProgress runs one sender probe and reports whether every send is done.
func (m *ModelRendezvous) SendProgress() bool {
	m.snd.r.progressSend(m.snd.ch)
	return m.snd.ch.sendPend.head() == nil
}

// RecvProgress runs one receiver probe and reports whether every receive is
// done.
func (m *ModelRendezvous) RecvProgress() bool {
	m.rcv.r.progressRecv(m.rcv.ch)
	return m.rcv.ch.recvPend.head() == nil
}

// SendDone reports whether send i has completed.
func (m *ModelRendezvous) SendDone(i int) bool { return m.sreqs[i].done }

// RecvBytes reports receive i's completion and byte count.
func (m *ModelRendezvous) RecvBytes(i int) (n int, done bool) { return m.rreqs[i].n, m.rreqs[i].done }

// SendReady is a pure probe: true when a sender probe would change state
// (an envelope to take, a chunk to claim, or a finished copy to retire).
func (m *ModelRendezvous) SendReady() bool {
	ch := m.snd.ch
	req := ch.sendPend.head()
	if req == nil {
		return true
	}
	rz := ch.rvzOnce.Load()
	if !req.posted {
		return rz.Envelopes.Len() > 0
	}
	return rvzClaimable(ch.xfer.state.Load(), req.seq) || ch.xfer.done.Load() == rvzChunks(len(req.buf))
}

// RecvReady is a pure probe: true when a receiver probe would change state
// (its completion arrived, or a chunk of its own transfer is unclaimed).
func (m *ModelRendezvous) RecvReady() bool {
	ch := m.rcv.ch
	req := ch.recvPend.head()
	if req == nil || !req.posted {
		return true
	}
	if c, ok := ch.rvzOnce.Load().Completions.Peek(); ok && c.Seq == req.seq {
		return true
	}
	return rvzClaimable(ch.xfer.state.Load(), req.seq)
}

// UncopiedClaims is the number of chunks of the sender's current transfer
// that have been claimed but not yet counted done.
func (m *ModelRendezvous) UncopiedClaims() int {
	ch := m.snd.ch
	req := ch.sendPend.head()
	if req == nil || !req.posted || len(req.buf) < rvzSplitMin {
		return 0
	}
	left := uint32(ch.xfer.state.Load())
	return int(rvzChunks(len(req.buf)) - left - ch.xfer.done.Load())
}
