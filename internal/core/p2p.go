package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/queue"
)

// chanKey identifies a persistent point-to-point channel: the paper's
// Channel Manager "maps message arguments (e.g., ranks, tags, datatypes,
// etc.) to the appropriate data structure, creating it on-demand if needed".
// Ranks here are global rank ids; comm is the communicator id (messages on
// different communicators never match).
type chanKey struct {
	src, dst int
	tag      int
	comm     uint64
}

// channel is an intra-node point-to-point channel.  The eager (PBQ) and
// rendezvous structures are created lazily on first use of each protocol.
// The pending-request lists are single-owner: sendPend belongs to the sender
// rank and recvPend to the receiver rank, so neither needs a lock.
type channel struct {
	pbqOnce  atomic.Pointer[queue.PBQ]
	rvzOnce  atomic.Pointer[queue.RendezvousChannel]
	sendPend reqList // owned by sender
	recvPend reqList // owned by receiver
	recvSeq  uint64  // rendezvous ticket counter, owned by receiver
	// recvUnposted counts pending rendezvous receives whose envelope is not
	// yet pushed (the ring was full); owned by receiver.  While it is
	// nonzero, later receives wait their turn so envelopes stay in order.
	recvUnposted int
	xfer         rvzXfer // the in-flight split copy, reused per transfer
}

// Split-copy rendezvous.  A payload of at least rvzSplitMin bytes is copied
// in rvzChunk pieces that the sender and the waiting receiver claim from a
// shared counter, so each byte is still copied exactly once (the paper's
// single copy) but by two ranks instead of one.  Smaller payloads keep the
// sender-only copy.
const (
	rvzChunk    = 16 << 10
	rvzSplitMin = 2 * rvzChunk
)

// rvzXfer is a channel's split-copy state.  The sender owns it: it fills
// src/dst, then publishes the transfer by storing state; both sides then
// claim chunks with one CAS each.  state packs the envelope seq (high 32
// bits) with the count of unclaimed chunks (low 32 bits), which is also the
// next chunk index plus one: chunks are claimed from the top down.  Because
// the seq rides in the same word, a receiver still looking at transfer k
// can never claim a chunk of transfer k+1 (32 bits of seq suffice: the
// sender can run at most RendezvousDepth transfers ahead of a receiver
// stalled between its load and its CAS).  done counts copied chunks; the
// sender pushes the Completion only when it covers every chunk, so neither
// buffer is released while a claimed chunk is still being copied.
type rvzXfer struct {
	state    atomic.Uint64
	done     atomic.Uint32
	src, dst []byte // valid to a claimer between its claim and its done count
}

// rvzChunks is the number of chunks a payload of n bytes splits into.
func rvzChunks(n int) uint32 { return uint32((n + rvzChunk - 1) / rvzChunk) }

// rvzState packs a transfer's seq with its unclaimed-chunk count.
func rvzState(seq uint64, left uint32) uint64 { return uint64(uint32(seq))<<32 | uint64(left) }

// rvzClaimable reports whether state s has an unclaimed chunk of transfer
// seq.
func rvzClaimable(s, seq uint64) bool { return s>>32 == uint64(uint32(seq)) && uint32(s) > 0 }

// start publishes a split copy of src into dst under seq.
func (x *rvzXfer) start(seq uint64, dst, src []byte) {
	x.src, x.dst = src, dst
	x.done.Store(0)
	x.state.Store(rvzState(seq, rvzChunks(len(src))))
}

// copyChunks claims and copies chunks of transfer seq into dst until none
// are left, and returns how many it copied.  The sender passes the
// envelope's buffer and the receiver its own posted buffer, which is the
// same memory.
func (x *rvzXfer) copyChunks(seq uint64, dst []byte) int {
	copied := 0
	for {
		s := x.state.Load()
		if !rvzClaimable(s, seq) {
			return copied
		}
		schedpoint("core:rvz:claim")
		if !x.state.CompareAndSwap(s, s-1) {
			continue
		}
		lo := int(uint32(s)-1) * rvzChunk
		hi := min(lo+rvzChunk, len(x.src))
		schedpoint("core:rvz:copy")
		copy(dst[lo:hi], x.src[lo:hi])
		x.done.Add(1)
		copied++
	}
}

// reqList is a tiny FIFO of in-flight requests, owned by one rank.  The
// backing array is retained across drain cycles (the offset rewinds to 0
// whenever the list empties), so steady-state push/pop never allocates —
// it only grows to the high-water mark of simultaneously pending requests.
type reqList struct {
	q   []*Request
	off int
}

func (l *reqList) push(r *Request) { l.q = append(l.q, r) }
func (l *reqList) head() *Request {
	if l.off == len(l.q) {
		return nil
	}
	return l.q[l.off]
}
func (l *reqList) pop() {
	l.q[l.off] = nil
	l.off++
	if l.off == len(l.q) {
		l.q = l.q[:0]
		l.off = 0
	}
}

// remoteChannel is an inter-node channel.  In the paper this is MPI_Send /
// MPI_Recv with sender/receiver thread ids encoded in the tag's upper bits;
// here it is an ordered mailbox of payloads.  On the modeled wire the
// enqueue pays the modeled network cost and contends on the destination
// node's "NIC" lock (the MPI_THREAD_MULTIPLE serialization Pure accepts on
// this path); on the real transport the link reader appends what the link
// delivered, already in order and deduplicated.
type remoteChannel struct {
	n    atomic.Int64 // buffered message count (lock-free emptiness probe)
	mu   chanMutex
	msgs [][]byte // payloads queued from head on; the backing array is kept when it drains
	head int
	// spare holds payload buffers receives have copied out of, for the
	// next delivery to reuse (guarded by mu).
	spare [][]byte
}

// chanMutex is a tiny spinlock; contention on it plays the role of the MPI
// runtime's internal lock.
type chanMutex struct{ state atomic.Int32 }

func (m *chanMutex) lock() {
	for !m.state.CompareAndSwap(0, 1) {
		gosched()
	}
}
func (m *chanMutex) unlock() { m.state.Store(0) }

// getChannel returns the persistent intra-node channel for key, creating it
// on demand (paper §4.1: "we allocate a persistent 'channel' object that is
// stored in the runtime system and is reused throughout the program").
func (r *Rank) getChannel(key chanKey) *channel {
	if ch, ok := r.chanCache[key]; ok {
		return ch
	}
	ch := lookupChannel(&r.rt.channels, key)
	r.chanCache[key] = ch
	return ch
}

// lookupChannel resolves key in the shared channel-manager map, creating the
// channel on demand.  This is the endpoint-creation seam: the two ranks of a
// pair race to create the same channel on first use (typically from
// newEndpoint), and the schedpoints let the purecheck model explore every
// interleaving of that race.
func lookupChannel(m *sync.Map, key chanKey) *channel {
	schedpoint("core:chan:lookup")
	if v, ok := m.Load(key); ok {
		return v.(*channel)
	}
	schedpoint("core:chan:create")
	v, _ := m.LoadOrStore(key, &channel{})
	return v.(*channel)
}

func (r *Rank) getRemote(key chanKey) *remoteChannel {
	if ch, ok := r.remCache[key]; ok {
		return ch
	}
	v, _ := r.rt.remotes.LoadOrStore(key, &remoteChannel{})
	ch := v.(*remoteChannel)
	r.remCache[key] = ch
	return ch
}

func (ch *channel) pbq(slots, maxPayload int) *queue.PBQ {
	if q := ch.pbqOnce.Load(); q != nil {
		return q
	}
	schedpoint("core:pbq:create")
	q := queue.NewPBQ(slots, maxPayload)
	if ch.pbqOnce.CompareAndSwap(nil, q) {
		return q
	}
	return ch.pbqOnce.Load()
}

func (ch *channel) rvz(depth int) *queue.RendezvousChannel {
	if q := ch.rvzOnce.Load(); q != nil {
		return q
	}
	q := queue.NewRendezvousChannel(depth)
	if ch.rvzOnce.CompareAndSwap(nil, q) {
		return q
	}
	return ch.rvzOnce.Load()
}

// reqKind identifies a request's protocol path.
type reqKind uint8

const (
	reqSendEager reqKind = iota
	reqSendRvz
	reqRecvEager
	reqRecvRvz
	reqRemoteSend
	reqRemoteRecv
	reqRmaRemote // one-sided remote op: done when the target's applied watermark covers flowSeq
	reqRmaGet    // one-sided get: done when the reply frame fills buf
)

// Request is an in-flight nonblocking operation (the analogue of
// MPI_Request).  A request belongs to the rank that created it.
type Request struct {
	kind   reqKind
	ch     *channel
	rem    *remoteChannel
	buf    []byte
	seq    uint64 // rendezvous ticket
	peer   int32  // global peer rank (for trace events and wait records)
	tag    int    // message tag (wait-registry diagnostics)
	comm   uint64 // communicator id (wait-registry diagnostics)
	posted bool   // rendezvous: envelope pushed (recv) or taken (send)
	done   bool
	n      int // bytes transferred (recv side)

	// One-sided (RMA) completion state: a remote Put/Accumulate/Notify is
	// done once flow.applied covers flowSeq (the target applied the frame).
	flow    *rmaFlow
	flowSeq uint64

	// Endpoint request pooling: requests created on a Channel carry their
	// owner and return to its free list when waited, so steady-state
	// nonblocking traffic recycles a handful of request objects instead of
	// allocating one per operation.
	owner      *Channel
	nextFree   *Request
	pooledFree bool
}

// Done reports whether the request has completed.  Completion only advances
// inside Wait/Test/progress calls made by the owning rank.
func (q *Request) Done() bool { return q.done }

// Bytes returns the received byte count of a completed receive request.
func (q *Request) Bytes() int { return q.n }

// EncodeInterNodeTag reproduces the paper's inter-node tag encoding: the
// sender and receiver thread numbers (within their processes) are packed
// into the upper bits of the MPI tag (paper §4.1.3; 6 bits each covered the
// 64 threads per node used in the evaluation).  The mailbox transport does
// not need this — channels are keyed by global ranks — but the encoding is
// kept (and tested) as the documented wire format.
func EncodeInterNodeTag(tag, srcLocal, dstLocal, bits int) (int, error) {
	if bits <= 0 || bits > 12 {
		return 0, fmt.Errorf("core: thread-id field of %d bits out of range", bits)
	}
	limit := 1 << bits
	if srcLocal < 0 || srcLocal >= limit || dstLocal < 0 || dstLocal >= limit {
		return 0, fmt.Errorf("core: thread ids (%d, %d) do not fit in %d bits", srcLocal, dstLocal, bits)
	}
	if tag < 0 || tag >= 1<<(31-2*bits-1) {
		return 0, fmt.Errorf("core: tag %d overflows with 2x%d thread-id bits", tag, bits)
	}
	return tag | srcLocal<<(31-2*bits) | dstLocal<<(31-bits), nil
}

// DecodeInterNodeTag inverts EncodeInterNodeTag.
func DecodeInterNodeTag(enc, bits int) (tag, srcLocal, dstLocal int) {
	mask := 1<<bits - 1
	srcLocal = (enc >> (31 - 2*bits)) & mask
	dstLocal = (enc >> (31 - bits)) & mask
	tag = enc & (1<<(31-2*bits) - 1)
	return
}

// isendRemote starts a send of buf to the endpoint's peer on another node,
// on a request from the endpoint's pool.  Both inter-node paths complete at
// post (MPI buffered semantics): the transport link copies the payload into
// its encoded resend buffer, and loss, reordering and reconnects are the
// link protocol's problem; the modeled wire copies it into the peer's
// mailbox and never loses anything.
func (ep *Channel) isendRemote(buf []byte) *Request {
	r := ep.r
	r.stats.BytesSent += int64(len(buf))
	r.stats.SendsRemote++
	if r.trace != nil {
		r.trace.Emit(obs.KSendRemote, ep.peer32, int64(len(buf)))
	}
	if r.met != nil {
		r.met.countSend(reqRemoteSend, len(buf))
	}
	req := ep.getReq()
	req.kind, req.buf = reqRemoteSend, buf
	req.peer, req.tag, req.comm = ep.peer32, ep.tag, ep.comm
	key := chanKey{src: r.id, dst: ep.peer, tag: ep.tag, comm: ep.comm}
	if r.rt.tp != nil {
		r.tpSendData(key, buf)
	} else {
		r.remoteSend(key, buf)
	}
	req.done = true
	req.n = len(buf)
	return req
}

// irecvRemote starts a receive into buf from the endpoint's peer on another
// node, on a request from the endpoint's pool; progressRemoteRecv completes
// it from the mailbox.
func (ep *Channel) irecvRemote(buf []byte) *Request {
	ep.r.stats.RecvsRemote++
	req := ep.getReq()
	req.kind, req.rem, req.buf = reqRemoteRecv, ep.bindRemote(), buf
	req.peer, req.tag, req.comm = ep.peer32, ep.tag, ep.comm
	return req
}

// waitKindFor maps a request's protocol path to its wait-registry kind.
func waitKindFor(k reqKind) WaitKind {
	switch k {
	case reqSendEager:
		return WaitP2PSend
	case reqSendRvz:
		return WaitRvzSend
	case reqRecvEager:
		return WaitP2PRecv
	case reqRecvRvz:
		return WaitRvzRecv
	case reqRemoteRecv:
		return WaitRemoteRecv
	case reqRmaRemote, reqRmaGet:
		return WaitRmaRemote
	}
	return WaitNone
}

// waitReq blocks (in the SSW-Loop) until req completes and returns the byte
// count for receives.  While blocked, the rank publishes a wait record so the
// watchdog can name what (and whom) it is waiting on.  Completion releases
// endpoint-pooled requests back to their owner: a request handle must be
// waited exactly once and is dead afterwards.
func (r *Rank) waitReq(req *Request) int {
	if req.done {
		n := req.n
		releaseReq(req)
		return n
	}
	r.pendRec = WaitRecord{
		Kind: waitKindFor(req.kind), Peer: int(req.peer),
		Tag: req.tag, Comm: req.comm, Seq: req.seq,
	}
	// Remote completions on the real transport arrive via the link reader
	// goroutine, which rings this rank's bell; on the modeled network the
	// waiting rank drives delivery itself and keeps spinning.
	mode := r.frameMode()
	switch req.kind {
	case reqRemoteRecv:
		r.leafWaitVia(mode, func() bool {
			if req.done {
				return true
			}
			r.progressRemoteRecv(req)
			return req.done
		})
	case reqRmaRemote:
		// Origin side of a remote one-sided op: apply incoming frames (two
		// origins putting at each other must each drain their inbox), then
		// poll the target's applied watermark.
		r.leafWaitVia(mode, func() bool {
			if req.flow.applied.Load() >= req.flowSeq {
				req.done = true
				return true
			}
			r.rmaProgress()
			if req.flow.applied.Load() >= req.flowSeq {
				req.done = true
			}
			return req.done
		})
	case reqRmaGet:
		// The reply frame arrives on our own inbox; rmaProgress fills buf.
		r.leafWaitVia(mode, func() bool {
			if req.done {
				return true
			}
			r.rmaProgress()
			return req.done
		})
	default:
		ch := req.ch
		r.leafWait(func() bool {
			if req.done {
				return true
			}
			if req.kind == reqSendEager || req.kind == reqSendRvz {
				r.progressSend(ch)
			} else {
				r.progressRecv(ch)
			}
			return req.done
		})
	}
	n := req.n
	releaseReq(req)
	return n
}

// progressSend advances the sender-side pending list head of ch.
func (r *Rank) progressSend(ch *channel) {
	for {
		req := ch.sendPend.head()
		if req == nil {
			return
		}
		switch req.kind {
		case reqSendEager:
			q := ch.pbq(r.rt.cfg.PBQSlots, r.rt.cfg.SmallMsgMax)
			if !q.TryEnqueue(req.buf) {
				return // queue full; retry on next progress call
			}
		case reqSendRvz:
			// Single-copy: claim the receiver's posted envelope, copy the
			// payload straight into the destination buffer, then signal the
			// byte count on the completion queue (paper §4.1.2).  A split
			// copy is shared with the receiver and may take several probes.
			rz := ch.rvz(r.rt.cfg.RendezvousDepth)
			n := len(req.buf)
			if !req.posted {
				env, ok := rz.Envelopes.TryPop()
				if !ok {
					return // receiver has not posted yet
				}
				if n > len(env.Dest) {
					panic(fmt.Sprintf("core: %d-byte message overflows %d-byte posted receive buffer",
						n, len(env.Dest)))
				}
				req.seq, req.posted = env.Seq, true
				if n < rvzSplitMin {
					copy(env.Dest, req.buf)
				} else {
					ch.xfer.start(env.Seq, env.Dest, req.buf)
				}
			}
			if n >= rvzSplitMin {
				x := &ch.xfer
				x.copyChunks(req.seq, x.dst)
				if x.done.Load() != rvzChunks(n) {
					return // the receiver is still copying a chunk it claimed
				}
				x.src, x.dst = nil, nil // retain no user buffer past the transfer
				schedpoint("core:rvz:retire")
			}
			for !rz.Completions.TryPush(queue.Completion{Bytes: n, Seq: req.seq}) {
				r.checkPoison() // receiver may have unwound without draining
				gosched()       // completion ring full: receiver must drain; bounded wait
			}
			if r.trace != nil {
				r.trace.Emit(obs.KRendezvousHandoff, req.peer, int64(n))
			}
			if r.met != nil {
				r.met.rvzHandoffs.Inc()
			}
		}
		req.done = true
		req.n = len(req.buf)
		ch.sendPend.pop()
	}
}

// postRecvRvz queues a rendezvous receive and pushes its envelope right
// away unless an earlier receive is still waiting for ring space, so the
// sender can start a transfer while earlier receives are pending.  Receiver
// side.
func (ch *channel) postRecvRvz(rz *queue.RendezvousChannel, req *Request) {
	ch.recvPend.push(req)
	if ch.recvUnposted > 0 || !ch.postEnvelope(rz, req) {
		ch.recvUnposted++
	}
}

// postEnvelope pushes req's envelope under the next ticket, reporting false
// (nothing changed) when the envelope ring is full.
func (ch *channel) postEnvelope(rz *queue.RendezvousChannel, req *Request) bool {
	if !rz.Envelopes.TryPush(queue.Envelope{Dest: req.buf, Seq: ch.recvSeq + 1}) {
		return false
	}
	ch.recvSeq++
	req.seq, req.posted = ch.recvSeq, true
	return true
}

// progressRecv advances the receiver-side pending list head of ch.
func (r *Rank) progressRecv(ch *channel) {
	for {
		req := ch.recvPend.head()
		if req == nil {
			return
		}
		switch req.kind {
		case reqRecvEager:
			q := ch.pbq(r.rt.cfg.PBQSlots, r.rt.cfg.SmallMsgMax)
			n, ok := q.TryDequeue(req.buf)
			if !ok {
				return
			}
			req.n = n
			r.stats.BytesReceived += int64(n)
			if r.trace != nil {
				r.trace.Emit(obs.KRecvEager, req.peer, int64(n))
			}
			if r.met != nil {
				r.met.recvsEager.Inc()
				r.met.bytesReceived.Add(int64(n))
			}
		case reqRecvRvz:
			rz := ch.rvz(r.rt.cfg.RendezvousDepth)
			if !req.posted {
				if !ch.postEnvelope(rz, req) {
					return // envelope ring full; repost later
				}
				ch.recvUnposted--
			}
			c, ok := rz.Completions.Peek()
			if !ok || c.Seq != req.seq {
				// Our transfer has not completed yet (completions are FIFO):
				// copy our share of it while the sender copies the rest.
				if k := ch.xfer.copyChunks(req.seq, req.buf); k > 0 && r.met != nil {
					r.met.rvzRecvChunks.Add(int64(k))
				}
				return
			}
			rz.Completions.TryPop()
			req.n = c.Bytes
			r.stats.BytesReceived += int64(c.Bytes)
			if r.trace != nil {
				r.trace.Emit(obs.KRecvRendezvous, req.peer, int64(c.Bytes))
			}
			if r.met != nil {
				r.met.recvsRvz.Inc()
				r.met.bytesReceived.Add(int64(c.Bytes))
			}
		}
		req.done = true
		ch.recvPend.pop()
	}
}

// remoteSend delivers a copy of buf to a rank on another node: pay the
// modeled wire time, then append to the destination mailbox under the
// destination node's NIC lock.
func (r *Rank) remoteSend(key chanKey, buf []byte) {
	r.remoteSendVia(key, buf, true)
}

// remoteSendOwned is remoteSend for a payload the caller hands over (a
// freshly encoded RMA frame): no defensive copy.
func (r *Rank) remoteSendOwned(key chanKey, buf []byte) {
	r.remoteSendVia(key, buf, false)
}

// remoteSendVia is the shared body; copyIn makes the mailbox's copy (into a
// recycled buffer when one fits).
func (r *Rank) remoteSendVia(key chanKey, buf []byte, copyIn bool) {
	rc := r.getRemote(key)
	r.rt.net.Transfer(len(buf))
	dstNode := r.rt.place.NodeOf(key.dst)
	nic := &r.rt.nodes[dstNode].nic
	nic.Lock()
	rc.mu.lock()
	if copyIn {
		buf = append(rc.spareLocked(len(buf)), buf...)
	}
	rc.pushLocked(buf)
	rc.mu.unlock()
	nic.Unlock()
}

// Payload recycling bounds: a mailbox keeps at most spareBufs copied-out
// payload buffers, none larger than spareMax (bulk payloads go back to the
// GC).
const (
	spareBufs = 4
	spareMax  = 64 << 10
)

// pushLocked appends one message.  Caller holds mu.
func (rc *remoteChannel) pushLocked(payload []byte) {
	rc.msgs = append(rc.msgs, payload)
	rc.n.Add(1)
}

// popLocked dequeues the head message.  The backing array is rewound when
// the queue drains and compacted once the consumed prefix dominates, so a
// steady stream neither allocates nor grows.  Caller holds mu and has
// checked the queue is non-empty.
func (rc *remoteChannel) popLocked() []byte {
	msg := rc.msgs[rc.head]
	rc.msgs[rc.head] = nil
	rc.head++
	if rc.head == len(rc.msgs) {
		rc.msgs, rc.head = rc.msgs[:0], 0
	} else if rc.head >= 64 && 2*rc.head >= len(rc.msgs) {
		n := copy(rc.msgs, rc.msgs[rc.head:])
		clear(rc.msgs[n:])
		rc.msgs, rc.head = rc.msgs[:n], 0
	}
	rc.n.Add(-1)
	return msg
}

// spareLocked returns an empty payload buffer of capacity at least n,
// recycled when one fits.  Caller holds mu.
func (rc *remoteChannel) spareLocked(n int) []byte {
	if k := len(rc.spare); k > 0 && cap(rc.spare[k-1]) >= n {
		b := rc.spare[k-1]
		rc.spare[k-1] = nil
		rc.spare = rc.spare[:k-1]
		return b[:0]
	}
	return make([]byte, 0, n)
}

// tryPop dequeues the channel's head message, or reports none buffered.
// The caller owns the returned payload.
func (rc *remoteChannel) tryPop() ([]byte, bool) {
	rc.mu.lock()
	if rc.head == len(rc.msgs) {
		rc.mu.unlock()
		return nil, false
	}
	msg := rc.popLocked()
	rc.mu.unlock()
	return msg, true
}

// popInto copies the head message into dst, dequeues it and keeps its
// buffer for the next delivery.  It reports the message size and whether a
// message was buffered; a message larger than dst (size > len(dst)) stays
// queued for the caller to report.
func (rc *remoteChannel) popInto(dst []byte) (size int, ok bool) {
	rc.mu.lock()
	if rc.head == len(rc.msgs) {
		rc.mu.unlock()
		return 0, false
	}
	msg := rc.msgs[rc.head]
	if len(msg) > len(dst) {
		rc.mu.unlock()
		return len(msg), true
	}
	copy(dst, msg)
	rc.popLocked()
	if cap(msg) <= spareMax && len(rc.spare) < spareBufs {
		rc.spare = append(rc.spare, msg)
	}
	rc.mu.unlock()
	return len(msg), true
}

// progressRemoteRecv completes a remote receive if a message has arrived.
func (r *Rank) progressRemoteRecv(req *Request) {
	rc := req.rem
	if rc.n.Load() == 0 {
		return
	}
	n, ok := rc.popInto(req.buf)
	if !ok {
		return
	}
	if n > len(req.buf) {
		panic(fmt.Sprintf("core: %d-byte message overflows %d-byte receive buffer", n, len(req.buf)))
	}
	req.n = n
	r.stats.BytesReceived += int64(req.n)
	if r.trace != nil {
		r.trace.Emit(obs.KRecvRemote, req.peer, int64(req.n))
	}
	if r.met != nil {
		r.met.recvsRemote.Inc()
		r.met.bytesReceived.Add(int64(req.n))
	}
	req.done = true
}
