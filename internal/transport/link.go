package transport

import (
	"bufio"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// link is the reliable channel between this node and one peer.  Exactly one
// link exists per node pair; the lower-numbered node dials, the higher one
// accepts, and the pair never races two connections against each other.
//
// Sender side (guarded by mu): frames get consecutive sequence numbers and
// are buffered in unacked until the peer's cumulative ack covers them.  The
// ticker retransmits the whole unacked window when the ack stalls past the
// backoff (go-back-N), and declares the peer dead when RetryBudget rounds
// bring no progress.  A frame queued while the connection is down is simply
// buffered; (re)connection replays everything past the peer's delivered
// watermark.
//
// Receiver side (guarded by recvMu): sequenced frames are delivered to the
// handlers strictly in order — the next expected sequence is delivered,
// duplicates (at or below the watermark) are dropped, and anything past the
// expected sequence is dropped too, to be recovered by the sender's
// retransmission.  Acks piggyback on every outgoing frame.  An explicit ack
// flows only when no outbound frame carried the watermark within ackDelay
// of a delivery (the delayed-ack timer), or once ackBound frames are owed,
// whichever comes first — so a ping-pong never sends one, and a one-way
// stream cannot stall the sender's resend window.
//
// The frame path allocates nothing in steady state: acked encode buffers
// return to a per-link free list, the resend buffer keeps its backing
// array, and each reader decodes into one reused Frame.
type link struct {
	t      *Transport
	peer   int
	addr   string
	dialer bool // this side initiates connections (t.cfg.Node < peer)

	mu       sync.Mutex
	conn     Conn
	bw       *bufio.Writer
	gen      uint64 // connection generation; readers of older generations are stale
	dialing  bool   // a dialLoop goroutine is active
	nextSeq  uint64
	unacked  []outFrame // resend buffer, ascending seq
	ackedOut uint64     // highest seq the peer has acked
	free     [][]byte   // encode buffers of acked frames, for reuse
	busy     bool       // a send hit the full window since the last ack progress
	attempts int        // retransmit rounds since the last ack progress
	retryAt  time.Time  // when the next retransmit round is due
	scratch  []byte     // control-frame encode buffer
	rng      uint64     // send-side fault-injection stream
	hbNonce  uint64
	lastHB   time.Time

	recvMu    sync.Mutex
	delivered uint64 // highest in-order seq handed to the handlers

	deliveredA  atomic.Uint64 // mirror of delivered for lock-free reads (handshake, acks)
	ackedOutA   atomic.Uint64 // mirror of ackedOut: the reader skips mu for stale acks
	lastRecv    atomic.Int64  // unix nanos of the last frame heard from the peer
	everUp      atomic.Bool
	departed    atomic.Bool // peer sent Bye: stop talking to it, it is not a failure
	dead        atomic.Bool
	partitioned atomic.Bool // chaos switch: suppress all traffic both ways
	deadReason  string      // written once before dead is set

	// Clock alignment against this peer (guarded by clockMu): the newest
	// heartbeat received (echoed back on our next heartbeat), the NTP-style
	// estimator fed by echoes of our own heartbeats, and the sample history
	// recorded into trace dumps.  rttNs/offNs mirror the current estimates
	// for lock-free snapshots.
	clockMu    sync.Mutex
	peerHB     Heartbeat
	peerHBRecv int64
	clock      ClockEstimator
	samples    []obs.ClockSample // ring, newest at samplesN-1 mod len
	samplesN   uint64
	rttNs      atomic.Int64 // smoothed filtered round-trip (EWMA); 0 = no sample yet
	offNs      atomic.Int64 // current offset estimate (peer minus local)

	// Delayed ack (receiver side).  ackSent is the highest delivered
	// watermark written to the peer on any frame; a delivery past it arms
	// ackTimer (once: ackArmed), which sends an explicit ack only if no
	// frame has carried the armed-at watermark (ackMark) by the time it
	// fires.  ackBound owed frames force an explicit ack at once.
	ackSent  atomic.Uint64
	ackMark  atomic.Uint64
	ackArmed atomic.Bool
	ackTimer *time.Timer
	ackBound uint64
	ackDelay time.Duration

	events *linkEventRing // transport trace ring; nil when link tracing is off

	stats linkCounters
}

// linkClockHistory bounds the per-link offset-sample history kept for trace
// dumps; at the 25ms default heartbeat cadence it spans ~25s of run.
const linkClockHistory = 1024

// outFrame is one sequenced frame awaiting acknowledgement, fully encoded.
type outFrame struct {
	seq uint64
	buf []byte
}

// linkCounters are the per-link observability counters (all atomics: the
// ticker, reader, and Stats snapshot each other concurrently).
type linkCounters struct {
	framesSent, framesRecv   atomic.Int64
	bytesSent, bytesRecv     atomic.Int64
	retransmits              atomic.Int64
	dupsDropped, oooDropped  atomic.Int64
	reconnects               atomic.Int64
	hbSent, hbRecv, acksSent atomic.Int64
	acksRecv                 atomic.Int64
	retryRounds              atomic.Int64
	dropsInjected            atomic.Int64
	delaysInjected           atomic.Int64
	sendBusy                 atomic.Int64
}

// ackEvery bounds how many delivered frames may ride on piggybacked acks
// alone before the receiver owes the sender an explicit ack, so a one-way
// stream (a long Bcast fan-out) cannot stall the sender's resend window.
// A link whose window (MaxUnacked) is smaller acks every half window.
const ackEvery = 64

// ackDelay is how long a delivered frame waits for an outbound frame to
// carry its ack before the receiver sends an explicit one.  It stays well
// under the retransmit backoff (a quarter of RetryBackoff at most), so a
// quiet stream is acked long before the sender would resend.
const ackDelay = 500 * time.Microsecond

// Encode-buffer recycling bounds: a link keeps at most freeBufs acked
// buffers, none larger than freeBufMax (bulk frames go back to the GC).
const (
	freeBufs   = 64
	freeBufMax = 64 << 10
)

// newLink builds one peer's link with its delayed-ack timer stopped.
func newLink(t *Transport, peer int) *link {
	cfg := &t.cfg
	l := &link{
		t:        t,
		peer:     peer,
		addr:     cfg.Addrs[peer],
		dialer:   cfg.Node < peer,
		rng:      cfg.Faults.Seed ^ (uint64(cfg.Node)<<32 | uint64(peer)) ^ 0x9e3779b97f4a7c15,
		events:   newLinkEventRing(cfg.LinkEvents),
		ackBound: uint64(min(ackEvery, max(1, cfg.MaxUnacked/2))),
		ackDelay: min(ackDelay, cfg.RetryBackoff/4),
	}
	l.ackTimer = time.AfterFunc(time.Hour, l.delayedAck)
	l.ackTimer.Stop()
	return l
}

// send queues one sequenced frame and transmits it on the live connection.
// It returns ErrBusy when the resend window is full (the caller yields and
// retries), a *DeadError when the peer has been declared dead, and nil
// otherwise — including when the connection is down, in which case the
// frame is buffered and replayed on reconnect.
func (l *link) send(f *Frame) error {
	l.mu.Lock()
	if l.dead.Load() {
		reason := l.deadReason
		l.mu.Unlock()
		return &DeadError{Node: l.peer, Reason: reason}
	}
	if l.departed.Load() {
		// The peer finished and left; anything still addressed to it is
		// undeliverable by design.  Dropping (rather than erroring) keeps
		// shutdown races harmless: the messages could not have mattered.
		l.mu.Unlock()
		return nil
	}
	if len(l.unacked) >= l.t.cfg.MaxUnacked {
		l.stats.sendBusy.Add(1)
		l.busy = true // the ack that reopens the window calls Writable
		l.mu.Unlock()
		return ErrBusy
	}
	l.nextSeq++
	f.Seq = l.nextSeq
	f.Ack = l.deliveredA.Load()
	f.SrcNode = int32(l.t.cfg.Node)
	buf := AppendFrame(l.encodeBufLocked(HeaderLen+len(f.Payload)), f)
	if l.events != nil {
		l.events.add(obs.LinkEvent{
			TS: time.Now().UnixNano(), Kind: obs.LinkSend,
			Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
			Seq: f.Seq, Bytes: int32(len(f.Payload)),
		})
	}
	l.unacked = append(l.unacked, outFrame{seq: f.Seq, buf: buf})
	if len(l.unacked) == 1 {
		l.attempts = 0
		l.retryAt = time.Now().Add(l.t.cfg.RetryBackoff)
	}
	if l.conn != nil && !l.partitioned.Load() {
		if l.injectDropLocked() {
			l.stats.dropsInjected.Add(1)
		} else if l.writeLocked(buf) {
			l.ackSent.Store(f.Ack) // the piggyback
		}
	}
	l.mu.Unlock()
	return nil
}

// encodeBufLocked returns an empty buffer of capacity at least n, recycled
// from an acked frame when one fits.  Caller holds mu.
func (l *link) encodeBufLocked(n int) []byte {
	if k := len(l.free); k > 0 && cap(l.free[k-1]) >= n {
		b := l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		return b[:0]
	}
	return make([]byte, 0, n)
}

// sendControl transmits one unsequenced frame (ack, heartbeat, handshake,
// bye) on the live connection, best-effort: with the connection down the
// frame is simply not sent.  It reports whether the frame was written.
func (l *link) sendControl(kind Kind, payload []byte) bool {
	l.mu.Lock()
	ok := false
	if l.conn != nil && !l.partitioned.Load() {
		f := Frame{Kind: kind, SrcNode: int32(l.t.cfg.Node), Ack: l.deliveredA.Load(), Payload: payload}
		l.scratch = AppendFrame(l.scratch[:0], &f)
		if ok = l.writeLocked(l.scratch); ok {
			l.ackSent.Store(f.Ack)
		}
	}
	l.mu.Unlock()
	return ok
}

// sendAck writes an explicit ack carrying the current delivered watermark.
func (l *link) sendAck() bool {
	if !l.sendControl(KindAck, nil) {
		return false
	}
	l.stats.acksSent.Add(1)
	return true
}

// writeLocked writes one encoded frame to the live connection, tearing the
// connection down (and arming the redial) on error.  It reports whether the
// frame was written.  Caller holds mu.
func (l *link) writeLocked(buf []byte) bool {
	if d := l.t.cfg.PeerDeadAfter; d > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if _, err := l.bw.Write(buf); err == nil {
		err = l.bw.Flush()
		if err == nil {
			l.stats.framesSent.Add(1)
			l.stats.bytesSent.Add(int64(len(buf)))
			return true
		}
	}
	l.teardownConnLocked()
	return false
}

// teardownConnLocked drops the current connection (write error, read error,
// or chaos KillLink) and arms the dialer's reconnect loop.  Caller holds mu.
func (l *link) teardownConnLocked() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
		l.bw = nil
		l.gen++
	}
	if l.dialer && !l.dialing && !l.dead.Load() && !l.departed.Load() && !l.t.closed.Load() {
		l.dialing = true
		l.t.wg.Add(1)
		go l.dialLoop()
	}
}

// installConn makes c the link's live connection: the peer's delivered
// watermark (from its Hello/Welcome) acts as a cumulative ack, and every
// sequenced frame past it is replayed in order before new traffic flows.
// It reports whether the connection was accepted (a dead/departed/closed
// link refuses) and starts the connection's reader.
func (l *link) installConn(c Conn, peerDelivered uint64) bool {
	l.mu.Lock()
	if l.dead.Load() || l.departed.Load() || l.t.closed.Load() {
		l.mu.Unlock()
		c.Close()
		return false
	}
	if l.conn != nil {
		// A replacement arrived while an old connection looked alive (the
		// peer saw a break we have not noticed yet).  The newest wins.
		l.conn.Close()
	}
	l.conn = c
	l.bw = bufio.NewWriterSize(c, 64<<10)
	l.gen++
	gen := l.gen
	// Order matters against the (lockless) tick: lastRecv must be current
	// before everUp flips, or a tick in the window reads everUp with a
	// zero/stale lastRecv and declares instant heartbeat death.
	l.lastRecv.Store(time.Now().UnixNano())
	if l.everUp.Swap(true) {
		l.stats.reconnects.Add(1)
	}
	reopened := l.handleAckLocked(peerDelivered)
	if n := len(l.unacked); n > 0 {
		for _, of := range l.unacked {
			l.bw.Write(of.buf)
		}
		if err := l.bw.Flush(); err != nil {
			l.teardownConnLocked()
			l.mu.Unlock()
			l.notifyWritable(reopened)
			return false
		}
		l.stats.framesSent.Add(int64(n))
		if gen > 1 {
			l.stats.retransmits.Add(int64(n))
		}
	}
	l.mu.Unlock()
	l.notifyWritable(reopened)

	l.t.wg.Add(1)
	go l.readLoop(c, gen)
	return true
}

// handleAckLocked processes a cumulative ack: completed frames leave the
// resend buffer (their encode buffers go to the free list) and ack progress
// resets the retransmit clock.  It reports whether the ack reopened a
// window that refused a send; the caller then calls notifyWritable after
// releasing mu.  Caller holds mu.
func (l *link) handleAckLocked(a uint64) (reopened bool) {
	if a <= l.ackedOut {
		return false
	}
	l.ackedOut = a
	l.ackedOutA.Store(a)
	drop := 0
	for drop < len(l.unacked) && l.unacked[drop].seq <= a {
		if b := l.unacked[drop].buf; cap(b) <= freeBufMax && len(l.free) < freeBufs {
			l.free = append(l.free, b)
		}
		drop++
	}
	if drop > 0 {
		n := copy(l.unacked, l.unacked[drop:])
		clear(l.unacked[n:])
		l.unacked = l.unacked[:n]
		reopened, l.busy = l.busy, false
	}
	l.attempts = 0
	l.retryAt = time.Now().Add(l.t.cfg.RetryBackoff)
	return reopened
}

// notifyWritable tells the owner that sends refused with ErrBusy may now
// succeed.  Called without mu.
func (l *link) notifyWritable(reopened bool) {
	if h := l.t.h.Writable; reopened && h != nil {
		h(l.peer)
	}
}

// readLoop consumes frames from one connection until it breaks or is
// replaced.  Only the loop whose generation is still current tears the
// connection down; a stale loop exits silently.
func (l *link) readLoop(c Conn, gen uint64) {
	defer l.t.wg.Done()
	br := bufio.NewReaderSize(c, 64<<10)
	fr := frameReader{r: br}
	var f Frame // reused: the handlers' frame is only valid during the call
	for {
		if err := fr.Read(&f); err != nil {
			l.mu.Lock()
			if l.gen == gen {
				l.teardownConnLocked()
			}
			l.mu.Unlock()
			return
		}
		if l.partitioned.Load() {
			continue // the chaos partition eats everything, liveness included
		}
		l.lastRecv.Store(time.Now().UnixNano())
		l.stats.framesRecv.Add(1)
		l.stats.bytesRecv.Add(int64(HeaderLen + len(f.Payload)))
		if f.Ack > l.ackedOutA.Load() {
			l.mu.Lock()
			reopened := l.handleAckLocked(f.Ack)
			l.mu.Unlock()
			l.notifyWritable(reopened)
		}
		switch f.Kind {
		case KindData, KindApplied:
			f.SrcNode = int32(l.peer) // the handlers may key per-peer state on it
			l.acceptSequenced(&f)
		case KindHeartbeat:
			l.stats.hbRecv.Add(1)
			if hb, err := DecodeHeartbeat(f.Payload); err == nil {
				l.noteHeartbeat(hb, time.Now())
			}
		case KindAck:
			// The watermark itself is handled by the piggyback path above.
			l.stats.acksRecv.Add(1)
		case KindBye:
			l.handleBye(&f)
		case KindHello, KindWelcome:
			// A late handshake duplicate on an established stream; ignore.
		}
	}
}

// acceptSequenced runs the receive side of the reliability protocol for one
// Data/Applied frame, then settles the ack it owes the sender.
func (l *link) acceptSequenced(f *Frame) {
	if fl := &l.t.cfg.Faults; fl.DelayProb > 0 && l.t.rand01() < fl.DelayProb {
		l.stats.delaysInjected.Add(1)
		time.Sleep(time.Duration(l.t.rand01() * float64(fl.DelayMax)))
	}
	dup := false
	l.recvMu.Lock()
	switch {
	case f.Seq == l.delivered+1:
		l.delivered++
		l.deliveredA.Store(l.delivered)
		if l.events != nil {
			l.events.add(obs.LinkEvent{
				TS: time.Now().UnixNano(), Kind: obs.LinkRecv,
				Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
				Seq: f.Seq, Bytes: int32(len(f.Payload)),
			})
		}
		if f.Kind == KindApplied {
			if h := l.t.h.Applied; h != nil {
				h(f)
			}
		} else if h := l.t.h.Deliver; h != nil {
			h(f)
		}
	case f.Seq <= l.delivered:
		l.stats.dupsDropped.Add(1)
		dup = true
	default:
		// A gap: an earlier frame was dropped (injected or lost with a dead
		// connection).  Go-back-N: drop this one too and let the sender's
		// retransmission replay the stream from the gap in order.
		l.stats.oooDropped.Add(1)
	}
	d := l.delivered
	l.recvMu.Unlock()
	if sent := l.ackSent.Load(); d > sent {
		// A duplicate means the sender is already retransmitting for want
		// of this ack: send it now rather than after the delay.
		if dup || d-sent >= l.ackBound {
			l.sendAck()
		} else {
			l.armDelayedAck()
		}
	}
}

// armDelayedAck starts the delayed-ack timer unless it is already running
// (or the link is finished: a stopped link must not keep re-arming).
func (l *link) armDelayedAck() {
	if l.t.closed.Load() || l.dead.Load() || l.departed.Load() {
		return
	}
	if l.ackArmed.CompareAndSwap(false, true) {
		l.ackMark.Store(l.deliveredA.Load())
		l.ackTimer.Reset(l.ackDelay)
	}
}

// delayedAck is the delayed-ack timer: if no outbound frame has carried the
// watermark owed when the timer was armed, send an explicit ack.  A delivery
// newer than the mark re-arms the timer for its own full delay, so the
// frames of a bidirectional exchange keep riding piggybacks.  With the
// connection down nothing is re-armed: the reconnect handshake carries the
// delivered watermark.
func (l *link) delayedAck() {
	if l.ackSent.Load() < l.ackMark.Load() && !l.sendAck() {
		l.ackArmed.Store(false)
		return
	}
	l.ackArmed.Store(false)
	// A delivery between the mark and the Store above found the timer still
	// armed and left it to us.
	if l.deliveredA.Load() > l.ackSent.Load() {
		l.armDelayedAck()
	}
}

// handleBye processes a peer's departure announcement.
func (l *link) handleBye(f *Frame) {
	bye, err := DecodeBye(f.Payload)
	if err != nil {
		bye = Bye{Reason: fmt.Sprintf("unparseable bye: %v", err)}
	}
	l.mu.Lock()
	already := l.departed.Swap(true)
	// Nothing queued for a departed peer can be delivered; dropping the
	// resend buffer stops the retransmit clock from declaring a clean
	// departure a failure.  Sends parked on the full window are released:
	// from now on they are dropped at post.
	l.unacked = nil
	reopened := l.busy
	l.busy = false
	l.mu.Unlock()
	l.notifyWritable(reopened)
	if !already {
		if h := l.t.h.PeerBye; h != nil {
			var dead []int
			for _, d := range bye.Dead {
				dead = append(dead, int(d))
			}
			h(l.peer, bye.Abort, bye.Reason, dead)
		}
	}
}

// die declares the peer dead exactly once and tells the failure handler.
func (l *link) die(reason string) {
	l.mu.Lock()
	if l.dead.Load() || l.departed.Load() {
		l.mu.Unlock()
		return
	}
	l.deadReason = reason
	l.dead.Store(true)
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
		l.bw = nil
		l.gen++
	}
	l.mu.Unlock()
	if h := l.t.h.PeerDead; h != nil {
		h(l.peer, reason)
	}
}

// tick runs the link's periodic work from the transport's ticker: failure
// detection, the retransmit clock, and heartbeats.
func (l *link) tick(now time.Time) {
	if l.dead.Load() || l.departed.Load() {
		return
	}
	cfg := &l.t.cfg
	if l.everUp.Load() {
		if silent := now.UnixNano() - l.lastRecv.Load(); silent > int64(cfg.PeerDeadAfter) {
			l.die(fmt.Sprintf("no traffic from node %d for %v (last heard %v ago; heartbeat timeout)",
				l.peer, cfg.PeerDeadAfter, time.Duration(silent).Round(time.Millisecond)))
			return
		}
	}

	l.mu.Lock()
	if len(l.unacked) > 0 && now.After(l.retryAt) && l.conn != nil && !l.partitioned.Load() {
		l.attempts++
		if l.attempts > cfg.RetryBudget {
			n, at := len(l.unacked), l.attempts-1
			l.mu.Unlock()
			l.die(fmt.Sprintf("retry budget exhausted: %d frames to node %d unacked after %d retransmit rounds",
				n, l.peer, at))
			return
		}
		n := len(l.unacked)
		lowest := l.unacked[0].seq
		for _, of := range l.unacked {
			l.bw.Write(of.buf)
		}
		if err := l.bw.Flush(); err != nil {
			l.teardownConnLocked()
		} else {
			l.stats.framesSent.Add(int64(n))
			l.stats.retransmits.Add(int64(n))
			l.stats.retryRounds.Add(1)
			if l.events != nil {
				l.events.add(obs.LinkEvent{
					TS: now.UnixNano(), Kind: obs.LinkRetransmit,
					Node: int32(l.t.cfg.Node), Peer: int32(l.peer),
					Seq: lowest, Bytes: int32(n),
				})
			}
		}
		l.retryAt = now.Add(l.backoff(l.attempts))
	}
	sendHB := now.Sub(l.lastHB) >= cfg.HeartbeatEvery
	if sendHB {
		l.lastHB = now
		l.hbNonce++
	}
	nonce := l.hbNonce
	l.mu.Unlock()

	if sendHB {
		l.stats.hbSent.Add(1)
		hb := Heartbeat{Nonce: nonce, SentUnixNano: now.UnixNano()}
		// Echo the newest heartbeat heard from the peer: that closes the
		// peer's NTP loop (its t0/t1 come back alongside our t2).
		l.clockMu.Lock()
		hb.EchoNonce = l.peerHB.Nonce
		hb.EchoSentUnixNano = l.peerHB.SentUnixNano
		hb.EchoRecvUnixNano = l.peerHBRecv
		l.clockMu.Unlock()
		l.sendControl(KindHeartbeat, hb.Encode())
	}
}

// noteHeartbeat ingests one received heartbeat: remembers it for echoing,
// and — when it echoes one of ours — turns the four timestamps into a clock
// offset sample.
func (l *link) noteHeartbeat(hb Heartbeat, now time.Time) {
	t3 := now.UnixNano()
	l.clockMu.Lock()
	if hb.Nonce > l.peerHB.Nonce {
		l.peerHB = hb
		l.peerHBRecv = t3
	}
	if l.clock.AddSample(hb.EchoSentUnixNano, hb.EchoRecvUnixNano, hb.SentUnixNano, t3) {
		off, _ := l.clock.Offset()
		delay, _ := l.clock.Delay()
		l.offNs.Store(off)
		if prev := l.rttNs.Load(); prev == 0 {
			l.rttNs.Store(delay)
		} else {
			l.rttNs.Store(prev - prev/8 + delay/8)
		}
		s := obs.ClockSample{
			Peer: int32(l.peer), LocalUnixNano: t3,
			OffsetNs: ((hb.EchoRecvUnixNano - hb.EchoSentUnixNano) + (hb.SentUnixNano - t3)) / 2,
			DelayNs:  (t3 - hb.EchoSentUnixNano) - (hb.SentUnixNano - hb.EchoRecvUnixNano),
		}
		if len(l.samples) < linkClockHistory {
			l.samples = append(l.samples, s)
		} else {
			l.samples[l.samplesN%linkClockHistory] = s
		}
		l.samplesN++
	}
	l.clockMu.Unlock()
}

// clockSamples returns the recorded offset-sample history, oldest first.
func (l *link) clockSamples() []obs.ClockSample {
	l.clockMu.Lock()
	defer l.clockMu.Unlock()
	out := make([]obs.ClockSample, 0, len(l.samples))
	if l.samplesN > linkClockHistory {
		start := l.samplesN % linkClockHistory
		out = append(out, l.samples[start:]...)
		out = append(out, l.samples[:start]...)
	} else {
		out = append(out, l.samples...)
	}
	return out
}

// backoff returns the exponential retransmit backoff for the given round,
// capped at RetryBackoffMax.
func (l *link) backoff(attempts int) time.Duration {
	d := l.t.cfg.RetryBackoff
	for i := 1; i < attempts && d < l.t.cfg.RetryBackoffMax; i++ {
		d *= 2
	}
	if d > l.t.cfg.RetryBackoffMax {
		d = l.t.cfg.RetryBackoffMax
	}
	return d
}

// injectDropLocked rolls the fault plan's drop dice for one first
// transmission.  Caller holds mu (the rng stream is mu-guarded).
func (l *link) injectDropLocked() bool {
	p := l.t.cfg.Faults.DropProb
	if p <= 0 {
		return false
	}
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<53) < p
}

// dialLoop establishes (and re-establishes) the connection from the dialing
// side, with exponential backoff between attempts.  Exactly one dialLoop
// runs per link at a time (the dialing flag).
func (l *link) dialLoop() {
	defer l.t.wg.Done()
	backoff := l.t.cfg.DialBackoff
	for {
		if l.t.closed.Load() || l.dead.Load() || l.departed.Load() {
			break
		}
		c, err := l.t.be.Dial(l.addr, l.t.cfg.DialTimeout)
		if err == nil {
			if l.handshakeDial(c) {
				break
			}
		}
		select {
		case <-l.t.stop:
			l.clearDialing()
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > l.t.cfg.DialBackoffMax {
			backoff = l.t.cfg.DialBackoffMax
		}
	}
	l.clearDialing()
}

func (l *link) clearDialing() {
	l.mu.Lock()
	l.dialing = false
	// A connection torn down between handshake success and this point would
	// have skipped arming a redial (dialing was still set); catch up.
	if l.conn == nil && l.dialer && !l.dead.Load() && !l.departed.Load() && !l.t.closed.Load() {
		l.dialing = true
		l.t.wg.Add(1)
		go l.dialLoop()
	}
	l.mu.Unlock()
}

// handshakeDial runs the dialing side of the handshake on a fresh
// connection: send Hello, await Welcome, validate identity, install.
func (l *link) handshakeDial(c Conn) bool {
	t := l.t
	hello := Hello{
		Job: t.cfg.Job, Node: int32(t.cfg.Node), Nodes: int32(len(t.cfg.Addrs)),
		NRanks: int32(t.nranks), Delivered: l.deliveredA.Load(),
	}
	f := Frame{Kind: KindHello, SrcNode: int32(t.cfg.Node), Payload: hello.Encode()}
	if _, err := c.Write(f.Encode()); err != nil {
		c.Close()
		return false
	}
	c.SetReadDeadline(time.Now().Add(t.cfg.DialTimeout))
	fr := frameReader{r: c}
	var rf Frame
	if err := fr.Read(&rf); err != nil || rf.Kind != KindWelcome {
		c.Close()
		return false
	}
	w, err := DecodeHello(rf.Payload)
	if err != nil || w.Job != t.cfg.Job || int(w.Node) != l.peer {
		// A different job or an unexpected identity on the peer's port: a
		// stale process or a misrouted address.  Keep retrying; the real
		// peer may still be starting up.
		c.Close()
		return false
	}
	if int(w.Nodes) != len(t.cfg.Addrs) || (t.nranks > 0 && w.NRanks > 0 && int(w.NRanks) != t.nranks) {
		c.Close()
		l.die(fmt.Sprintf("configuration mismatch with node %d: it runs %d nodes / %d ranks, this node %d / %d",
			l.peer, w.Nodes, w.NRanks, len(t.cfg.Addrs), t.nranks))
		return false
	}
	c.SetReadDeadline(time.Time{})
	return l.installConn(c, w.Delivered)
}

// snapshot captures the link's counters for Stats.
func (l *link) snapshot() LinkStats {
	l.mu.Lock()
	up := l.conn != nil
	unacked := len(l.unacked)
	reason := l.deadReason
	l.mu.Unlock()
	hbAge := int64(0)
	if last := l.lastRecv.Load(); last > 0 && l.everUp.Load() {
		hbAge = time.Now().UnixNano() - last
	}
	return LinkStats{
		SmoothedRTTNs:  l.rttNs.Load(),
		ClockOffsetNs:  l.offNs.Load(),
		HeartbeatAgeNs: hbAge,
		Node:           l.peer, Up: up, EverUp: l.everUp.Load(),
		Departed: l.departed.Load(), Dead: l.dead.Load(), DeadReason: reason,
		Unacked:        unacked,
		FramesSent:     l.stats.framesSent.Load(),
		FramesRecv:     l.stats.framesRecv.Load(),
		BytesSent:      l.stats.bytesSent.Load(),
		BytesRecv:      l.stats.bytesRecv.Load(),
		Retransmits:    l.stats.retransmits.Load(),
		DupsDropped:    l.stats.dupsDropped.Load(),
		OooDropped:     l.stats.oooDropped.Load(),
		Reconnects:     l.stats.reconnects.Load(),
		HeartbeatsSent: l.stats.hbSent.Load(),
		HeartbeatsRecv: l.stats.hbRecv.Load(),
		AcksSent:       l.stats.acksSent.Load(),
		AcksRecv:       l.stats.acksRecv.Load(),
		RetryRounds:    l.stats.retryRounds.Load(),
		DropsInjected:  l.stats.dropsInjected.Load(),
		DelaysInjected: l.stats.delaysInjected.Load(),
		SendBusy:       l.stats.sendBusy.Load(),
	}
}
