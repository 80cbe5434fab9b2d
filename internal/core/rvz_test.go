package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// Split-copy rendezvous edge cases: payloads around the split floor and the
// chunk size, short messages into long buffers, several transfers in flight
// on one channel, two split copies crossing, a receiver that is not there
// to help, and a peer that dies with a transfer in flight.

// rvzPattern fills a payload whose bytes depend on both the position and
// the message id, so a chunk landing at the wrong offset or from the wrong
// transfer changes the bytes.
func rvzPattern(size, id int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*7 + i>>11 + id*131)
	}
	return p
}

func TestRendezvousSplitSizes(t *testing.T) {
	sizes := []int{
		DefaultSmallMsgMax,
		rvzSplitMin - 1,
		rvzSplitMin,
		rvzSplitMin + 1,
		64<<10 + 13,
		1 << 20,
	}
	for _, size := range sizes {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			run(t, 2, func(r *Rank) {
				c := r.World()
				peer := 1 - r.ID()
				buf := make([]byte, size)
				for rep := 0; rep < 3; rep++ {
					want := rvzPattern(size, rep)
					if r.ID() == 0 {
						c.Send(want, peer, 0)
						n := c.Recv(buf, peer, 1)
						if n != size || !bytes.Equal(buf, want) {
							t.Errorf("rep %d: echo n=%d, bytes equal=%v", rep, n, bytes.Equal(buf[:n], want))
						}
					} else {
						n := c.Recv(buf, peer, 0)
						if n != size || !bytes.Equal(buf, want) {
							t.Errorf("rep %d: recv n=%d, bytes equal=%v", rep, n, bytes.Equal(buf[:n], want))
						}
						c.Send(buf[:n], peer, 1)
					}
				}
			})
		})
	}
}

func TestRendezvousShortMessageIntoLongBuffer(t *testing.T) {
	const size, posted = 40<<10 + 5, 1 << 20
	run(t, 2, func(r *Rank) {
		c := r.World()
		want := rvzPattern(size, 3)
		if r.ID() == 0 {
			c.Send(want, 1, 0)
			return
		}
		buf := bytes.Repeat([]byte{0xEE}, posted)
		n := c.Recv(buf, 0, 0)
		if n != size || !bytes.Equal(buf[:n], want) {
			t.Errorf("recv n=%d (want %d), bytes equal=%v", n, size, bytes.Equal(buf[:min(n, size)], want[:min(n, size)]))
		}
		for i := size; i < posted; i++ {
			if buf[i] != 0xEE {
				t.Fatalf("byte %d past the message was written: %#x", i, buf[i])
			}
		}
	})
}

func TestRendezvousFourOutstandingFIFO(t *testing.T) {
	const size, k = 64<<10 + 13, 4
	run(t, 2, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			reqs := make([]*Request, k)
			for i := range reqs {
				reqs[i] = c.Isend(rvzPattern(size, i), 1, 0)
			}
			c.Waitall(reqs...)
			return
		}
		bufs := make([][]byte, k)
		reqs := make([]*Request, k)
		for i := range reqs {
			bufs[i] = make([]byte, size)
			reqs[i] = c.Irecv(bufs[i], 0, 0)
		}
		for i, req := range reqs {
			if n := c.Wait(req); n != size {
				t.Errorf("recv %d: n=%d, want %d", i, n, size)
			}
			if !bytes.Equal(bufs[i], rvzPattern(size, i)) {
				t.Errorf("recv %d holds another message's bytes", i)
			}
		}
	})
}

func TestRendezvousSymmetricSendrecv(t *testing.T) {
	const size = 1 << 20
	run(t, 2, func(r *Rank) {
		c := r.World()
		peer := 1 - r.ID()
		in := make([]byte, size)
		for rep := 0; rep < 4; rep++ {
			n := c.Sendrecv(rvzPattern(size, 2*rep+r.ID()), peer, 0, in, peer, 0)
			if n != size || !bytes.Equal(in, rvzPattern(size, 2*rep+peer)) {
				t.Errorf("rep %d: n=%d, bytes equal=%v", rep, n, bytes.Equal(in[:n], rvzPattern(size, 2*rep+peer)))
			}
		}
	})
}

// TestRendezvousSenderFinishesAlone: the receiver posts its Irecv and then
// computes without entering the runtime until the sender's blocking Send
// has returned, so the sender must be able to copy every chunk itself.
func TestRendezvousSenderFinishesAlone(t *testing.T) {
	const size = 1 << 20
	met := obs.NewMetrics()
	var posted, sent atomic.Bool
	err := Run(Config{NRanks: 2, Metrics: met}, func(r *Rank) {
		c := r.World()
		if r.ID() == 0 {
			for !posted.Load() {
				runtime.Gosched()
			}
			c.Send(rvzPattern(size, 9), 1, 0)
			sent.Store(true)
			return
		}
		buf := make([]byte, size)
		req := c.Irecv(buf, 0, 0)
		posted.Store(true)
		for !sent.Load() {
			runtime.Gosched() // "compute": no runtime calls
		}
		if n := c.Wait(req); n != size || !bytes.Equal(buf, rvzPattern(size, 9)) {
			t.Errorf("recv n=%d, bytes equal=%v", n, bytes.Equal(buf[:n], rvzPattern(size, 9)))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Counter("pure_rendezvous_recv_chunks_total").Value(); got != 0 {
		t.Fatalf("receiver copied %d chunks while it was away computing", got)
	}
}

// TestRendezvousPeerPanicMidSplit: one side of a 1 MiB transfer dies with
// the split copy started.  The survivor must unwind with a *RunError, not
// wait forever for a completion or an envelope that never comes.
func TestRendezvousPeerPanicMidSplit(t *testing.T) {
	const size = 1 << 20
	t.Run("sender", func(t *testing.T) {
		err := Run(Config{NRanks: 2}, func(r *Rank) {
			c := r.World()
			if r.ID() == 0 {
				c.Barrier()
				c.Isend(rvzPattern(size, 1), 1, 0) // starts the split copy
				panic("sender died mid-transfer")
			}
			buf := make([]byte, size)
			req := c.Irecv(buf, 0, 0)
			c.Barrier()
			c.Wait(req)       // helps copy; may or may not see the completion
			c.Recv(buf, 0, 0) // never sent: parked until the poison spreads
		})
		checkRvzPanic(t, err, 0, 1)
	})
	t.Run("receiver", func(t *testing.T) {
		err := Run(Config{NRanks: 2}, func(r *Rank) {
			c := r.World()
			if r.ID() == 1 {
				a, b := make([]byte, size), make([]byte, size)
				c.Irecv(a, 0, 0)
				c.Barrier()
				c.Irecv(b, 0, 0) // probes the channel: copies chunks of a
				panic("receiver died mid-transfer")
			}
			c.Barrier()
			for i := 0; i < 3; i++ { // the third has no envelope
				c.Send(rvzPattern(size, i), 1, 0)
			}
		})
		checkRvzPanic(t, err, 1, 0)
	})
}

func checkRvzPanic(t *testing.T, err error, dead, survivor int) {
	t.Helper()
	re := asRunError(t, err)
	if re.Cause != CausePanic {
		t.Fatalf("cause = %q, want %q (err: %v)", re.Cause, CausePanic, err)
	}
	if len(re.Failures) != 1 || re.Failures[0].Rank != dead {
		t.Fatalf("failures = %+v, want just rank %d", re.Failures, dead)
	}
	if len(re.Blocked) != 1 || re.Blocked[0].Rank != survivor {
		t.Fatalf("blocked = %+v, want rank %d unwound mid-wait", re.Blocked, survivor)
	}
}

// TestRendezvousChunkAccounting: the receiver-copied chunk counter never
// exceeds the chunks the split transfers had, and every rendezvous send is
// one handoff.  The receiver's share itself depends on timing and is not
// asserted.
func TestRendezvousChunkAccounting(t *testing.T) {
	const size, reps = 64 << 10, 200
	met := obs.NewMetrics()
	err := Run(Config{NRanks: 2, Metrics: met}, func(r *Rank) {
		c := r.World()
		peer := 1 - r.ID()
		buf := make([]byte, size)
		for i := 0; i < reps; i++ {
			if r.ID() == 0 {
				c.Send(buf, peer, 0)
				c.Recv(buf, peer, 1)
			} else {
				c.Recv(buf, peer, 0)
				c.Send(buf, peer, 1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sends := met.Counter("pure_sends_rendezvous_total").Value()
	handoffs := met.Counter("pure_rendezvous_handoffs_total").Value()
	recvChunks := met.Counter("pure_rendezvous_recv_chunks_total").Value()
	total := int64(2*reps) * int64(rvzChunks(size))
	if sends != 2*reps || handoffs != sends {
		t.Fatalf("rendezvous sends = %d, handoffs = %d; want both %d", sends, handoffs, 2*reps)
	}
	if recvChunks < 0 || recvChunks > total {
		t.Fatalf("receiver chunks = %d, want within [0, %d]", recvChunks, total)
	}
	t.Logf("receivers copied %d of %d chunks (%.2f)", recvChunks, total, float64(recvChunks)/float64(total))
}
