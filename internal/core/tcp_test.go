package core

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/obs"
	"repro/internal/topology"
	"repro/internal/transport"
)

// In-process multi-runtime TCP tests: one Runtime per virtual node, each in
// its own goroutine with its own Config.Transport, talking over real
// localhost TCP.  These are the single-process form of a purerun launch —
// every cross-node code path (link protocol, comm ids, RMA watermarks) is
// identical; only the process boundary is missing, which internal/livechaos
// covers with real SIGKILLs.

var tcpJobSeq atomic.Uint64

// tcpReserveAddrs picks n distinct localhost ports by binding and releasing
// them; the window between release and the transport's bind is the usual
// ephemeral-port reuse gamble, fine for tests.
func tcpReserveAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// tcpWorld runs one Runtime per node over real TCP and returns Run's error
// per node.  mut (optional) adjusts each node's config before launch.
func tcpWorld(t testing.TB, nodes, perNode int, mut func(node int, cfg *Config), main func(r *Rank)) []error {
	t.Helper()
	addrs := tcpReserveAddrs(t, nodes)
	job := tcpJobSeq.Add(1)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		cfg := Config{
			NRanks: nodes * perNode,
			Spec:   topology.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: perNode, ThreadsPerCore: 1},
			// Generous liveness bounds: a loaded CI host can starve a
			// heartbeat goroutine past the 200ms production default and
			// fail runs that aren't about failure detection.  Tests that
			// exercise the detector dial these back down in mut.
			Transport: &transport.Config{
				Node: n, Addrs: addrs, Job: job,
				HeartbeatEvery: 50 * time.Millisecond,
				PeerDeadAfter:  5 * time.Second,
			},
			HangTimeout: 20 * time.Second,
		}
		if mut != nil {
			mut(n, &cfg)
		}
		wg.Add(1)
		go func(n int, cfg Config) {
			defer wg.Done()
			errs[n] = Run(cfg, main)
		}(n, cfg)
	}
	wg.Wait()
	return errs
}

func tcpAllOK(t *testing.T, errs []error) {
	t.Helper()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
	}
}

func TestChaosTCPPingPong(t *testing.T) {
	const rounds = 50
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				w.Send(buf, 1, 7)
				got := make([]byte, 8)
				w.Recv(got, 1, 7)
				if v := binary.LittleEndian.Uint64(got); v != uint64(i*3) {
					panic(fmt.Sprintf("round %d: echoed %d", i, v))
				}
			} else {
				w.Recv(buf, 0, 7)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)*3)
				w.Send(buf, 0, 7)
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPLargeRendezvous sends payloads beyond SmallMsgMax so the
// cross-node path carries them in single frames (the transport does not
// split; MaxPayload is far above any test payload).
func TestChaosTCPLargeRendezvous(t *testing.T) {
	const size = 256 << 10
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		if r.ID() == 0 {
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i * 31)
			}
			w.Send(buf, 1, 1)
		} else {
			got := make([]byte, size)
			n := w.Recv(got, 0, 1)
			if n != size {
				panic(fmt.Sprintf("got %d bytes, want %d", n, size))
			}
			for i := range got {
				if got[i] != byte(i*31) {
					panic(fmt.Sprintf("byte %d corrupted", i))
				}
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPAllreduceSplit exercises the leader-tree collective legs over
// TCP plus the Allgather-based Split with its deterministic hashed comm ids
// (the cross-process correctness piece: both processes must derive the same
// id without a shared counter).
func TestChaosTCPAllreduceSplit(t *testing.T) {
	const nodes, perNode = 2, 2
	errs := tcpWorld(t, nodes, perNode, nil, func(r *Rank) {
		w := r.World()
		n := nodes * perNode

		in := make([]byte, 8)
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(in, uint64(1+r.ID()))
		w.Allreduce(in, out, collective.OpSum, collective.Int64)
		want := uint64(n * (n + 1) / 2)
		if got := binary.LittleEndian.Uint64(out); got != want {
			panic(fmt.Sprintf("rank %d: allreduce %d, want %d", r.ID(), got, want))
		}

		// Split by parity: each half spans both nodes, so the sub-comms'
		// collectives still bridge over the transport.
		sub := w.Split(r.ID()%2, r.ID())
		if sub == nil || sub.Size() != n/2 {
			panic("bad split")
		}
		binary.LittleEndian.PutUint64(in, uint64(r.ID()))
		sub.Allreduce(in, out, collective.OpSum, collective.Int64)
		var wantSub uint64
		for id := r.ID() % 2; id < n; id += 2 {
			wantSub += uint64(id)
		}
		if got := binary.LittleEndian.Uint64(out); got != wantSub {
			panic(fmt.Sprintf("rank %d: sub allreduce %d, want %d", r.ID(), got, wantSub))
		}
		sub.Barrier()
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPRMA drives the one-sided path across processes: Put + Fence
// (barrier form), Get (request/reply frames), Accumulate, and the PSCW
// epoch frames, with the applied watermark riding KindApplied frames.
func TestChaosTCPRMA(t *testing.T) {
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 64)
		win := w.WinCreate(buf)
		me, peer := r.ID(), 1-r.ID()

		if win.Len(peer) != 64 {
			panic(fmt.Sprintf("rank %d: peer window len %d", me, win.Len(peer)))
		}

		// Fence epoch: everyone puts a tagged byte into the peer.
		data := []byte{byte(0xA0 | me)}
		win.Put(data, peer, me)
		win.Fence()
		if buf[peer] != byte(0xA0|peer) {
			panic(fmt.Sprintf("rank %d: window byte %#x after fence", me, buf[peer]))
		}

		// Get reads the peer's own slot back out.
		got := make([]byte, 1)
		win.Get(got, peer, me)
		if got[0] != byte(0xA0|me) {
			panic(fmt.Sprintf("rank %d: get %#x", me, got[0]))
		}

		// Accumulate into slot 8 (int64), then fence and check the sum.
		one := make([]byte, 8)
		binary.LittleEndian.PutUint64(one, uint64(me+1))
		win.Accumulate(one, peer, 8, collective.OpSum, collective.Int64)
		win.Fence()
		if got := binary.LittleEndian.Uint64(buf[8:]); got != uint64(peer+1) {
			panic(fmt.Sprintf("rank %d: accumulated %d", me, got))
		}

		// PSCW: rank 0 exposes, rank 1 puts.
		for round := 0; round < 3; round++ {
			if me == 0 {
				win.Post([]int{1})
				win.Wait()
				if buf[32] != byte(round+1) {
					panic(fmt.Sprintf("round %d: pscw byte %d", round, buf[32]))
				}
			} else {
				win.Start([]int{0})
				win.Put([]byte{byte(round + 1)}, 0, 32)
				win.Complete()
			}
		}
		win.Free()
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPLossyRecovers runs ping-pong traffic over links that drop a
// quarter of first transmissions: the ack/retransmit protocol must recover
// every frame, and the recovery must be visible in the harvested metrics.
func TestChaosTCPLossyRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy links need real retransmit timeouts")
	}
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 1, func(n int, cfg *Config) {
		cfg.Metrics = mets[n]
		cfg.Transport.Faults = transport.Faults{Seed: 42, DropProb: 0.25}
		cfg.Transport.RetryBackoff = 2 * time.Millisecond
		cfg.Transport.RetryBudget = 1000
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < 100; i++ {
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				w.Send(buf, 1, 3)
				w.Recv(buf, 1, 4)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
					panic(fmt.Sprintf("round %d: echoed %d", i, got))
				}
			} else {
				w.Recv(buf, 0, 3)
				w.Send(buf, 0, 4)
			}
		}
	})
	tcpAllOK(t, errs)
	var drops, retrans int64
	for _, m := range mets {
		drops += m.Counter("pure_tp_drops_injected_total").Value()
		retrans += m.Counter("pure_tp_retransmits_total").Value()
	}
	if drops == 0 {
		t.Fatal("fault plan injected no drops; the test exercised nothing")
	}
	if retrans == 0 {
		t.Fatal("drops were injected but nothing was retransmitted")
	}
}

// TestChaosTCPLatencyInjection delays a third of arriving frames by up to
// 2ms: ordering and correctness must be unaffected (delays stall one
// link's reader, they never reorder the stream), the Allreduce results
// must stay exact, and the injections must be visible in the metrics.
func TestChaosTCPLatencyInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("injected delays add real wall time")
	}
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 2, func(n int, cfg *Config) {
		cfg.Metrics = mets[n]
		cfg.Transport.Faults = transport.Faults{Seed: 9, DelayProb: 0.33, DelayMax: 2 * time.Millisecond}
	}, func(r *Rank) {
		w := r.World()
		n := r.NRanks()
		in, out := make([]byte, 8), make([]byte, 8)
		for i := 0; i < 20; i++ {
			binary.LittleEndian.PutUint64(in, uint64(r.ID()+i))
			w.Allreduce(in, out, collective.OpSum, collective.Int64)
			want := uint64(n*i + n*(n-1)/2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				panic(fmt.Sprintf("iter %d: allreduce %d, want %d", i, got, want))
			}
		}
	})
	tcpAllOK(t, errs)
	var delays int64
	for _, m := range mets {
		delays += m.Counter("pure_tp_delays_injected_total").Value()
	}
	if delays == 0 {
		t.Fatal("fault plan injected no delays; the test exercised nothing")
	}
}

// TestChaosTCPKillLinkReconnect severs the TCP connection mid-stream from
// both sides; the link layer must redial and resume from the delivered
// watermarks without losing or duplicating a message.
func TestChaosTCPKillLinkReconnect(t *testing.T) {
	const rounds = 120
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < rounds; i++ {
			if i == rounds/3 || i == 2*rounds/3 {
				r.rt.tp.KillLink(1 - r.ID())
			}
			if r.ID() == 0 {
				binary.LittleEndian.PutUint64(buf, uint64(i*7))
				w.Send(buf, 1, 9)
				w.Recv(buf, 1, 9)
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i*7+1) {
					panic(fmt.Sprintf("round %d: echoed %d", i, got))
				}
			} else {
				w.Recv(buf, 0, 9)
				binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
				w.Send(buf, 0, 9)
			}
		}
	})
	tcpAllOK(t, errs)
}

// TestChaosTCPPartitionDeath partitions the link from node 0's side mid-run.
// Node 0 stops hearing node 1 (heartbeat silence); node 1's frames go
// unacked until its retry budget dies.  Both runtimes must return a
// structured *RunError naming the peer in DeadNodes — within HangTimeout,
// so the failure is attributed to the dead node rather than diagnosed as an
// anonymous stall.
func TestChaosTCPPartitionDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("failure detection needs real timeouts")
	}
	start := time.Now()
	const hang = 30 * time.Second
	errs := tcpWorld(t, 2, 1, func(n int, cfg *Config) {
		cfg.HangTimeout = hang
		cfg.Transport.HeartbeatEvery = 5 * time.Millisecond
		cfg.Transport.PeerDeadAfter = 100 * time.Millisecond
		cfg.Transport.RetryBackoff = 5 * time.Millisecond
		cfg.Transport.RetryBudget = 8
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		// One clean round proves the link is up before the partition.
		if r.ID() == 0 {
			w.Send(buf, 1, 2)
			w.Recv(buf, 1, 2)
			r.rt.tp.SetPartitioned(1, true)
			// Tag 99 is never sent: this blocks until heartbeat silence
			// kills the link and the poison unwinds the recv.
			w.Recv(buf, 1, 99)
		} else {
			w.Recv(buf, 0, 2)
			w.Send(buf, 0, 2)
			// Unacked frames pile up against the partition until the retry
			// budget declares node 0 dead and the send path unwinds.
			for {
				w.Send(buf, 0, 2)
				time.Sleep(time.Millisecond)
			}
		}
	})
	elapsed := time.Since(start)
	for n, err := range errs {
		re, ok := err.(*RunError)
		if !ok {
			t.Fatalf("node %d: got %v, want *RunError", n, err)
		}
		if re.Cause != CauseNodeDead {
			t.Fatalf("node %d: cause %q, want %q\n%v", n, re.Cause, CauseNodeDead, re)
		}
		if len(re.DeadNodes) != 1 || re.DeadNodes[0] != 1-n {
			t.Fatalf("node %d: dead nodes %v, want [%d]", n, re.DeadNodes, 1-n)
		}
	}
	if elapsed >= hang {
		t.Fatalf("failure detection took %v, not inside HangTimeout %v", elapsed, hang)
	}
}

// ---- Benchmarks ----

func BenchmarkTCPPingPong8B(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				w.Send(buf, 1, 5)
				w.Recv(buf, 1, 5)
			} else {
				w.Recv(buf, 0, 5)
				w.Send(buf, 0, 5)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPPingPong8BMonitored is the same cross-node exchange with each
// node's live monitor enabled (as under `purerun -monitor`): every frame
// additionally ticks the transport's per-peer link counters and the node
// serves /metrics, /ranks and /links.  The delta against
// BenchmarkTCPPingPong8B is the link-telemetry overhead, which must stay
// under 5% — the counters are lock-free atomics off the syscall path, and
// the labeled-series mirror only syncs on scrape.
func BenchmarkTCPPingPong8BMonitored(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 1, func(node int, cfg *Config) {
		cfg.MonitorAddr = "127.0.0.1:0"
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				w.Send(buf, 1, 5)
				w.Recv(buf, 1, 5)
			} else {
				w.Recv(buf, 0, 5)
				w.Send(buf, 0, 5)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPAllreduce8B(b *testing.B) {
	n := b.N
	errs := tcpWorld(b, 2, 2, nil, func(r *Rank) {
		w := r.World()
		in := make([]byte, 8)
		out := make([]byte, 8)
		for i := 0; i < n; i++ {
			w.Allreduce(in, out, collective.OpSum, collective.Int64)
		}
	})
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Doorbell wakeups ----
//
// A rank blocked on a socket wait parks on its bell instead of polling; the
// tests below pin down every ringer the park depends on.

// TestTCPParkedRecvUnwindsOnPeerAbort: a rank parked on a cross-node Recv
// that will never complete unwinds promptly when the peer node aborts — the
// abort Bye poisons this runtime, and the poison rings the parked rank —
// well inside both the heartbeat detector and the hang watchdog.
func TestTCPParkedRecvUnwindsOnPeerAbort(t *testing.T) {
	start := time.Now()
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			w.Send(buf, 1, 1)
			w.Recv(buf, 1, 99) // never sent: only the abort ends it
			return
		}
		w.Recv(buf, 0, 1)
		time.Sleep(20 * time.Millisecond) // let rank 0 park
		r.Abort(fmt.Errorf("test abort"))
	})
	elapsed := time.Since(start)
	re, ok := errs[0].(*RunError)
	if !ok || re.Cause != CauseNodeDead {
		t.Fatalf("node 0: got %v, want a node-dead *RunError", errs[0])
	}
	if _, ok := errs[1].(*RunError); !ok {
		t.Fatalf("node 1: got %v, want *RunError", errs[1])
	}
	if elapsed > 2*time.Second {
		t.Fatalf("parked rank took %v to unwind after the peer abort", elapsed)
	}
}

// TestTCPParkedRecvUnwindsOnDeadline: ranks parked on cross-node receives
// unwind with a deadline *RunError promptly once Config.Deadline expires.
func TestTCPParkedRecvUnwindsOnDeadline(t *testing.T) {
	const deadline = 200 * time.Millisecond
	start := time.Now()
	errs := tcpWorld(t, 2, 1, func(_ int, cfg *Config) {
		cfg.Deadline = deadline
	}, func(r *Rank) {
		buf := make([]byte, 8)
		r.World().Recv(buf, 1-r.ID(), 99) // never sent by either side
	})
	elapsed := time.Since(start)
	for n, err := range errs {
		re, ok := err.(*RunError)
		if !ok {
			t.Fatalf("node %d: got %v, want *RunError", n, err)
		}
		if re.Cause != CauseDeadline && re.Cause != CauseNodeDead {
			t.Fatalf("node %d: cause %q, want deadline (or the peer's deadline abort)", n, re.Cause)
		}
	}
	if elapsed > deadline+2*time.Second {
		t.Fatalf("parked ranks took %v to unwind (deadline %v)", elapsed, deadline)
	}
}

// TestTCPParkedRecvSteals: a rank parked on a remote receive is rung when a
// co-resident rank opens a Pure Task afterwards, and steals its chunks
// while it waits (the SSW promise holds for socket waits too).
func TestTCPParkedRecvSteals(t *testing.T) {
	var stolen atomic.Int64
	errs := tcpWorld(t, 2, 2, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		switch r.ID() {
		case 0:
			// Parks until rank 2 echoes rank 1's post-task message.
			w.Recv(buf, 2, 5)
			_, s := r.StealStats()
			stolen.Store(s)
		case 1:
			time.Sleep(20 * time.Millisecond) // let rank 0 park first
			task := r.NewTask(64, func(start, end int64, _ any) {
				time.Sleep(200 * time.Microsecond)
			})
			task.Execute(nil)
			w.Send(buf, 2, 4)
		case 2:
			w.Recv(buf, 1, 4)
			w.Send(buf, 0, 5)
		}
	})
	tcpAllOK(t, errs)
	if stolen.Load() == 0 {
		t.Fatal("rank parked on a remote receive stole no chunks of the task opened after it parked")
	}
}

// TestTCPSendWindowParksOnBell: with a one-frame resend window every send
// after the first finds the window full.  The refused sender parks on its
// bell and the ack that reopens the window rings it — the busy path has no
// fixed sleep, so most parks end by a ring rather than the safety-net
// timeout the park-timeout counter records.
func TestTCPSendWindowParksOnBell(t *testing.T) {
	const n = 200
	mets := []*obs.Metrics{obs.NewMetrics(), obs.NewMetrics()}
	errs := tcpWorld(t, 2, 1, func(node int, cfg *Config) {
		cfg.Metrics = mets[node]
		cfg.Transport.MaxUnacked = 1
	}, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf, uint64(i))
				w.Send(buf, 1, 3)
			}
			w.Recv(buf, 1, 4) // rank 1 has everything
			return
		}
		for i := 0; i < n; i++ {
			w.Recv(buf, 0, 3)
			if got := binary.LittleEndian.Uint64(buf); got != uint64(i) {
				panic(fmt.Sprintf("message %d carried %d", i, got))
			}
		}
		w.Send(buf, 0, 4)
	})
	tcpAllOK(t, errs)
	busy := mets[0].Counter("pure_tp_send_busy_total").Value()
	timeouts := mets[0].Counter("pure_tp_send_busy_park_timeouts_total").Value()
	if busy == 0 {
		t.Fatal("a one-frame window never refused a send (SendBusy 0)")
	}
	if 2*timeouts > busy {
		t.Fatalf("%d of %d busy parks ran out the safety-net timeout instead of being rung by the reopening ack", timeouts, busy)
	}
	t.Logf("SendBusy %d, parks ended by the timeout %d", busy, timeouts)
}

// TestTCPPingPongSteadyStateAllocs is the cross-node allocation gate: a
// warm 8-byte ping-pong over the real transport allocates nothing per round
// trip — pooled requests, recycled payload and encode buffers, piggybacked
// acks, a reused read frame.  The bound leaves room only for background
// heartbeats.
func TestTCPPingPongSteadyStateAllocs(t *testing.T) {
	const warm, rounds = 512, 4096
	var mallocs atomic.Uint64
	errs := tcpWorld(t, 2, 1, nil, func(r *Rank) {
		w := r.World()
		buf := make([]byte, 8)
		rt := func() {
			if r.ID() == 0 {
				w.Send(buf, 1, 5)
				w.Recv(buf, 1, 5)
			} else {
				w.Recv(buf, 0, 5)
				w.Send(buf, 0, 5)
			}
		}
		for i := 0; i < warm; i++ {
			rt()
		}
		var m0, m1 runtime.MemStats
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			rt()
		}
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs.Store(m1.Mallocs - m0.Mallocs)
		}
	})
	tcpAllOK(t, errs)
	if per := float64(mallocs.Load()) / rounds; per >= 0.05 {
		t.Fatalf("%d mallocs over %d warm TCP round trips (%.3f per round trip), want < 0.05",
			mallocs.Load(), rounds, per)
	}
}
