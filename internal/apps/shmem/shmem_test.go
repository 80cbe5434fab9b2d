package shmemapp

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pure"
)

// chaosSeeds mirrors the pure-package convention: {1, 2, 3} by default,
// PURE_CHAOS_SEEDS=comma,separated,ints to override.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("PURE_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad PURE_CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// multiNodeCfg places one rank per node so every remote operation crosses
// the modeled network.
func multiNodeCfg(nodes int) pure.Config {
	return pure.Config{
		NRanks:       nodes,
		Spec:         pure.Spec{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		RanksPerNode: 1,
		Net:          pure.NetConfig{LatencyNs: 200, BytesPerNs: 10, TimeScale: 10},
		HangTimeout:  30 * time.Second,
	}
}

var loopbackJobSeq atomic.Uint64

// runLossy runs main on multiNodeCfg(2) as two pure.Run calls in this
// process, one per node, joined by localhost TCP through Config.Transport.
// The link drops 15% of first transmissions and delays 10% of arrivals
// (seeded), so every remote shmem op rides the link's ack/retransmit
// protocol.  It fails the test on any node's error or when the plan
// injected no drops or the link retransmitted nothing.
func runLossy(t *testing.T, seed int64, main func(r *pure.Rank)) {
	t.Helper()
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserving port: %v", err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	job := loopbackJobSeq.Add(1)
	errs := make([]error, len(addrs))
	mets := make([]*pure.Metrics, len(addrs))
	var wg sync.WaitGroup
	for n := range addrs {
		cfg := multiNodeCfg(2)
		mets[n] = pure.NewMetrics()
		cfg.Metrics = mets[n]
		cfg.Transport = &pure.TransportConfig{
			Node: n, Addrs: addrs, Job: job,
			HeartbeatEvery: 50 * time.Millisecond,
			PeerDeadAfter:  5 * time.Second,
			RetryBackoff:   2 * time.Millisecond,
			RetryBudget:    1000,
			Faults: pure.TransportFaults{
				Seed: uint64(seed), DropProb: 0.15, DelayProb: 0.10, DelayMax: time.Millisecond,
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[n] = pure.Run(cfg, main)
		}()
	}
	wg.Wait()
	var drops, retrans int64
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		drops += mets[n].Counter("pure_tp_drops_injected_total").Value()
		retrans += mets[n].Counter("pure_tp_retransmits_total").Value()
	}
	if drops == 0 {
		t.Fatalf("seed %d: no drops injected; the test exercised nothing", seed)
	}
	if retrans == 0 {
		t.Fatalf("seed %d: %d drops injected but no retransmits", seed, drops)
	}
}

func runHist(t *testing.T, cfg pure.Config, hcfg HistConfig) HistResult {
	t.Helper()
	var res HistResult
	err := pure.Run(cfg, func(r *pure.Rank) {
		got, herr := RunHistogram(r, hcfg)
		if herr != nil {
			r.Abort(herr)
			return
		}
		if r.ID() == 0 {
			res = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHistogramSingleNode: 4 co-resident ranks; the distributed totals
// must be bit-exact against the serial reference every round, and the
// checksum must equal the oracle's.
func TestHistogramSingleNode(t *testing.T) {
	hcfg := HistConfig{Bins: 128, Items: 1024, Rounds: 3, Seed: 7}
	res := runHist(t, pure.Config{NRanks: 4}, hcfg)
	if !res.Exact {
		t.Fatal("histogram diverged from the serial reference")
	}
	if want := int64(4 * 1024 * 3); res.Updates != want {
		t.Fatalf("updates = %d, want %d", res.Updates, want)
	}
	ref := HistReference(hcfg, 4, 3)
	var want int64
	for b, v := range ref {
		want += v * int64(b+1)
	}
	if res.Sum != want {
		t.Fatalf("checksum = %d, want %d", res.Sum, want)
	}
}

// TestHistogramCrossNode: every increment to a peer bin crosses the
// modeled wire as a FrameShmem atomic add; exactness must survive.
func TestHistogramCrossNode(t *testing.T) {
	res := runHist(t, multiNodeCfg(2), HistConfig{Bins: 64, Items: 200, Rounds: 2, Seed: 11})
	if !res.Exact {
		t.Fatal("cross-node histogram diverged from the serial reference")
	}
}

// TestChaosHistogramLossy runs the histogram on two one-rank nodes over a
// lossy transport link, and the histogram must still be bit-exact: the
// link protocol recovers every dropped or delayed atomic-add frame.
func TestChaosHistogramLossy(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var res HistResult
			runLossy(t, seed, func(r *pure.Rank) {
				got, herr := RunHistogram(r, HistConfig{Bins: 32, Items: 60, Rounds: 2, Seed: uint64(seed)})
				if herr != nil {
					r.Abort(herr)
					return
				}
				if r.ID() == 0 {
					res = got
				}
			})
			if !res.Exact {
				t.Fatal("lossy-link histogram diverged from the serial reference")
			}
		})
	}
}

func runBFS(t *testing.T, cfg pure.Config, bcfg BFSConfig) BFSResult {
	t.Helper()
	var res BFSResult
	err := pure.Run(cfg, func(r *pure.Rank) {
		got, berr := RunBFS(r, bcfg)
		if berr != nil {
			r.Abort(berr)
			return
		}
		if r.ID() == 0 {
			res = got
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBFSSingleNode: 4 ranks over mailboxes in one node's shared memory.
// The ring+skip graph is connected (ring edges alone connect it), so every
// vertex must be reached, at oracle-identical distances.
func TestBFSSingleNode(t *testing.T) {
	bcfg := BFSConfig{Vertices: 1024, Degree: 3, Seed: 5}
	res := runBFS(t, pure.Config{NRanks: 4}, bcfg)
	if !res.Exact {
		t.Fatal("BFS distances diverged from the serial reference")
	}
	if res.Reached != int64(bcfg.Vertices) {
		t.Fatalf("reached %d of %d vertices", res.Reached, bcfg.Vertices)
	}
}

// TestBFSSmallMailbox squeezes the frontier exchange through capacity-2
// rings, forcing the drain-on-full path constantly.
func TestBFSSmallMailbox(t *testing.T) {
	res := runBFS(t, pure.Config{NRanks: 4}, BFSConfig{Vertices: 512, Degree: 4, MailboxCap: 2, Seed: 9})
	if !res.Exact {
		t.Fatal("BFS with tiny mailboxes diverged from the serial reference")
	}
}

// TestBFSCrossNode sends the frontier through remote mailboxes (claim =
// remote CAS, fill/publish = remote put/store on one FIFO flow).
func TestBFSCrossNode(t *testing.T) {
	res := runBFS(t, multiNodeCfg(2), BFSConfig{Vertices: 96, Degree: 2, MailboxCap: 8, Seed: 13})
	if !res.Exact {
		t.Fatal("cross-node BFS diverged from the serial reference")
	}
	if res.Reached != 96 {
		t.Fatalf("reached %d of 96 vertices", res.Reached)
	}
}

// TestChaosBFSLossy runs the mailbox frontier exchange over a lossy
// transport link: per-sender FIFO and exactly-once delivery must survive
// retransmission, or distances diverge.
func TestChaosBFSLossy(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var res BFSResult
			runLossy(t, seed, func(r *pure.Rank) {
				got, berr := RunBFS(r, BFSConfig{Vertices: 48, Degree: 2, MailboxCap: 4, Seed: uint64(seed) + 1})
				if berr != nil {
					r.Abort(berr)
					return
				}
				if r.ID() == 0 {
					res = got
				}
			})
			if !res.Exact {
				t.Fatal("lossy-link BFS diverged from the serial reference")
			}
		})
	}
}

// TestBFSReferenceConnected pins the oracle itself: ring edges make the
// graph connected, so no vertex may stay at -1.
func TestBFSReferenceConnected(t *testing.T) {
	ref := BFSReference(BFSConfig{Vertices: 300, Degree: 1, Seed: 3})
	for v, d := range ref {
		if d < 0 {
			t.Fatalf("vertex %d unreachable in a ring-connected graph", v)
		}
	}
}
