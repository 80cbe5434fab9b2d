package statsd

import (
	"net"
	"sync"
	"testing"
	"time"

	proto "repro/internal/statsd"
	"repro/pure"
)

// runPipeline executes the pipeline under pure.Run and returns rank 0's
// Result (every rank receives the identical Allreduce, so one is enough).
func runPipeline(t *testing.T, pcfg pure.Config, cfg Config) Result {
	t.Helper()
	var res Result
	if cfg.Interner == nil {
		cfg.Interner = proto.NewInterner(4096)
	}
	err := pure.Run(pcfg, func(r *pure.Rank) {
		got, err := Run(r, cfg)
		if err != nil {
			r.Abort(err)
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

// runPipelineLossy executes the pipeline on two nodes of two ranks each
// (ingesters on node 0, aggregators on node 1 under SMP placement) as two
// pure.Run calls in this process, joined by localhost TCP through
// Config.Transport with the given fault plan.  It returns rank 0's Result
// and the link's injected drops and retransmits summed over both nodes.
// Each node gets its own interner, as separate processes would.
func runPipelineLossy(t *testing.T, faults pure.TransportFaults, cfg Config) (res Result, drops, retrans int64) {
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
	errs := make([]error, len(addrs))
	mets := make([]*pure.Metrics, len(addrs))
	var wg sync.WaitGroup
	for n := range addrs {
		mets[n] = pure.NewMetrics()
		pcfg := pure.Config{
			NRanks:  4,
			Spec:    pure.Spec{Nodes: 2, SocketsPerNode: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
			Metrics: mets[n],
			Transport: &pure.TransportConfig{
				Node: n, Addrs: addrs, Job: 1,
				HeartbeatEvery: 50 * time.Millisecond,
				PeerDeadAfter:  5 * time.Second,
				RetryBackoff:   2 * time.Millisecond,
				RetryBudget:    1000,
				Faults:         faults,
			},
			HangTimeout: 20 * time.Second,
		}
		ncfg := cfg
		ncfg.Interner = proto.NewInterner(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[n] = pure.Run(pcfg, func(r *pure.Rank) {
				got, err := Run(r, ncfg)
				if err != nil {
					r.Abort(err)
				}
				if r.ID() == 0 {
					res = got
				}
			})
		}()
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		drops += mets[n].Counter("pure_tp_drops_injected_total").Value()
		retrans += mets[n].Counter("pure_tp_retransmits_total").Value()
	}
	return res, drops, retrans
}

func checkExact(t *testing.T, res Result, wantEvents int64) {
	t.Helper()
	if !res.Exact {
		t.Errorf("zero-sum proof failed: applied %d events (sum %#x) vs committed %d",
			res.Applied, res.Sum, res.Committed)
	}
	if res.Applied != res.Committed {
		t.Errorf("applied %d != committed %d", res.Applied, res.Committed)
	}
	if got := res.Applied + res.Dropped; got != uint64(wantEvents) {
		t.Errorf("applied %d + dropped %d = %d, want every generated event (%d)",
			res.Applied, res.Dropped, got, wantEvents)
	}
	if res.Keys <= 0 {
		t.Error("no series aggregated")
	}
	if res.Sum == 0 {
		t.Error("flush snapshot checksum is zero")
	}
}

func TestPipelineExactBlocking(t *testing.T) {
	const events = 20000
	res := runPipeline(t,
		pure.Config{NRanks: 4},
		Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 3})
	checkExact(t, res, events)
	if res.Dropped != 0 {
		t.Errorf("blocking policy dropped %d events", res.Dropped)
	}
	if res.Applied != events {
		t.Errorf("applied %d of %d events", res.Applied, events)
	}
}

func TestPipelineExactDropPolicy(t *testing.T) {
	// Tiny queues, eager flushing and slow drains force TrySendBatch
	// refusals; the totals must stay exact with the drops accounted.
	const events = 20000
	res := runPipeline(t,
		pure.Config{NRanks: 3, PBQSlots: 2},
		Config{Ingesters: 2, Aggregators: 1, Events: events, Rounds: 2,
			Drop: true, BatchEvents: 16, DrainEvents: 512, WorkScale: 64})
	checkExact(t, res, events)
	t.Logf("drop policy: applied %d, dropped %d", res.Applied, res.Dropped)
}

func TestPipelineExactUnderLoss(t *testing.T) {
	// Two nodes joined by a transport link that drops 15% of first
	// transmissions.  The link retransmits; the pipeline totals must stay
	// exact.
	const events = 8000
	res, drops, retrans := runPipelineLossy(t,
		pure.TransportFaults{Seed: 7, DropProb: 0.15},
		Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 2})
	checkExact(t, res, events)
	if res.Applied != events {
		t.Errorf("lossy link lost events: applied %d of %d", res.Applied, events)
	}
	if drops == 0 {
		t.Error("no drops injected; the test exercised nothing")
	} else if retrans == 0 {
		t.Errorf("%d drops injected but no retransmits", drops)
	}
}

func TestPipelineZipfSteal(t *testing.T) {
	// A zipf-hot keyspace concentrates drain work on few sub-shards; with
	// Steal the drain runs as a Pure Task whose chunks parked ranks steal.
	const events = 30000
	cfg := Config{Ingesters: 2, Aggregators: 2, Events: events, Rounds: 2,
		Steal: true, Subshards: 16, WorkScale: 32,
		Gen: proto.GenConfig{ZipfS: 1.2}}
	res := runPipeline(t, pure.Config{NRanks: 4}, cfg)
	checkExact(t, res, events)
	if res.Owner+res.Stolen == 0 {
		t.Error("steal mode executed no drain chunks")
	}
	t.Logf("zipf steal: %d owner chunks, %d stolen", res.Owner, res.Stolen)
}

func TestPipelineSharedInterner(t *testing.T) {
	// All ingesters share one interner (the node-shared configuration):
	// concurrent first-interns under real scheduling, exactness preserved.
	const events = 16000
	it := proto.NewInterner(1024)
	res := runPipeline(t,
		pure.Config{NRanks: 4},
		Config{Ingesters: 3, Aggregators: 1, Events: events,
			Interner: it, Gen: proto.GenConfig{Tagsets: 96}})
	checkExact(t, res, events)
	if it.Len() == 0 {
		t.Error("shared interner interned nothing")
	}
	hits, misses, _ := it.Stats()
	t.Logf("shared interner: %d entries, %d hits, %d misses", it.Len(), hits, misses)
}

func TestPipelineManyRounds(t *testing.T) {
	// More rounds than events per ingester per round stays exact (empty
	// rounds still carry markers and join the rollup).
	res := runPipeline(t,
		pure.Config{NRanks: 2},
		Config{Ingesters: 1, Aggregators: 1, Events: 100, Rounds: 8})
	checkExact(t, res, 100)
}

func TestPipelineConfigErrors(t *testing.T) {
	err := pure.Run(pure.Config{NRanks: 2}, func(r *pure.Rank) {
		if _, err := Run(r, Config{Ingesters: 2, Aggregators: 2, Events: 10}); err == nil {
			t.Error("rank-count mismatch not rejected")
		}
		if _, err := Run(r, Config{Ingesters: 2, Aggregators: 0, Events: 10}); err == nil {
			t.Error("zero aggregators not rejected")
		}
		if _, err := Run(r, Config{Ingesters: 1, Aggregators: 1}); err == nil {
			t.Error("zero events not rejected")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
