package main

import (
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pure"
)

// Every workload runs 2 ranks: the box this benchmark was sized on has 2
// CPUs, and more spinning ranks than CPUs measures the OS scheduler.
const nranks = 2

// placement says where the two ranks live.
type placement int

const (
	// oneNode puts both ranks on one node: intra-node messaging only.
	oneNode placement = iota
	// twoNodes puts each rank on its own virtual node in this process,
	// linked by the real TCP transport over loopback (one link pair).
	twoNodes
)

var jobSeq atomic.Uint64

// nodeStagger is the gap between starting node 0 and node 1, as a launcher
// starting one process per node in order would leave.  Node 0 dials node
// 1, so its first dial finds no listener and every set-up pays the
// transport's dial retry, instead of winning or losing a start-up race.
const nodeStagger = 2 * time.Millisecond

// launch runs start once per node with the node's configuration filled in
// and returns the first error.  Under twoNodes both runtimes run
// concurrently in this process and share cfg.Metrics, whose counters then
// sum over the two nodes.
func launch(pl placement, cfg pure.Config, start func(pure.Config) error) error {
	cfg.NRanks = nranks
	if pl == oneNode {
		return start(cfg)
	}
	addrs, err := loopbackAddrs(nranks)
	if err != nil {
		return err
	}
	job := uint64(os.Getpid())<<20 | jobSeq.Add(1)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for n := 0; n < nranks; n++ {
		if n > 0 {
			time.Sleep(nodeStagger)
		}
		c := cfg
		c.Spec = pure.Spec{Nodes: nranks, SocketsPerNode: 1, CoresPerSocket: 1, ThreadsPerCore: 1}
		c.Transport = &pure.TransportConfig{Node: n, Addrs: addrs, Job: job}
		wg.Add(1)
		go func(n int, c pure.Config) {
			defer wg.Done()
			errs[n] = start(c)
		}(n, c)
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", n, err)
		}
	}
	return nil
}

// loopbackAddrs reserves n distinct loopback ports by binding them all,
// then releasing them.  Another process could take a port before the
// transport binds it; the transport then fails to listen and the run
// reports that error.
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// Set-up is measured at least minSetupReps times and until setupTime has
// passed, at most maxSetupReps times; setup_s is the median.  A one-node
// set-up takes microseconds and varies by several times between reps, so
// it needs hundreds of reps for a steady median.
const (
	minSetupReps = 11
	maxSetupReps = 401
	setupTime    = 300 * time.Millisecond
)

// A launch settles into one of a few speeds (where its threads land, how
// its buffers align), so a run is spread over launches launches of
// seconds/launches each, each after launchWarm of untimed ops.  p50_us is
// the mean of the launches' medians: a mixture of fast and slow launches
// moves it smoothly, where the median of the pooled samples would jump
// between modes.
const (
	launches   = 20
	launchWarm = 50 * time.Millisecond
)

// maxPooledPerLaunch caps what a launch adds to the pooled samples behind
// the printed tail, so a run of sub-microsecond ops does not hold hundreds
// of MB.  A launch with more samples adds every k-th of its sorted
// samples, which keeps its quantiles.
const maxPooledPerLaunch = 1 << 18

// minOps is how many ops a launch that measures must complete before it
// may end, so its median is valid even when a slow machine makes the
// ops outlast the launch's time.
func minOps(measure time.Duration) int {
	if measure <= 0 {
		return 0
	}
	return minSamples(0.5)
}

// passLoop is rank 0's schedule when the op is a whole pass (CoMD,
// statsd): untimed passes until warm has passed, then measured passes
// until measure has passed and at least minOps ran.  Before its last pass
// it publishes that pass's index in last, which the other rank checks
// after each pass (followPasses): that rank cannot finish a pass before
// rank 0 has started it, so no control message joins the measured
// traffic.  pass runs pass k; with trace set, the returned phaseDelta
// covers the measured passes.
func passLoop(warm, measure time.Duration, minOps int, last *atomic.Int64, trace bool, pass func(k int64, measured bool) time.Duration) phaseDelta {
	warmEnd := time.Now().Add(warm)
	var measureEnd time.Time
	var ph *phase
	var passTime time.Duration
	n := 0
	for k := int64(0); ; k++ {
		t := time.Now()
		if t.Before(warmEnd) {
			passTime = pass(k, false)
			continue
		}
		if measureEnd.IsZero() {
			measureEnd = t.Add(measure)
			if trace {
				ph = startPhase()
			}
		}
		isLast := !t.Add(passTime).Before(measureEnd) && n+1 >= minOps
		if isLast {
			last.Store(k)
		}
		passTime = pass(k, true)
		n++
		if isLast {
			break
		}
	}
	if ph == nil {
		return phaseDelta{}
	}
	return ph.end()
}

// followPasses is the other rank's side of passLoop.
func followPasses(last *atomic.Int64, pass func(k int64)) {
	for k := int64(0); ; k++ {
		pass(k)
		if l := last.Load(); l >= 0 && k >= l {
			return
		}
	}
}

// measureE2E is the untraced run shared by every workload: an untimed
// warm-up launch, the set-up measurement, then the measured launches.
// run performs one launch and returns rank 0's op latencies in ns.
func measureE2E(e *env, pl placement, cfg pure.Config, run func(warm, measure time.Duration) ([]int64, error)) (map[string]float64, error) {
	if _, err := run(e.warm, 0); err != nil {
		return nil, err
	}
	setup, err := measureSetup(pl, cfg)
	if err != nil {
		return nil, err
	}
	var pooled []int64
	var sumP50 float64
	for i := 0; i < launches; i++ {
		lat, err := run(launchWarm, e.seconds/launches)
		if err != nil {
			return nil, err
		}
		slices.Sort(lat)
		p50, ok := percentile(lat, 0.5)
		if !ok {
			return nil, fmt.Errorf("launch %d has %d samples: a median needs at least %d", i, len(lat), minSamples(0.5))
		}
		sumP50 += float64(p50)
		step := (len(lat) + maxPooledPerLaunch - 1) / maxPooledPerLaunch
		for j := 0; j < len(lat); j += step {
			pooled = append(pooled, lat[j])
		}
	}
	printTail(e, pooled)
	return map[string]float64{"p50_us": sumP50 / launches / 1e3, "setup_s": setup}, nil
}

// measureSetup times the span from the Run call until rank 0 leaves the
// first barrier, repeatedly, and returns the median in seconds.
func measureSetup(pl placement, cfg pure.Config) (float64, error) {
	var secs []float64
	for start := time.Now(); len(secs) < maxSetupReps && (len(secs) < minSetupReps || time.Since(start) < setupTime); {
		var left time.Duration
		t0 := time.Now()
		err := launch(pl, cfg, func(c pure.Config) error {
			return pure.Run(c, func(r *pure.Rank) {
				r.World().Barrier()
				if r.ID() == 0 {
					left = time.Since(t0)
				}
			})
		})
		if err != nil {
			return 0, fmt.Errorf("set-up run: %w", err)
		}
		secs = append(secs, left.Seconds())
	}
	return medianOf(secs), nil
}

// counters sums a metrics snapshot's counters and gauges by base name
// (labels such as peer="1" are folded together) and counts the series
// behind each gauge, so per-link gauges can be averaged.
type counters struct {
	c      map[string]float64
	g      map[string]float64
	gauges map[string]int
}

func readCounters(m *pure.Metrics) counters {
	cs := counters{c: map[string]float64{}, g: map[string]float64{}, gauges: map[string]int{}}
	if m == nil {
		return cs
	}
	s := m.Snapshot()
	for _, c := range s.Counters {
		cs.c[baseName(c.Name)] += float64(c.Value)
	}
	for _, g := range s.Gauges {
		b := baseName(g.Name)
		cs.g[b] += float64(g.Value)
		cs.gauges[b]++
	}
	return cs
}

func baseName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// gaugeMean averages a gauge over its series.
func (cs counters) gaugeMean(name string) float64 {
	if cs.gauges[name] == 0 {
		return 0
	}
	return cs.g[name] / float64(cs.gauges[name])
}
