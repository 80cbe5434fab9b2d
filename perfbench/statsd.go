package main

import (
	"sync/atomic"
	"time"

	appstatsd "repro/internal/apps/statsd"
	proto "repro/internal/statsd"
	"repro/pure"
)

// statsdEvents is one pass's event count: a flush interval of ~10 ms, so
// a half-second launch holds the 20 passes its median needs.
const statsdEvents = 1 << 15

// statsdConfig is one pass of the pipeline: 1 ingester, 1 aggregator, zipf
// 1.2 keys, blocking backpressure, stealing drains, a shared interner.
func statsdConfig(seed uint64, pass int64, it *proto.Interner) appstatsd.Config {
	return appstatsd.Config{
		Ingesters:   1,
		Aggregators: 1,
		Events:      statsdEvents,
		Steal:       true,
		Gen:         proto.GenConfig{ZipfS: 1.2, Seed: splitmix(seed ^ uint64(pass)<<8)},
		Interner:    it,
	}
}

// statsdRun is one launch running pipeline passes back to back
// (passLoop).
type statsdRun struct {
	e        *env
	warm     time.Duration
	measure  time.Duration
	minOps   int       // measured passes at least, however long they take
	rec      *recorder // rank 0's pass spans in the traced run
	interner *proto.Interner

	last atomic.Int64

	// Written by rank 0, read after the launch.
	passes        []int64 // measured pass durations, ns
	events        int64   // events of every pass
	owner, stolen int64
	measured      phaseDelta
	wall          time.Duration
}

func newStatsdRun(e *env, warm, measure time.Duration) *statsdRun {
	r := &statsdRun{e: e, warm: warm, measure: measure, minOps: minOps(measure), interner: proto.NewInterner(4096)}
	r.last.Store(-1)
	return r
}

func (r *statsdRun) launch(cfg pure.Config) error {
	t := time.Now()
	err := pure.Run(cfg, r.body)
	r.wall = time.Since(t)
	return err
}

func (r *statsdRun) body(rk *pure.Rank) {
	rk.World().Barrier()
	if rk.ID() != 0 {
		followPasses(&r.last, func(k int64) { r.pass(rk, k) })
		return
	}
	r.measured = passLoop(r.warm, r.measure, r.minOps, &r.last, r.rec != nil, func(k int64, measured bool) time.Duration {
		if !measured {
			return r.pass(rk, k)
		}
		if r.rec != nil {
			r.rec.beginOp("pass", k)
		}
		d := r.pass(rk, k)
		if r.rec != nil {
			r.rec.endOp()
		}
		r.passes = append(r.passes, int64(d))
		return d
	})
}

// pass runs the pipeline once; rank 0 checks the flush snapshot's
// accounting: every event committed and applied exactly once, none dropped.
func (r *statsdRun) pass(rk *pure.Rank, k int64) time.Duration {
	t := time.Now()
	res, err := appstatsd.Run(rk, statsdConfig(r.e.seed, k, r.interner))
	d := time.Since(t)
	if rk.ID() != 0 {
		return d
	}
	r.events += statsdEvents
	r.owner += res.Owner
	r.stolen += res.Stolen
	r.e.attempted.Add(statsdEvents)
	switch {
	case err != nil:
		r.e.fail(statsdEvents, "statsd pass %d: %v", k, err)
	case !res.Exact || res.Applied != statsdEvents || res.Committed != statsdEvents || res.Dropped != 0:
		r.e.fail(statsdEvents, "statsd pass %d: exact=%v applied=%d committed=%d dropped=%d, want %d exact",
			k, res.Exact, res.Applied, res.Committed, res.Dropped, statsdEvents)
	}
	return d
}

func statsdWorkload(e *env) (*outcome, error) {
	cfg := pure.Config{NRanks: nranks, Deadline: runDeadline(e)}
	if !e.trace {
		m, err := measureE2E(e, oneNode, cfg, func(warm, measure time.Duration) ([]int64, error) {
			r := newStatsdRun(e, warm, measure)
			err := r.launch(cfg)
			return r.passes, err
		})
		return &outcome{e2e: m}, err
	}

	half := e.seconds / 2
	base := newStatsdRun(e, e.warm, half)
	if err := base.launch(cfg); err != nil {
		return nil, err
	}
	tr := newStatsdRun(e, e.warm, half)
	tr.rec = newRecorder(0)
	cfg.Metrics = pure.NewMetrics()
	if err := tr.launch(cfg); err != nil {
		return nil, err
	}
	cs := readCounters(cfg.Metrics)
	L := newLayers(e)
	L.common(cs, tr.measured, float64(tr.events), float64(len(tr.passes))*statsdEvents, tr.wall)
	L.setRatio("sched.steal_success_ratio", ratioOf(cs.c["pure_steals_total"], "steals", cs.c["pure_steal_attempts_total"], "attempts"))
	L.setRatio("sched.stolen_chunk_share", ratioOf(float64(tr.stolen), "chunks stolen", float64(tr.owner+tr.stolen), "drain chunks"))
	hits, misses, _ := tr.interner.Stats()
	L.setRatio("statsd.intern_hit_ratio", ratioOf(float64(hits), "interner hits", float64(hits+misses), "lookups"))
	L.setRatio("statsd.events_per_frame", ratioOf(float64(tr.events), "events", cs.c["pure_sends_eager_total"], "eager sends"))
	parse, intern, agg := statsdSidePass(e)
	L.set("statsd.parse_ns", parse)
	L.set("statsd.intern_ns", intern)
	L.set("statsd.aggregate_ns", agg)
	basep50, tracedp50 := p50(base.passes), p50(tr.passes)
	L.set("obs.trace_overhead_pct", 100*(tracedp50-basep50)/basep50)
	e.note("untraced pass p50 %.4g ms, traced pass p50 %.4g ms", basep50/1e6, tracedp50/1e6)
	checkSplit(e, oneNode, cs)
	return &outcome{layer: L.m, recs: []*recorder{tr.rec}}, nil
}

// statsdSidePass times the pipeline's per-event stages single-threaded on
// the workload's own lines: ParseLine, Interner.Intern and Agg.Apply, in
// ns per event.
func statsdSidePass(e *env) (parse, intern, agg float64) {
	const n = 1 << 16
	gen := proto.NewGen(statsdConfig(e.seed, 0, nil).Gen)
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = gen.Next(nil)
	}
	evs := make([]proto.Event, n)
	var bad int64
	t := time.Now()
	for i, l := range lines {
		if proto.ParseLine(l, &evs[i]) != nil {
			bad++
		}
	}
	parse = float64(time.Since(t).Nanoseconds()) / n
	if bad > 0 {
		e.fail(bad, "statsd side pass: %d generated lines failed to parse", bad)
	}

	it := proto.NewInterner(4096)
	tags := make([]*proto.Tagset, n)
	t = time.Now()
	for i := range evs {
		tags[i] = it.Intern(proto.Hash64(evs[i].Tags), evs[i].Tags)
	}
	intern = float64(time.Since(t).Nanoseconds()) / n

	a := proto.NewAgg()
	t = time.Now()
	for i := range evs {
		ev := &evs[i]
		nameH := proto.Hash64(ev.Name)
		a.Apply(proto.KeyHash(nameH, tags[i].Hash, ev.Type), nameH, tags[i].Hash, ev.Type, ev.Value)
	}
	agg = float64(time.Since(t).Nanoseconds()) / n
	return parse, intern, agg
}
