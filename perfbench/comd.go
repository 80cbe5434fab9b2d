package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/comm"
	"repro/internal/apps/comd"
	"repro/mpibase"
	"repro/pure"
)

// comdSteps is the timestep count of one CoMD pass, short enough that a
// half-second launch holds the 20 passes its median needs.
const comdSteps = 10

// comdParams is the seeded CoMD input: 2 ranks on grid [2,1,1], 8³ cells
// per rank, 4 atoms per cell, the force loop as a Pure Task, and a hotspot
// whose start and direction come from the seed.  The hotspot crosses the
// 16-cell x extent of the domain exactly once per pass, so every seed puts
// it at the same set of positions, in a different order: the seed changes
// the inputs, not the amount of work.
func comdParams(seed uint64) comd.Params {
	x := splitmix(seed ^ 0xc0d)
	speed := 16.0 / comdSteps
	if x&1 == 1 {
		speed = -speed
	}
	center := comd.Vec3{X: 16 * float64(x>>11) / (1 << 53), Y: 4, Z: 4}
	vel := comd.Vec3{X: speed}
	return comd.Params{
		Grid:         [3]int{2, 1, 1},
		CellsPerRank: [3]int{8, 8, 8},
		AtomsPerCell: 4,
		Steps:        comdSteps,
		ExtraWork:    1,
		UseTask:      true,
		Hotspot: &comd.Hotspot{
			Sphere:   comd.Sphere{Center: center, Radius: 3},
			Velocity: vel,
			Factor:   8,
		},
	}
}

// comdAtoms is the conserved global atom count (no voids).
const comdAtoms = 2 * 8 * 8 * 8 * 4

// comdRun is one launch running CoMD passes back to back (passLoop).
// Rank 0 times each pass, the end-to-end op: one simulation from set-up to
// checked result.  It also times each step, as the interval between
// consecutive force-task executions, for the traced run's split of a step.
type comdRun struct {
	e       *env
	p       comd.Params
	want    comd.Result
	warm    time.Duration
	measure time.Duration
	minOps  int // measured passes at least, however long they take
	recs    [nranks]*recorder

	last atomic.Int64

	// Written by rank 0 (chunks by each rank), read after the launch.
	passes   []int64 // measured pass durations (time to solution), ns
	steps    []int64 // measured step durations, ns
	waits    []int64 // blocking-call time inside each measured step, ns
	allSteps int64
	chunks   [nranks]int64
	measured phaseDelta
	wall     time.Duration
}

func newComdRun(e *env, want comd.Result, warm, measure time.Duration) *comdRun {
	r := &comdRun{e: e, p: comdParams(e.seed), want: want, warm: warm, measure: measure, minOps: minOps(measure)}
	r.last.Store(-1)
	return r
}

func (r *comdRun) body(b comm.Backend) {
	b.Barrier()
	rank := b.Rank()
	plain := &probe{Backend: b}
	traced := plain
	if rec := r.recs[rank]; rec != nil {
		traced = &probe{Backend: b, rec: rec}
	}
	if rank != 0 {
		followPasses(&r.last, func(int64) { r.pass(traced) })
		r.chunks[rank] = traced.chunks
		return
	}
	r.measured = passLoop(r.warm, r.measure, r.minOps, &r.last, r.recs[0] != nil, func(_ int64, measured bool) time.Duration {
		if !measured {
			return r.pass(plain)
		}
		traced.stamps, traced.waits = traced.stamps[:0], traced.waits[:0]
		d := r.pass(traced)
		r.passes = append(r.passes, int64(d))
		for i := 1; i < len(traced.stamps); i++ {
			r.steps = append(r.steps, traced.stamps[i]-traced.stamps[i-1])
			if r.recs[0] != nil {
				r.waits = append(r.waits, traced.waits[i])
			}
		}
		return d
	})
	r.chunks[0] = plain.chunks + traced.chunks
}

// pass runs one CoMD simulation and checks its invariants against the
// mpibase reference; rank 0 accounts the pass's steps.
func (r *comdRun) pass(b *probe) time.Duration {
	t := time.Now()
	got, err := comd.Run(b, r.p)
	d := time.Since(t)
	if b.Rank() != 0 {
		return d
	}
	r.allSteps += int64(r.p.Steps)
	r.e.attempted.Add(int64(r.p.Steps))
	switch {
	case err != nil:
		r.e.fail(int64(r.p.Steps), "comd pass: %v", err)
	case got.Atoms != comdAtoms:
		r.e.fail(int64(r.p.Steps), "comd pass lost atoms: %d, want %d", got.Atoms, comdAtoms)
	case got != r.want:
		r.e.fail(int64(r.p.Steps), "comd pass result %+v differs from mpibase %+v", got, r.want)
	}
	return d
}

// comdReference runs one pass on the mpibase backend: the expected
// invariants, and the step times of the MPI baseline.
func comdReference(e *env) (comd.Result, []int64, error) {
	p := comdParams(e.seed)
	var res comd.Result
	var steps []int64
	var runErr error
	err := comm.RunMPI(mpibase.Config{NRanks: nranks}, func(b comm.Backend) {
		pb := &probe{Backend: b}
		got, err := comd.Run(pb, p)
		if b.Rank() == 0 {
			res, runErr = got, err
			for i := 1; i < len(pb.stamps); i++ {
				steps = append(steps, pb.stamps[i]-pb.stamps[i-1])
			}
		}
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return res, nil, fmt.Errorf("mpibase reference: %w", err)
	}
	if res.Atoms != comdAtoms {
		return res, nil, fmt.Errorf("mpibase reference has %d atoms, want %d", res.Atoms, comdAtoms)
	}
	return res, steps, nil
}

func (r *comdRun) launch(cfg pure.Config) error {
	t := time.Now()
	err := comm.RunPure(cfg, r.body)
	r.wall = time.Since(t)
	return err
}

func comdWorkload(e *env) (*outcome, error) {
	want, mpiSteps, err := comdReference(e)
	if err != nil {
		return nil, err
	}
	cfg := pure.Config{NRanks: nranks, Deadline: runDeadline(e)}
	if !e.trace {
		m, err := measureE2E(e, oneNode, cfg, func(warm, measure time.Duration) ([]int64, error) {
			r := newComdRun(e, want, warm, measure)
			err := r.launch(cfg)
			return r.passes, err
		})
		return &outcome{e2e: m}, err
	}

	half := e.seconds / 2
	base := newComdRun(e, want, e.warm, half)
	if err := base.launch(cfg); err != nil {
		return nil, err
	}
	tr := newComdRun(e, want, e.warm, half)
	tr.recs = [nranks]*recorder{newRecorder(0), newRecorder(1)}
	cfg.Metrics = pure.NewMetrics()
	if err := tr.launch(cfg); err != nil {
		return nil, err
	}
	cs := readCounters(cfg.Metrics)
	L := newLayers(e)
	L.common(cs, tr.measured, float64(tr.allSteps), float64(len(tr.steps)), tr.wall)
	rec := tr.recs[0]
	var stepNS, waitNS int64
	for i := range tr.steps {
		stepNS += tr.steps[i]
		waitNS += tr.waits[i]
	}
	L.set("sched.execute_ms_p50", p50(rec.durs[kExecute])/1e6)
	L.setRatio("sched.steal_success_ratio", ratioOf(cs.c["pure_steals_total"], "steals", cs.c["pure_steal_attempts_total"], "attempts"))
	L.setRatio("sched.stolen_chunk_share", ratioOf(cs.c["pure_chunks_stolen_total"], "chunks stolen", float64(tr.chunks[0]+tr.chunks[1]), "chunks executed"))
	L.setRatio("ssw.wait_share", ratioOf(float64(waitNS), "ns in blocking calls", float64(stepNS), "ns of steps"))
	L.setRatio("comd.compute_ms_per_step", ratioOf(float64(stepNS-waitNS)/1e6, "ms outside comm calls", float64(len(tr.steps)), "steps"))
	L.set("collective.allreduce_us_p50", p50(rec.durs[kAllreduce])/1e3)
	basep50, tracedp50 := p50(base.passes), p50(tr.passes)
	L.set("obs.trace_overhead_pct", 100*(tracedp50-basep50)/basep50)
	e.note("untraced pass p50 %.4g ms, traced pass p50 %.4g ms", basep50/1e6, tracedp50/1e6)
	L.set("mpibase.step_ms_p50", p50(mpiSteps)/1e6)
	e.note("pure/mpibase step p50 %s", ratioOf(p50(base.steps), "pure untraced ns", p50(mpiSteps), "mpibase ns"))

	checkSplit(e, oneNode, cs)
	for _, name := range []string{"pure_sends_rendezvous_total", "pure_steals_total"} {
		if cs.c[name] == 0 {
			e.fail(1, "layer split: %s is 0 on comd-hotspot", name)
		}
	}
	return &outcome{layer: L.m, recs: tr.recs[:]}, nil
}
