package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/comm"
	"repro/mpibase"
	"repro/pure"
)

// The ping workloads are closed loops with one outstanding op from rank 0:
// a round trip (rank 0 sends, rank 1 echoes) or an 8-byte Allreduce.

type opKind int

const (
	opRTT opKind = iota
	opAllreduce
)

const tagPing = 7

// allocOps is how many ops the traced run counts heap allocations over.
const allocOps = 1 << 14

// pingRun is one launch of the loop.  Ops run in blocks; before its last
// block rank 0 publishes that block's index in last, and rank 1 checks it
// after each block.  Rank 1 cannot finish a block before rank 0 has started
// it, so the loop ends without a control message in the measured traffic.
type pingRun struct {
	e       *env
	kind    opKind
	size    int
	warm    time.Duration // untimed ops first
	measure time.Duration // then timed ops
	allocs  bool          // then allocOps ops between MemStats reads
	recs    [nranks]*recorder

	last atomic.Int64

	// Written by rank 0, read after the launch returns.
	lat      []int64 // measured op latencies, ns
	ops      int64   // every op rank 0 completed
	measured phaseDelta
	mallocs  uint64
	wall     time.Duration
}

func newPingRun(e *env, kind opKind, size int, warm, measure time.Duration) *pingRun {
	r := &pingRun{e: e, kind: kind, size: size, warm: warm, measure: measure}
	r.last.Store(-1)
	return r
}

func (r *pingRun) blockOps() int64 {
	if r.size > 8<<10 {
		return 8
	}
	return 64
}

func (r *pingRun) runPure(pl placement, cfg pure.Config) error {
	t := time.Now()
	err := launch(pl, cfg, func(c pure.Config) error { return comm.RunPure(c, r.body) })
	r.wall = time.Since(t)
	return err
}

func (r *pingRun) runMPI() error {
	return comm.RunMPI(mpibase.Config{NRanks: nranks}, r.body)
}

func (r *pingRun) body(b comm.Backend) {
	b.Barrier()
	s := r.newPinger(b)
	if s.rank == 0 {
		r.lead(s)
	} else {
		r.follow(s)
	}
}

// lead is rank 0's schedule: warm-up, measurement, optional allocation
// count, then the announced last block.
func (r *pingRun) lead(s *pinger) {
	k := int64(0)
	for end := time.Now().Add(r.warm); time.Now().Before(end); k++ {
		s.block(k, false)
	}
	var ph *phase
	if s.rec != nil {
		ph = startPhase()
	}
	for end := time.Now().Add(r.measure); time.Now().Before(end); k++ {
		s.block(k, true)
	}
	if ph != nil {
		r.measured = ph.end()
	}
	if r.allocs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for n := int64(0); n < allocOps; n += r.blockOps() {
			s.block(k, false)
			k++
		}
		runtime.ReadMemStats(&m1)
		r.mallocs = m1.Mallocs - m0.Mallocs
	}
	r.last.Store(k)
	s.block(k, false)
	r.e.attempted.Add(s.checked)
}

func (r *pingRun) follow(s *pinger) {
	followPasses(&r.last, func(k int64) { s.block(k, false) })
	r.e.attempted.Add(s.checked)
}

// pinger is one rank's buffers for the loop.
type pinger struct {
	r    *pingRun
	raw  comm.Backend
	b    comm.Backend // raw, or a probe around it in the traced run
	rec  *recorder
	rank int
	seed uint64

	pool    [][]byte // rank 0's seeded payloads, one reused per op
	in      []byte
	arIn    []byte
	arOut   []byte
	checked int64
}

func (r *pingRun) newPinger(b comm.Backend) *pinger {
	s := &pinger{r: r, raw: b, b: b, rank: b.Rank(), seed: r.e.seed, arIn: make([]byte, 8), arOut: make([]byte, 8)}
	if rec := r.recs[s.rank]; rec != nil {
		s.rec = rec
		s.b = &probe{Backend: b, rec: rec}
	}
	s.in = make([]byte, r.size)
	if s.rank == 0 && r.kind == opRTT {
		rng := s.seed
		for i := 0; i < 4; i++ {
			p := make([]byte, r.size)
			for j := 0; j+8 <= len(p); j += 8 {
				rng = splitmix(rng)
				binary.LittleEndian.PutUint64(p[j:], rng)
			}
			s.pool = append(s.pool, p)
		}
	}
	return s
}

// backend is the backend and recorder for one op: rank 0 traces only its
// measured ops, rank 1 traces all of them.
func (s *pinger) backend(record bool) (comm.Backend, *recorder) {
	if s.rec == nil || (s.rank == 0 && !record) {
		return s.raw, nil
	}
	return s.b, s.rec
}

func (s *pinger) block(k int64, record bool) {
	n := s.r.blockOps()
	for i := int64(0); i < n; i++ {
		id := k*n + i
		switch {
		case s.r.kind == opAllreduce:
			s.allreduce(id, record)
		case s.rank == 0:
			s.ping(id, record)
		default:
			s.echo(id)
		}
	}
}

func (s *pinger) ping(id int64, record bool) {
	buf := s.pool[id%int64(len(s.pool))]
	// The first 8 bytes are unique per op, so a stale echo cannot pass.
	binary.LittleEndian.PutUint64(buf, splitmix(s.seed^uint64(id)))
	b, rec := s.backend(record)
	if rec != nil {
		rec.beginOp("rtt", id)
	}
	t := now()
	b.Send(buf, 1, tagPing)
	n := b.Recv(s.in, 1, tagPing)
	d := now() - t
	if rec != nil {
		rec.endOp()
	}
	s.r.ops++
	s.checked++
	if n != len(buf) || !bytes.Equal(s.in[:n], buf) {
		s.r.e.fail(1, "round trip %d: echo of %d bytes differs from the %d sent", id, n, len(buf))
	}
	if record {
		s.r.lat = append(s.r.lat, d)
	}
}

func (s *pinger) echo(id int64) {
	b, rec := s.backend(false)
	if rec != nil {
		rec.beginOp("echo", id)
	}
	n := b.Recv(s.in, 0, tagPing)
	b.Send(s.in[:n], 0, tagPing)
	if rec != nil {
		rec.endOp()
	}
}

// contribution is rank's seeded Allreduce input for op id; 40 bits keep
// the sum clear of overflow.
func contribution(seed uint64, id int64, rank int) uint64 {
	return splitmix(seed^uint64(id)<<1^uint64(rank)) >> 24
}

func (s *pinger) allreduce(id int64, record bool) {
	binary.LittleEndian.PutUint64(s.arIn, contribution(s.seed, id, s.rank))
	b, rec := s.backend(record)
	if rec != nil {
		rec.beginOp("allreduce", id)
	}
	t := now()
	b.Allreduce(s.arIn, s.arOut, comm.Sum, comm.Int64)
	d := now() - t
	if rec != nil {
		rec.endOp()
	}
	s.checked++
	want := contribution(s.seed, id, 0) + contribution(s.seed, id, 1)
	if got := binary.LittleEndian.Uint64(s.arOut); got != want {
		s.r.e.fail(1, "allreduce %d on rank %d: got %d, want %d", id, s.rank, got, want)
	}
	if s.rank == 0 {
		s.r.ops++
		if record {
			s.r.lat = append(s.r.lat, d)
		}
	}
}

// splitmix is the SplitMix64 step: a seeded, well-mixed byte source.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runDeadline bounds every launch: a hang becomes a *RunError (a failed
// op) instead of a benchmark that never exits.
func runDeadline(e *env) time.Duration {
	return e.warm + e.seconds + 30*time.Second
}

func pingWorkload(pl placement, kind opKind, size int) func(*env) (*outcome, error) {
	return func(e *env) (*outcome, error) {
		cfg := pure.Config{Deadline: runDeadline(e)}
		if !e.trace {
			m, err := measureE2E(e, pl, cfg, func(warm, measure time.Duration) ([]int64, error) {
				r := newPingRun(e, kind, size, warm, measure)
				err := r.runPure(pl, cfg)
				return r.lat, err
			})
			return &outcome{e2e: m}, err
		}

		// Untraced baseline (for the overhead) and allocation count.
		half := e.seconds / 2
		base := newPingRun(e, kind, size, e.warm, half)
		base.allocs = true
		if err := base.runPure(pl, cfg); err != nil {
			return nil, err
		}
		// Traced: probes on both ranks, runtime counters on.
		tr := newPingRun(e, kind, size, e.warm, half)
		tr.recs = [nranks]*recorder{newRecorder(0), newRecorder(1)}
		cfg.Metrics = pure.NewMetrics()
		if err := tr.runPure(pl, cfg); err != nil {
			return nil, err
		}
		cs := readCounters(cfg.Metrics)
		L := newLayers(e)
		L.common(cs, tr.measured, float64(tr.ops), float64(len(tr.lat)), tr.wall)
		basep50, tracedp50 := p50(base.lat), p50(tr.lat)
		L.set("obs.trace_overhead_pct", 100*(tracedp50-basep50)/basep50)
		e.note("untraced p50 %.4g us, traced p50 %.4g us", basep50/1e3, tracedp50/1e3)
		L.setRatio("ssw.wait_share", ratioOf(float64(tr.recs[0].blockingNS()), "ns in blocking calls", float64(tr.measured.wall), "ns measured"))
		if kind == opRTT {
			L.setRatio("core.allocs_per_rtt", ratioOf(float64(base.mallocs), "mallocs", allocOps, "round trips"))
		} else {
			L.setRatio("collective.allocs_per_allreduce", ratioOf(float64(base.mallocs), "mallocs", allocOps, "allreduces"))
			L.set("collective.allreduce_us_p50", p50(tr.recs[0].durs[kAllreduce])/1e3)
		}
		if pl == oneNode && kind == opRTT {
			ref := newPingRun(e, kind, size, e.warm/2, e.seconds/4)
			if err := ref.runMPI(); err != nil {
				return nil, fmt.Errorf("mpibase reference: %w", err)
			}
			name := "mpibase.rtt_8b_p50_us"
			if size > 8 {
				name = "mpibase.rtt_64k_p50_us"
			}
			L.set(name, p50(ref.lat)/1e3)
			e.note("pure/mpibase p50 %s", ratioOf(basep50, "pure untraced ns", p50(ref.lat), "mpibase ns"))
		}
		checkSplit(e, pl, cs)
		if pl == oneNode && kind == opRTT {
			want := "pure_sends_eager_total"
			if size > 8<<10 {
				want = "pure_sends_rendezvous_total"
			}
			if cs.c[want] == 0 {
				e.fail(1, "layer split: %s is 0 on a %d-byte round trip", want, size)
			}
		}
		return &outcome{layer: L.m, recs: tr.recs[:]}, nil
	}
}

// p50 is the median of ns samples (0 for none).
func p50(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	v, _ := percentile(s, 0.5)
	return float64(v)
}
