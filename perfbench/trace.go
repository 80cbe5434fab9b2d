package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/comm"
)

// The traced run instruments the runtime from outside: probe decorates a
// rank's comm.Backend and the Tasks it creates, recording one span per call
// into a per-rank recorder.  Nothing inside the program is changed.

var epoch = time.Now()

// now is nanoseconds on the monotonic clock since the process started.
func now() int64 { return int64(time.Since(epoch)) }

type callKind uint8

const (
	kSend callKind = iota
	kRecv
	kSendrecv
	kAllreduce
	kExecute
	nKinds
)

var kindName = [nKinds]string{"Send", "Recv", "Sendrecv", "Allreduce", "Task.Execute"}

// blocking reports whether a call of this kind waits on another rank.
func (k callKind) blocking() bool { return k <= kAllreduce }

type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index among the same rank's spans, -1 for none
	Op     int64  `json:"op"`
}

const (
	maxSpansPerRank = 1 << 16
	maxDursPerKind  = 1 << 20
)

// recorder holds one rank's spans and per-kind call statistics.  It is
// single-writer: only its rank's goroutine touches it until the run ends.
type recorder struct {
	rank    int
	spans   []span
	dropped int64
	cur     int32 // index of the open op span, -1 when none
	op      int64

	total [nKinds]int64
	durs  [nKinds][]int64

	// waitNS accumulates time inside blocking calls; stepWait takes it.
	waitNS int64
}

func newRecorder(rank int) *recorder {
	return &recorder{rank: rank, spans: make([]span, 0, maxSpansPerRank), cur: -1}
}

// call records one finished call of kind k that started at start.
func (r *recorder) call(k callKind, start int64) {
	end := now()
	d := end - start
	r.total[k] += d
	if len(r.durs[k]) < maxDursPerKind {
		r.durs[k] = append(r.durs[k], d)
	}
	if k.blocking() {
		r.waitNS += d
	}
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{Name: kindName[k], Rank: r.rank, Start: start, End: end, Parent: r.cur, Op: r.op})
	} else {
		r.dropped++
	}
}

// beginOp opens the span of the benchmark's own op id (a round trip, a
// pass); calls until endOp become its children.
func (r *recorder) beginOp(name string, id int64) {
	r.op = id
	r.cur = -1
	if len(r.spans) < cap(r.spans) {
		r.cur = int32(len(r.spans))
		r.spans = append(r.spans, span{Name: name, Rank: r.rank, Start: now(), Parent: -1, Op: id})
	} else {
		r.dropped++
	}
}

func (r *recorder) endOp() {
	if r.cur >= 0 {
		r.spans[r.cur].End = now()
	}
	r.cur = -1
}

// stepWait returns the blocking-call time since the previous call.
func (r *recorder) stepWait() int64 {
	w := r.waitNS
	r.waitNS = 0
	return w
}

// probe decorates one rank's backend.  With a nil recorder it only stamps
// Task.Execute starts (CoMD's step clock); with one it also records every
// Send/Recv/Sendrecv/Allreduce/Execute as a span.
type probe struct {
	comm.Backend
	rec *recorder

	// stamps are Execute start times (now()); waits, when tracing, the
	// blocking-call time since the previous Execute; chunks sums the chunk
	// count of every executed task.
	stamps []int64
	waits  []int64
	chunks int64
}

func (p *probe) Send(buf []byte, dst, tag int) {
	if p.rec == nil {
		p.Backend.Send(buf, dst, tag)
		return
	}
	t := now()
	p.Backend.Send(buf, dst, tag)
	p.rec.call(kSend, t)
}

func (p *probe) Recv(buf []byte, src, tag int) int {
	if p.rec == nil {
		return p.Backend.Recv(buf, src, tag)
	}
	t := now()
	n := p.Backend.Recv(buf, src, tag)
	p.rec.call(kRecv, t)
	return n
}

func (p *probe) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) int {
	if p.rec == nil {
		return p.Backend.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
	}
	t := now()
	n := p.Backend.Sendrecv(sendBuf, dst, sendTag, recvBuf, src, recvTag)
	p.rec.call(kSendrecv, t)
	return n
}

func (p *probe) Allreduce(in, out []byte, op comm.Op, dt comm.DType) {
	if p.rec == nil {
		p.Backend.Allreduce(in, out, op, dt)
		return
	}
	t := now()
	p.Backend.Allreduce(in, out, op, dt)
	p.rec.call(kAllreduce, t)
}

func (p *probe) NewTask(nchunks int, body func(start, end int64, extra any)) comm.Task {
	return &probedTask{Task: p.Backend.NewTask(nchunks, body), p: p, chunks: int64(nchunks)}
}

type probedTask struct {
	comm.Task
	p      *probe
	chunks int64
}

func (t *probedTask) Execute(extra any) {
	start := now()
	t.p.stamps = append(t.p.stamps, start)
	if t.p.rec != nil {
		t.p.waits = append(t.p.waits, t.p.rec.stepWait())
	}
	t.p.chunks += t.chunks
	t.Task.Execute(extra)
	if t.p.rec != nil {
		t.p.rec.call(kExecute, start)
	}
}

// phase brackets a measured interval with process-wide resource readings:
// MemStats (allocations, GC pauses), getrusage (CPU time) and a sampler of
// live heap bytes for the peak.
type phase struct {
	start time.Time
	ms0   runtime.MemStats
	ru0   syscall.Rusage

	stop     chan struct{}
	done     sync.WaitGroup
	peakHeap uint64
}

// startPhase reads the baselines and starts the heap sampler; end must be
// called to stop it.
func startPhase() *phase {
	ph := &phase{stop: make(chan struct{})}
	runtime.ReadMemStats(&ph.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ph.ru0) // cannot fail for RUSAGE_SELF
	ph.start = time.Now()
	ph.done.Add(1)
	go ph.sampleHeap()
	return ph
}

func (ph *phase) sampleHeap() {
	defer ph.done.Done()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > ph.peakHeap {
			ph.peakHeap = v
		}
		select {
		case <-ph.stop:
			return
		case <-t.C:
		}
	}
}

// phaseDelta is what a phase consumed.
type phaseDelta struct {
	wall     time.Duration
	mallocs  uint64
	gcPause  time.Duration
	cpu      time.Duration // user + system
	peakHeap uint64
}

func (ph *phase) end() phaseDelta {
	wall := time.Since(ph.start)
	close(ph.stop)
	ph.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return phaseDelta{
		wall:     wall,
		mallocs:  ms.Mallocs - ph.ms0.Mallocs,
		gcPause:  time.Duration(ms.PauseTotalNs - ph.ms0.PauseTotalNs),
		cpu:      cpuTime(ru) - cpuTime(ph.ru0),
		peakHeap: ph.peakHeap,
	}
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeSpans dumps every recorder's spans as one JSON document.
func writeSpans(path string, fp fingerprint, workload string, recs []*recorder) error {
	doc := struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Workload    string      `json:"workload"`
		Dropped     int64       `json:"dropped"`
		Spans       []span      `json:"spans"`
	}{Fingerprint: fp, Workload: workload}
	for _, r := range recs {
		if r == nil {
			continue
		}
		doc.Dropped += r.dropped
		doc.Spans = append(doc.Spans, r.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// blockingNS is the total time spent in blocking calls.
func (r *recorder) blockingNS() int64 {
	var t int64
	for k := callKind(0); k < nKinds; k++ {
		if k.blocking() {
			t += r.total[k]
		}
	}
	return t
}
