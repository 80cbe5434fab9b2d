// Command perfbench is the repository's end-to-end benchmark.  It runs one
// workload on the real runtime for a fixed time, checks every operation's
// output, and prints every metric by name and unit; the last line of
// standard output is a JSON object {correct, attempted, failed, metrics}.
//
//	go run . --workload node-rtt-8b --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced.  With
// --trace 1 it runs the workload again under timing decorators and runtime
// counters and prints the per-layer metrics instead, writing the recorded
// spans to --spans.  See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the runtime sees; every workload
// reports all of them (its op is a round trip, an Allreduce, a CoMD
// timestep or a statsd pass, see README.md).
var endToEnd = []metricDef{
	{"p50_us", "us"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, one group per module.  A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"core.allocs_per_rtt", "count"},
	{"core.sends_eager_per_op", "count"},
	{"core.sends_rendezvous_per_op", "count"},
	{"core.sends_remote_per_op", "count"},
	{"queue.pbq_full_per_send", "count"},
	{"queue.pbq_stall_waits_per_s", "1/s"},
	{"collective.allreduce_us_p50", "us"},
	{"collective.allocs_per_allreduce", "count"},
	{"sched.execute_ms_p50", "ms"},
	{"sched.steal_success_ratio", "ratio"},
	{"sched.stolen_chunk_share", "ratio"},
	{"ssw.cpu_per_op_us", "us"},
	{"ssw.wait_share", "ratio"},
	{"transport.frames_per_msg", "count"},
	{"transport.bytes_per_frame", "bytes"},
	{"transport.acks_per_frame", "count"},
	{"transport.send_busy_per_frame", "count"},
	{"transport.retransmits", "count"},
	{"transport.link_rtt_us", "us"},
	{"statsd.parse_ns", "ns"},
	{"statsd.intern_ns", "ns"},
	{"statsd.aggregate_ns", "ns"},
	{"statsd.intern_hit_ratio", "ratio"},
	{"statsd.events_per_frame", "count"},
	{"comd.compute_ms_per_step", "ms"},
	{"gc.pause_ms_per_s", "ms/s"},
	{"heap.peak_mb", "MB"},
	{"obs.trace_overhead_pct", "%"},
	{"mpibase.rtt_8b_p50_us", "us"},
	{"mpibase.rtt_64k_p50_us", "us"},
	{"mpibase.step_ms_p50", "ms"},
}

type workload struct {
	name string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"node-rtt-8b", pingWorkload(oneNode, opRTT, 8)},
	{"node-rtt-64k", pingWorkload(oneNode, opRTT, 64<<10)},
	{"node-allreduce-8b", pingWorkload(oneNode, opAllreduce, 8)},
	{"xnode-rtt-8b", pingWorkload(twoNodes, opRTT, 8)},
	{"comd-hotspot", comdWorkload},
	{"statsd-zipf", statsdWorkload},
}

// env is one benchmark run's settings and failure accounting.
type env struct {
	seed    uint64
	seconds time.Duration // measured time per run
	warm    time.Duration // untimed warm-up before measuring
	trace   bool
	log     io.Writer // human-readable lines, before the result line

	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	failures  []string
}

// fail counts n failed ops and keeps the first few reasons.
func (e *env) fail(n int64, format string, args ...any) {
	e.failed.Add(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.failures) < 10 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// note prints one human-readable line.
func (e *env) note(format string, args ...any) {
	fmt.Fprintf(e.log, "# "+format+"\n", args...)
}

// outcome is what a workload measured: end-to-end metrics when untraced,
// per-layer metrics when traced, plus the traced run's recorders.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	recs  []*recorder
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 16, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spansPath := fs.String("spans", "", "traced run's span file (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		log:     stdout,
	}
	e.warm = min(time.Second, e.seconds/2)

	fp := machine()
	fpJSON, _ := json.Marshal(fp) // plain strings and ints cannot fail to marshal
	e.note("fingerprint %s", fpJSON)
	e.note("workload %s seed %d seconds %v trace %v", w.name, e.seed, e.seconds, e.trace)

	out, err := w.run(e)
	if err != nil {
		e.fail(1, "%v", err)
	}
	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	res := result{Attempted: max(e.attempted.Load(), 1), Metrics: map[string]metricOut{}}
	missing := false
	for _, d := range defs {
		var v float64
		var ok bool
		if out != nil {
			if e.trace {
				v, ok = out.layer[d.name]
			} else {
				v, ok = out.e2e[d.name]
			}
		}
		if !ok && !e.trace {
			missing = true
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.fail(1, "metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		e.note("%-34s %14.6g %s", d.name, v, d.unit)
	}
	if missing && err == nil {
		e.fail(1, "end-to-end metrics missing")
	}
	res.Failed = e.failed.Load()
	res.Correct = res.Failed == 0
	for _, f := range e.failures {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", f)
	}
	if e.trace && out != nil {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", w.name, e.seed))
		}
		if err := writeSpans(path, fp, w.name, out.recs); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		} else {
			e.note("spans written to %s", path)
		}
	}
	line, _ := json.Marshal(res) // finite floats, strings and ints only
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// fingerprint identifies the machine a result was measured on, so results
// from different machines are not compared by mistake.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
}

func machine() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

// printTail prints the run's pooled op latencies (ns, sorted in place):
// percentiles with at least 10 samples beyond them, the mean and the
// maximum.  They are for reading, not gated: on a shared 2-CPU machine the
// tail moved between runs by more than any bound a regression check could
// use.
func printTail(e *env, lat []int64) {
	slices.Sort(lat)
	var total int64
	for _, d := range lat {
		total += d
	}
	line := fmt.Sprintf("pooled: %d ops, mean %.4g us", len(lat), float64(total)/float64(max(len(lat), 1))/1e3)
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if v, ok := percentile(lat, p); ok {
			line += fmt.Sprintf(", p%g %.4g us", 100*p, float64(v)/1e3)
		}
	}
	if len(lat) > 0 {
		line += fmt.Sprintf(", max %.4g us", float64(lat[len(lat)-1])/1e3)
	}
	e.note("%s", line)
}
