package main

import "time"

// layers collects one traced run's per-layer metrics; every ratio is
// printed with its base as it is set.
type layers struct {
	e *env
	m map[string]float64
}

func newLayers(e *env) *layers { return &layers{e: e, m: map[string]float64{}} }

func (l *layers) set(name string, v float64) { l.m[name] = v }

func (l *layers) setRatio(name string, r ratio) {
	l.m[name] = r.value()
	l.e.note("%s = %s", name, r)
}

// common derives the metrics every workload shares from the runtime
// counters of the traced launch (which did opsAll ops in wall) and the
// resource deltas of its measured phase (opsMeasured ops).
func (l *layers) common(cs counters, ph phaseDelta, opsAll, opsMeasured float64, wall time.Duration) {
	c := cs.c
	eager, frames := c["pure_sends_eager_total"], c["pure_tp_frames_sent_total"]
	l.setRatio("core.sends_eager_per_op", ratioOf(eager, "eager sends", opsAll, "ops"))
	l.setRatio("core.sends_rendezvous_per_op", ratioOf(c["pure_sends_rendezvous_total"], "rendezvous sends", opsAll, "ops"))
	l.setRatio("core.sends_remote_per_op", ratioOf(c["pure_sends_remote_total"], "remote sends", opsAll, "ops"))
	l.setRatio("queue.pbq_full_per_send", ratioOf(c["pure_pbq_enqueue_full_total"], "full-queue enqueues", eager, "eager sends"))
	l.setRatio("queue.pbq_stall_waits_per_s", ratioOf(c["pure_pbq_stall_waits_total"], "stall waits", wall.Seconds(), "s"))
	l.setRatio("ssw.cpu_per_op_us", ratioOf(float64(ph.cpu)/1e3, "us CPU", opsMeasured, "ops"))
	l.setRatio("transport.frames_per_msg", ratioOf(frames, "frames sent", c["pure_sends_remote_total"], "remote sends"))
	l.setRatio("transport.bytes_per_frame", ratioOf(c["pure_tp_bytes_sent_total"], "bytes sent", frames, "frames"))
	l.setRatio("transport.acks_per_frame", ratioOf(c["pure_link_acks_sent_total"], "acks sent", frames, "frames"))
	l.setRatio("transport.send_busy_per_frame", ratioOf(c["pure_tp_send_busy_total"], "busy sends", frames, "frames"))
	l.set("transport.retransmits", c["pure_tp_retransmits_total"])
	l.set("transport.link_rtt_us", cs.gaugeMean("pure_link_smoothed_rtt_ns")/1e3)
	l.setRatio("gc.pause_ms_per_s", ratioOf(float64(ph.gcPause)/1e6, "ms paused", ph.wall.Seconds(), "s"))
	l.set("heap.peak_mb", float64(ph.peakHeap)/(1<<20))
}

// checkSplit fails the run when traffic took a path its placement rules
// out: a one-node run must not touch the transport, and a two-node run
// (one rank per node) must not touch the intra-node queues.
func checkSplit(e *env, pl placement, cs counters) {
	var must0 []string
	if pl == oneNode {
		must0 = []string{"pure_tp_frames_sent_total", "pure_tp_bytes_sent_total", "pure_sends_remote_total"}
	} else {
		must0 = []string{"pure_sends_eager_total", "pure_sends_rendezvous_total", "pure_pbq_enqueue_full_total", "pure_pbq_stall_waits_total"}
	}
	for _, name := range must0 {
		if v := cs.c[name]; v != 0 {
			e.fail(1, "layer split: %s = %v, want 0", name, v)
		}
	}
}
