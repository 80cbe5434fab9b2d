// Package netsim stands in for the inter-node network.  The paper runs on
// Cori's Cray Aries dragonfly interconnect and delegates cross-node traffic
// to Cray MPICH; this reproduction runs every rank in one address space, so
// a cross-node message would otherwise be indistinguishable from a local
// one.  netsim restores the distinction by charging a modeled wire time
// (latency + size/bandwidth + per-message host CPU overhead) before a
// cross-node payload is delivered.
//
// The same cost model is shared with the discrete-event simulator
// (internal/cluster), which uses Cost directly instead of spinning.
package netsim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Config models one link class of the network.
type Config struct {
	// LatencyNs is the one-way zero-byte latency in nanoseconds.
	LatencyNs int64
	// BytesPerNs is the effective per-rank bandwidth (bytes per nanosecond;
	// 1.0 == 1 GB/s x 1e9/2^30 ≈ 0.93 GiB/s).
	BytesPerNs float64
	// PerMsgCPUNs is host-side software overhead per message (matching,
	// library dispatch) charged in addition to the wire time.
	PerMsgCPUNs int64
	// TimeScale divides every modeled delay, so tests can run the same model
	// quickly.  Zero or one means full scale.
	TimeScale int64
	// Faults injects seeded message-level failures into the modeled wire.
	// The zero value disables injection and keeps the fast path unchanged.
	Faults Faults
}

// Faults configures deterministic, seeded fault injection on the modeled
// network, plus the recovery knobs of the ack/retransmit layer the runtime
// switches on whenever any fault is active.  Probabilities are per transmit
// attempt and independent.
type Faults struct {
	// Seed selects the pseudo-random decision stream (same seed, same
	// decision sequence).  Zero is a valid seed.
	Seed int64
	// DropProb is the probability a transmitted message is lost on the wire.
	DropProb float64
	// DupProb is the probability a transmitted message is delivered twice.
	DupProb float64
	// ReorderProb is the probability a message is held back at the receiving
	// NIC and processed after the next arrival on its channel (a pairwise
	// swap; the held message is released by any later arrival, including the
	// sender's own retransmit).
	ReorderProb float64
	// JitterNs adds a uniform extra wire delay in [0, JitterNs] per message.
	JitterNs int64
	// RetryBudget bounds transmit attempts per message before the runtime
	// declares the link dead and aborts the run (0 = DefaultRetryBudget).
	RetryBudget int
	// RetryBackoffNs is the initial ack timeout before the first retransmit;
	// it doubles per attempt up to 64x (0 = DefaultRetryBackoffNs).
	RetryBackoffNs int64
}

// Recovery defaults for the ack/retransmit layer.
const (
	DefaultRetryBudget    = 16
	DefaultRetryBackoffNs = 100_000 // 100 us initial, doubling per attempt
)

// Active reports whether any fault injection is configured (the runtime uses
// this to decide between the raw mailbox path and the reliable ack/retransmit
// path).
func (f Faults) Active() bool {
	return f.DropProb > 0 || f.DupProb > 0 || f.ReorderProb > 0 || f.JitterNs > 0
}

// Verdict is the fault decision for one transmit attempt.
type Verdict struct {
	Drop    bool
	Dup     bool
	Reorder bool
	ExtraNs int64 // jitter delay to add to the wire time
}

// FaultStats counts injected faults since the network was created.
type FaultStats struct {
	Transmits int64 // attempts judged (including retransmits)
	Drops     int64
	Dups      int64
	Reorders  int64
}

// Aries returns a cost model in the regime of the Cray Aries network used in
// the paper's evaluation: ~1.3 us one-way latency and ~10 GB/s effective
// per-rank bandwidth.
func Aries() Config {
	return Config{LatencyNs: 1300, BytesPerNs: 10.0, PerMsgCPUNs: 250}
}

// Loopback returns a near-zero-cost model for single-node configurations and
// fast tests.
func Loopback() Config {
	return Config{LatencyNs: 0, BytesPerNs: 0, PerMsgCPUNs: 0}
}

// Cost returns the modeled nanoseconds to move a message of the given size
// across the link (before TimeScale).
func (c Config) Cost(bytes int) int64 {
	t := c.LatencyNs + c.PerMsgCPUNs
	if c.BytesPerNs > 0 {
		t += int64(float64(bytes) / c.BytesPerNs)
	}
	return t
}

// Network injects wire delays (and, when configured, faults) for the real
// runtime.
type Network struct {
	cfg Config

	// rng is the splitmix64 state of the fault-decision stream.  Decisions
	// are drawn lock-free with an atomic add, so the sequence of verdicts is
	// a pure function of the seed; which message receives which verdict
	// depends on arrival interleaving, as on a real wire.
	rng atomic.Uint64

	transmits atomic.Int64
	drops     atomic.Int64
	dups      atomic.Int64
	reorders  atomic.Int64
}

// New builds a network with the given cost model.
func New(cfg Config) *Network {
	n := &Network{cfg: cfg}
	n.rng.Store(splitmix64(uint64(cfg.Faults.Seed)+0x1905) ^ 0xD1B54A32D192ED03)
	return n
}

// Config returns the cost model.
func (n *Network) Config() Config { return n.cfg }

// FaultsActive reports whether this network injects faults (and therefore
// whether the runtime must run the reliable ack/retransmit path).
func (n *Network) FaultsActive() bool { return n.cfg.Faults.Active() }

// RetryBudget returns the configured transmit-attempt bound per message.
func (n *Network) RetryBudget() int {
	if b := n.cfg.Faults.RetryBudget; b > 0 {
		return b
	}
	return DefaultRetryBudget
}

// RetryBackoff returns the ack timeout to wait after transmit attempt
// `attempt` (1-based): the configured initial backoff doubled per attempt,
// capped at 64x.
func (n *Network) RetryBackoff(attempt int) time.Duration {
	base := n.cfg.Faults.RetryBackoffNs
	if base <= 0 {
		base = DefaultRetryBackoffNs
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0 // attempt 0 (or junk) floors at the base backoff; a negative shift would panic
	}
	if shift > 6 {
		shift = 6
	}
	return time.Duration(base << shift)
}

func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// next draws one 64-bit value from the seeded decision stream.
func (n *Network) next() uint64 {
	return splitmix64(n.rng.Add(0x9E3779B97F4A7C15))
}

// u01 maps a draw onto [0, 1).
func u01(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Inject rolls the fault dice for one transmit attempt and counts what it
// decided.  Callers apply the verdict: skip delivery on Drop, deliver twice
// on Dup, hold at the NIC on Reorder, add ExtraNs to the wire time.
func (n *Network) Inject() Verdict {
	f := n.cfg.Faults
	if !f.Active() {
		return Verdict{}
	}
	n.transmits.Add(1)
	var v Verdict
	if f.DropProb > 0 && u01(n.next()) < f.DropProb {
		v.Drop = true
		n.drops.Add(1)
		return v // a dropped message can be neither duplicated nor held
	}
	if f.DupProb > 0 && u01(n.next()) < f.DupProb {
		v.Dup = true
		n.dups.Add(1)
	}
	if f.ReorderProb > 0 && u01(n.next()) < f.ReorderProb {
		v.Reorder = true
		n.reorders.Add(1)
	}
	if f.JitterNs > 0 {
		v.ExtraNs = int64(n.next() % uint64(f.JitterNs+1))
	}
	return v
}

// FaultStats returns the injected-fault counters (the runtime folds them into
// the metrics registry at the end of a run).
func (n *Network) FaultStats() FaultStats {
	return FaultStats{
		Transmits: n.transmits.Load(),
		Drops:     n.drops.Load(),
		Dups:      n.dups.Load(),
		Reorders:  n.reorders.Load(),
	}
}

// Transfer blocks the caller for the modeled time of moving bytes across the
// link.  Short delays busy-spin for fidelity; delays beyond ~5 us yield to
// the scheduler between probes so an oversubscribed host stays live.
func (n *Network) Transfer(bytes int) { n.TransferExtra(bytes, 0) }

// TransferExtra is Transfer with extraNs of additional modeled delay (fault
// injection jitter); the extra delay is subject to TimeScale like the rest.
func (n *Network) TransferExtra(bytes int, extraNs int64) {
	d := n.cfg.Cost(bytes) + extraNs
	if n.cfg.TimeScale > 1 {
		d /= n.cfg.TimeScale
	}
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(d))
	for time.Now().Before(deadline) {
		if d > 5000 {
			runtime.Gosched()
		}
	}
}
