// Package ssw implements the Spin-Steal-Wait loop (paper §4.0.2).
//
// When a Pure rank blocks — waiting for a message, a collective phase, or a
// task chunk — it does not sleep.  It spins on the blocking condition and,
// between probes, attempts to steal one chunk of any Pure Task that is open
// for stealing on its node, so idle cycles are soaked up by useful work.
//
// The paper pins one rank per hardware thread and spins unconditionally.
// This port runs ranks as goroutines, frequently oversubscribed onto far
// fewer cores (the development host has a single core), so unbounded
// spinning would starve the very goroutine being waited on.  Waiter
// therefore spins for a bounded budget and then yields to the Go scheduler
// (runtime.Gosched), keeping the lock-free fast paths byte-identical while
// preserving liveness.  The budget is configurable; with enough real cores a
// large budget recovers the paper's pure-spin behaviour.
//
// Waits whose completer is background I/O — a frame handed over by a
// transport reader goroutine — cannot spin at all: yield-spinning goroutines
// starve the Go netpoller.  Those waits park on the rank's Bell, a doorbell
// the completer rings after publishing (WaitIdle).  Waits that sit on a
// transport-bridged path but are completed by a local store park on the bell
// with an exponential backoff as their timeout (WaitBackoff).
package ssw

import (
	"runtime"
	"time"
)

// DefaultSpinBudget is how many condition probes a waiter performs between
// yields when the caller does not specify one.
const DefaultSpinBudget = 64

// Parking bounds.  A doorbell wait parks with idleSleepMax as a pure safety
// net: every completer rings, so the timeout only matters if one ever does
// not.  A backoff wait yields idleYieldRounds times, then parks with a
// timeout doubling from idleSleepMin up to idleSleepMax; the cap bounds the
// wakeup latency a long wait pays when its (unringing) completer finally
// stores.
const (
	idleYieldRounds = 4
	idleSleepMin    = time.Microsecond
	idleSleepMax    = 128 * time.Microsecond
)

// Stealer attempts one unit of stolen work and reports whether it stole
// anything.  The Pure Task scheduler implements this; waits outside any
// runtime (tests, mpibase) pass nil.
type Stealer interface {
	TrySteal() bool
}

// AbortPanic is the value Wait panics with when its Poison hook reports that
// the runtime has been aborted.  It unwinds the blocked rank's goroutine
// through application code; the runtime's rank bootstrap recovers it and
// records the rank as unwound-by-abort rather than as a new failure.
type AbortPanic struct{ Err error }

func (a AbortPanic) Error() string { return a.Err.Error() }

// Bell is one rank's doorbell: a one-token mailbox that any goroutine may
// ring and only the owning rank parks on.  A ring leaves a token that
// persists until the next Park consumes it, so a ring that lands between the
// waiter's last failed probe and its Park is never lost — the Park returns
// at once.  Spurious tokens (a ring for a condition the waiter already saw
// true) only cost one extra probe round.
type Bell struct {
	c chan struct{}
	t *time.Timer // the parker's timeout, created on the first Park
}

// NewBell returns an unrung bell.
func NewBell() *Bell { return &Bell{c: make(chan struct{}, 1)} }

// Ring wakes the bell's parked owner, or leaves a token for its next Park.
// It never blocks and is safe from any goroutine, including transport
// callbacks that hold link locks.
func (b *Bell) Ring() {
	schedpoint("ssw:bell:ring")
	select {
	case b.c <- struct{}{}:
	default:
	}
}

// Park blocks the owner until the bell rings or d elapses, consuming the
// token, and reports whether a ring (rather than the timeout) ended it.
// Only the owning rank may park.
func (b *Bell) Park(d time.Duration) bool {
	schedpoint("ssw:bell:park")
	if checkerPark(b) {
		return true
	}
	select {
	case <-b.c:
		return true
	default:
	}
	if b.t == nil {
		b.t = time.NewTimer(d)
	} else {
		b.t.Reset(d)
	}
	select {
	case <-b.c:
		if !b.t.Stop() {
			select { // drain a fire that raced the ring
			case <-b.t.C:
			default:
			}
		}
		return true
	case <-b.t.C:
		return false
	}
}

// Waiter is a reusable SSW-Loop bound to one rank's stealer.
type Waiter struct {
	// Steal, if non-nil, is probed between condition checks.
	Steal Stealer
	// SpinBudget is the number of probes between yields; zero means
	// DefaultSpinBudget.
	SpinBudget int
	// Poison, if non-nil, is consulted at every yield boundary (so the
	// satisfied-on-first-probe fast path never pays for it).  A non-nil
	// error makes Wait panic with AbortPanic{err}, unwinding the blocked
	// rank: this is how a poisoned runtime reclaims ranks parked in any of
	// the SSW-Loop's "dozens of places" instead of hanging forever.  The
	// poisoner must ring every Bell so parked waiters reach this check.
	Poison func() error
	// Progress, if non-nil, runs at every yield boundary after the poison
	// check.  The runtime uses it to apply incoming one-sided (RMA)
	// operations targeting the blocked rank, so a rank parked in any wait —
	// a receive, a collective, a fence — still exposes its windows and
	// advances remote origins (the paper's runtime makes the same promise
	// for message progress via its helper threads).
	Progress func()
	// Bell is the rank's doorbell.  WaitIdle, WaitBackoff and Park park on
	// it and require it; Wait never touches it.
	Bell *Bell
}

func (w *Waiter) budget() int {
	if w.SpinBudget <= 0 {
		return DefaultSpinBudget
	}
	return w.SpinBudget
}

// boundary runs the yield-boundary hooks: the poison check (which unwinds)
// and the progress hook.
func (w *Waiter) boundary() {
	if w.Poison != nil {
		if err := w.Poison(); err != nil {
			panic(AbortPanic{Err: err})
		}
	}
	if w.Progress != nil {
		w.Progress()
	}
}

// Park blocks the rank on its bell until a ring or the safety-net timeout,
// for blocking sites that are not condition waits (a sender refused by a
// full transport window parks here until the acks reopen it).  It reports
// whether a ring, rather than the timeout, ended the park.
func (w *Waiter) Park() bool { return w.Bell.Park(idleSleepMax) }

// Wait blocks until cond returns true, stealing task chunks while it waits.
// This is the loop the paper uses "in dozens of places in the Pure runtime":
//
//	for !cond() { if couldn't steal { maybe yield } }
//
// A successful steal resets the spin budget, because running a chunk was
// forward progress (and took long enough that re-probing immediately is
// cheap relative to the work done).
func (w *Waiter) Wait(cond func() bool) {
	budget := w.SpinBudget
	if budget <= 0 {
		budget = DefaultSpinBudget
	}
	spins := 0
	for !cond() {
		if w.Steal != nil && w.Steal.TrySteal() {
			spins = 0 // stole a chunk: that's progress, keep spinning
			continue
		}
		spins++
		if spins >= budget {
			if w.Poison != nil {
				if err := w.Poison(); err != nil {
					panic(AbortPanic{Err: err})
				}
			}
			if w.Progress != nil {
				w.Progress()
			}
			runtime.Gosched()
			spins = 0
		}
	}
}

// WaitIdle is Wait for conditions completed by background I/O — an
// inter-node frame delivered by a transport reader goroutine — rather than
// by another rank's store.  Yield-spinning starves the Go netpoller:
// goroutines that Gosched in a loop keep the run queues non-empty, so no P
// ever parks in network poll and socket readiness is only discovered by
// sysmon's ~10ms fallback.  WaitIdle instead spins one budget, runs the
// boundary hooks, re-probes, and parks on the rank's bell; the completer
// rings the bell after publishing, so the parked goroutine frees its P for
// the netpoller and wakes as soon as the frame lands.  The park timeout
// (idleSleepMax) is only a safety net against a completer that does not
// ring.
//
// Every completer of a WaitIdle condition must ring the waiter's bell after
// making the condition true; the token persists, so a ring between the last
// failed probe and the park is not lost.  Poisoners ring too.  Steal,
// Poison and Progress behave exactly as in Wait, and a successful steal
// resets the budget.
func (w *Waiter) WaitIdle(cond func() bool) {
	budget := w.budget()
	spins := 0
	for !cond() {
		if w.Steal != nil && w.Steal.TrySteal() {
			spins = 0
			continue
		}
		spins++
		if spins >= budget {
			w.boundary()
			spins = 0
			if cond() {
				return
			}
			w.Bell.Park(idleSleepMax)
		}
	}
}

// WaitBackoff is the bounded park for conditions on a transport-bridged
// path whose completer is a local store that does not ring (a collective
// non-leader waiting on its leader, a mailbox filled by a local sender):
// after a few yield rounds without progress it parks on the bell with an
// exponentially growing timeout, so a P goes idle for the netpoller while a
// late store still costs at most idleSleepMax.  Any ring — a frame for this
// rank, a task opened for stealing, a poison — cuts the park short and
// restarts the backoff.  Steal, Poison and Progress behave as in Wait.
//
// Shared-memory waits must keep using Wait: their completer is another
// spinning rank that owns (or shares) a hardware thread, the paper's
// assumption, and a park there only adds latency.
func (w *Waiter) WaitBackoff(cond func() bool) {
	budget := w.budget()
	spins, rounds := 0, 0
	sleep := idleSleepMin
	for !cond() {
		if w.Steal != nil && w.Steal.TrySteal() {
			spins, rounds, sleep = 0, 0, idleSleepMin
			continue
		}
		spins++
		if spins >= budget {
			w.boundary()
			spins = 0
			if rounds++; rounds <= idleYieldRounds {
				runtime.Gosched()
			} else if w.Bell.Park(sleep) {
				sleep = idleSleepMin
			} else if sleep < idleSleepMax {
				sleep *= 2
			}
		}
	}
}

// Func returns the waiter as a plain wait function, the shape the collective
// structures accept.
func (w *Waiter) Func() func(cond func() bool) { return w.Wait }

// SpinWait is a stealer-less wait used by code that has no task scheduler in
// scope (the MPI baseline, unit tests).
func SpinWait(cond func() bool) {
	(&Waiter{}).Wait(cond)
}
