package ssw

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

type countingStealer struct {
	available atomic.Int64
	stolen    atomic.Int64
}

func (s *countingStealer) TrySteal() bool {
	for {
		n := s.available.Load()
		if n == 0 {
			return false
		}
		if s.available.CompareAndSwap(n, n-1) {
			s.stolen.Add(1)
			return true
		}
	}
}

func TestWaitReturnsImmediatelyWhenConditionHolds(t *testing.T) {
	w := &Waiter{}
	called := 0
	w.Wait(func() bool { called++; return true })
	if called != 1 {
		t.Fatalf("condition evaluated %d times, want 1", called)
	}
}

func TestWaitStealsWhileBlocked(t *testing.T) {
	s := &countingStealer{}
	s.available.Store(10)
	w := &Waiter{Steal: s}
	probes := 0
	w.Wait(func() bool {
		probes++
		return probes > 5 // becomes true after a few probes
	})
	if s.stolen.Load() == 0 {
		t.Error("waiter never stole despite available work")
	}
}

func TestWaitWithoutStealerTerminates(t *testing.T) {
	done := atomic.Bool{}
	go func() { done.Store(true) }()
	SpinWait(done.Load)
	if !done.Load() {
		t.Fatal("SpinWait returned before condition")
	}
}

func TestWaitDrainsAllStealsBeforeParking(t *testing.T) {
	// With work available and condition false-then-true, every probe
	// between checks should steal (work-first policy).
	s := &countingStealer{}
	s.available.Store(3)
	w := &Waiter{Steal: s, SpinBudget: 4}
	probes := 0
	w.Wait(func() bool {
		probes++
		return s.available.Load() == 0 // condition satisfied once work drained
	})
	if got := s.stolen.Load(); got != 3 {
		t.Fatalf("stole %d, want 3", got)
	}
}

func TestFuncAdapter(t *testing.T) {
	w := &Waiter{}
	f := w.Func()
	n := 0
	f(func() bool { n++; return n >= 3 })
	if n != 3 {
		t.Fatalf("adapter evaluated %d times, want 3", n)
	}
}

func TestSpinBudgetDefault(t *testing.T) {
	// A zero budget must fall back to the default and still terminate.
	w := &Waiter{SpinBudget: 0}
	n := 0
	w.Wait(func() bool { n++; return n > DefaultSpinBudget*2 })
	if n <= DefaultSpinBudget*2 {
		t.Fatal("wait exited early")
	}
}

func TestPoisonUnwindsBlockedWait(t *testing.T) {
	poisoned := errors.New("runtime aborted")
	armed := atomic.Bool{}
	w := &Waiter{
		SpinBudget: 4,
		Poison: func() error {
			if armed.Load() {
				return poisoned
			}
			return nil
		},
	}
	defer func() {
		p := recover()
		ap, ok := p.(AbortPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want AbortPanic", p, p)
		}
		if ap.Err != poisoned {
			t.Fatalf("AbortPanic carries %v, want the poison error", ap.Err)
		}
	}()
	probes := 0
	w.Wait(func() bool {
		probes++
		if probes > 2 {
			armed.Store(true)
		}
		return false // never satisfied; only the poison can end this wait
	})
	t.Fatal("Wait returned instead of unwinding")
}

func TestPoisonNotConsultedOnFastPath(t *testing.T) {
	// A condition satisfied on the first probe must never pay for (or be
	// failed by) the poison hook.
	w := &Waiter{Poison: func() error { t.Fatal("poison consulted on fast path"); return nil }}
	w.Wait(func() bool { return true })
}

func TestBellTokenPersists(t *testing.T) {
	b := NewBell()
	b.Ring()
	b.Ring() // coalesces with the pending token
	if !b.Park(time.Hour) {
		t.Fatal("a ring before the park did not end it")
	}
	if b.Park(time.Millisecond) {
		t.Fatal("two rings left two tokens; a bell holds one")
	}
}

func TestBellParkTimesOut(t *testing.T) {
	b := NewBell()
	start := time.Now()
	if b.Park(2 * time.Millisecond) {
		t.Fatal("an unrung park reported a ring")
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("park returned after %v, before its timeout", d)
	}
	// The timer is reused: a ring after a timeout still wakes the next park.
	go func() {
		time.Sleep(time.Millisecond)
		b.Ring()
	}()
	if !b.Park(time.Hour) {
		t.Fatal("ring after a timed-out park was lost")
	}
}

func TestWaitIdleWakesOnRing(t *testing.T) {
	b := NewBell()
	var done atomic.Bool
	w := &Waiter{SpinBudget: 2, Bell: b}
	go func() {
		time.Sleep(5 * time.Millisecond)
		done.Store(true)
		b.Ring()
	}()
	start := time.Now()
	w.WaitIdle(done.Load)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("WaitIdle took %v to notice a rung completion", d)
	}
}

func TestWaitIdleUnwindsOnPoisonRing(t *testing.T) {
	b := NewBell()
	var poisoned atomic.Bool
	errAbort := errors.New("aborted")
	w := &Waiter{SpinBudget: 2, Bell: b, Poison: func() error {
		if poisoned.Load() {
			return errAbort
		}
		return nil
	}}
	go func() {
		time.Sleep(5 * time.Millisecond)
		poisoned.Store(true)
		b.Ring()
	}()
	defer func() {
		if p, ok := recover().(AbortPanic); !ok || p.Err != errAbort {
			t.Fatalf("recovered %v, want AbortPanic", p)
		}
	}()
	w.WaitIdle(func() bool { return false })
	t.Fatal("WaitIdle returned instead of unwinding")
}

func TestWaitBackoffStealsAndCompletes(t *testing.T) {
	s := &countingStealer{}
	s.available.Store(5)
	var done atomic.Bool
	w := &Waiter{Steal: s, SpinBudget: 2, Bell: NewBell()}
	go func() {
		time.Sleep(2 * time.Millisecond)
		done.Store(true) // an unringing completer: the backoff timeout finds it
	}()
	w.WaitBackoff(done.Load)
	if s.stolen.Load() != 5 {
		t.Fatalf("stole %d chunks, want all 5", s.stolen.Load())
	}
}
