//go:build purecheck

// Model tests for the SSW doorbell (ssw.Bell): a rank blocked on a socket
// wait parks on its bell, and whoever completes the wait — the transport's
// delivery upcall, an ack reopening a send window, a poisoner — stores the
// completion and then rings.  Under the checker a Park blocks with no
// timeout, so a ring that could ever be lost shows up as a deadlock.
package check

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/ssw"
)

func hookSSW(t *testing.T) {
	ssw.SetSchedHook(Hook, WaitLabeled)
	t.Cleanup(func() { ssw.SetSchedHook(nil, nil) })
}

// bellWaits are the two parking SSW loops: the doorbell wait for frame
// completions and the bounded park for local stores on transport paths.
var bellWaits = []struct {
	name string
	wait func(w *ssw.Waiter, cond func() bool)
}{
	{"WaitIdle", (*ssw.Waiter).WaitIdle},
	{"WaitBackoff", (*ssw.Waiter).WaitBackoff},
}

// bellWakeThreads: one waiter blocks until every ringer's flag is set;
// each ringer stores its flag and then rings the waiter's bell.  With more
// than one ringer the rings may coalesce into one token, which must still
// be enough: a ring only drops when an unconsumed token is already there,
// and consuming it is followed by a fresh probe.
func bellWakeThreads(wait func(*ssw.Waiter, func() bool), ringers int) func() Threads {
	return func() Threads {
		bell := ssw.NewBell()
		flags := make([]atomic.Bool, ringers)
		returned := false
		w := &ssw.Waiter{SpinBudget: 2, Bell: bell}
		names := []string{"waiter"}
		fns := []func(){func() {
			wait(w, func() bool {
				Yield("model:probe")
				for i := range flags {
					if !flags[i].Load() {
						return false
					}
				}
				return true
			})
			returned = true
		}}
		for i := 0; i < ringers; i++ {
			i := i
			names = append(names, fmt.Sprintf("ringer%d", i))
			fns = append(fns, func() {
				Yield("model:complete")
				flags[i].Store(true)
				bell.Ring()
			})
		}
		return Threads{Names: names, Fns: fns, Final: func() error {
			if !returned {
				return errors.New("waiter never returned from its wait")
			}
			return nil
		}}
	}
}

// bellPoisonThreads: the waiter's condition never holds; a poisoner sets
// the abort flag and rings.  The waiter must unwind with AbortPanic.
func bellPoisonThreads(wait func(*ssw.Waiter, func() bool)) func() Threads {
	return func() Threads {
		bell := ssw.NewBell()
		var poisoned atomic.Bool
		errAbort := errors.New("aborted")
		unwound := false
		w := &ssw.Waiter{SpinBudget: 2, Bell: bell, Poison: func() error {
			Yield("model:poison-check")
			if poisoned.Load() {
				return errAbort
			}
			return nil
		}}
		return Threads{
			Names: []string{"waiter", "poisoner"},
			Fns: []func(){
				func() {
					defer func() {
						if p, ok := recover().(ssw.AbortPanic); ok && p.Err == errAbort {
							unwound = true
						}
					}()
					wait(w, func() bool {
						Yield("model:probe")
						return false
					})
				},
				func() {
					Yield("model:poison")
					poisoned.Store(true)
					bell.Ring()
				},
			},
			Final: func() error {
				if !unwound {
					return errors.New("poisoned waiter did not unwind with AbortPanic")
				}
				return nil
			},
		}
	}
}

// TestCheckBellWakeup: under PCT schedules, a ring issued after the
// waiter's last failed probe always wakes it, for one ringer and for two
// whose rings coalesce.
func TestCheckBellWakeup(t *testing.T) {
	hookSSW(t)
	for _, bw := range bellWaits {
		for ringers := 1; ringers <= 2; ringers++ {
			rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, bellWakeThreads(bw.wait, ringers))
			if rep.Failed {
				t.Fatalf("%s with %d ringers: %s", bw.name, ringers, rep.Error())
			}
			t.Logf("%s/%d ringers PCT: %d seeds, %d total steps", bw.name, ringers, rep.Seeds, rep.TotalSteps)
		}
	}
}

// TestCheckBellWakeupExhaustive explores every schedule of the one-ringer
// wakeups and of WaitIdle's two-ringer coalescing.  (WaitBackoff's yield
// rounds put its two-ringer schedule space past the exhaustive budget; PCT
// covers it above, and its park path is the same Bell.)
func TestCheckBellWakeupExhaustive(t *testing.T) {
	hookSSW(t)
	for i, bw := range bellWaits {
		for ringers := 1; ringers <= 2-i; ringers++ {
			rep := Exhaust(0, 0, bellWakeThreads(bw.wait, ringers))
			if rep.Failed {
				t.Fatalf("%s with %d ringers (exhaustive): %s", bw.name, ringers, rep.Error())
			}
			if !rep.Complete {
				t.Fatalf("%s with %d ringers: exhaustive exploration hit the schedule budget (%d schedules)",
					bw.name, ringers, rep.Schedules)
			}
			t.Logf("%s/%d ringers exhaustive: %d schedules, complete", bw.name, ringers, rep.Schedules)
		}
	}
}

// TestCheckBellPoisonUnwinds: a poison ring unwinds a parked rank, under
// PCT seeds and every schedule.
func TestCheckBellPoisonUnwinds(t *testing.T) {
	hookSSW(t)
	for _, bw := range bellWaits {
		rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, bellPoisonThreads(bw.wait))
		if rep.Failed {
			t.Fatalf("%s poison: %s", bw.name, rep.Error())
		}
		ex := Exhaust(0, 0, bellPoisonThreads(bw.wait))
		if ex.Failed {
			t.Fatalf("%s poison (exhaustive): %s", bw.name, ex.Error())
		}
		if !ex.Complete {
			t.Fatalf("%s poison: exhaustive exploration hit the schedule budget (%d schedules)", bw.name, ex.Schedules)
		}
		t.Logf("%s poison: %d PCT seeds, %d exhaustive schedules", bw.name, rep.Seeds, ex.Schedules)
	}
}
