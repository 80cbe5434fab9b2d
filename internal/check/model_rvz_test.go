//go:build purecheck

// Model tests for the split-copy rendezvous (internal/core p2p.go): a large
// payload is copied in chunks that the sender and the waiting receiver
// claim from one state word packing the envelope seq with the unclaimed
// chunk count, and the sender pushes the Completion only once every claimed
// chunk is counted done.  The workload is two back-to-back split transfers
// on one channel with both receives posted up front, so the sender can
// retire transfer k and publish transfer k+1 while the receiver still sits
// between reading the state word for k and its claim CAS — the ABA case
// the seq in the word exists for.
package check

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
)

// rvzObserver checks the retirement invariant at the seam itself and
// counts chunk copies and retirements for the final checks; the current
// schedule's workload installs itself before its threads start.
var rvzObserver struct {
	m               *core.ModelRendezvous
	copies, retired int
}

func hookRvz(t *testing.T) {
	core.SetSchedHook(func(label string) {
		switch label {
		case "core:rvz:copy":
			rvzObserver.copies++
		case "core:rvz:retire":
			rvzObserver.retired++
			if u := rvzObserver.m.UncopiedClaims(); u != 0 {
				panic(fmt.Sprintf("Completion about to be pushed with %d claimed chunks uncopied", u))
			}
		}
		Hook(label)
	})
	t.Cleanup(func() { core.SetSchedHook(nil) })
}

// rvzPayload is transfer id's content: position- and id-dependent bytes,
// so a chunk at the wrong offset or from the other transfer is visible.
func rvzPayload(size, id int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i>>10 + id*101 + 1)
	}
	return p
}

// rvzSplitThreads: a sender streams two split payloads of the given sizes;
// the receiver posts both receives first, then waits for them in order.
// After each send completes the sender scribbles its source buffer (the
// application reusing it), so a chunk copied after retirement lands
// scribbled bytes.
func rvzSplitThreads(sizes [2]int) func() Threads {
	return func() Threads {
		m := core.NewModelRendezvous()
		rvzObserver.m, rvzObserver.copies, rvzObserver.retired = m, 0, 0
		var src, dst [2][]byte
		for i, n := range sizes {
			src[i] = rvzPayload(n, i)
			dst[i] = bytes.Repeat([]byte{0xEE}, n)
		}
		return Threads{
			Names: []string{"sender", "receiver"},
			Fns: []func(){
				func() {
					m.Isend(src[0])
					m.Isend(src[1])
					scribbled := [2]bool{}
					for {
						all := m.SendProgress()
						for i := range src {
							if m.SendDone(i) && !scribbled[i] {
								scribbled[i] = true
								for j := range src[i] {
									src[i][j] = 0xFF
								}
							}
						}
						if all {
							return
						}
						WaitLabeled("model:send-wait", m.SendReady)
					}
				},
				func() {
					m.Irecv(dst[0])
					m.Irecv(dst[1])
					for !m.RecvProgress() {
						WaitLabeled("model:recv-wait", m.RecvReady)
					}
				},
			},
			Final: func() error {
				for i, n := range sizes {
					got, done := m.RecvBytes(i)
					if !done || got != n {
						return fmt.Errorf("receive %d: done=%v n=%d, want %d", i, done, got, n)
					}
					want := rvzPayload(n, i)
					for j := 0; j < n; j += m.ChunkSize() {
						hi := min(j+m.ChunkSize(), n)
						if bytes.Equal(dst[i][j:hi], want[j:hi]) {
							continue
						}
						if o := rvzPayload(sizes[1-i], 1-i); j < len(o) && bytes.Equal(dst[i][j:hi], o[j:min(hi, len(o))]) {
							return fmt.Errorf("receive %d chunk %d holds transfer %d's bytes", i, j/m.ChunkSize(), 1-i)
						}
						return fmt.Errorf("receive %d chunk %d is wrong (first byte %#x, want %#x)",
							i, j/m.ChunkSize(), dst[i][j], want[j])
					}
				}
				if want := m.Chunks(sizes[0]) + m.Chunks(sizes[1]); rvzObserver.copies != want {
					return fmt.Errorf("%d chunk copies for %d chunks: a chunk was copied twice or never", rvzObserver.copies, want)
				}
				if rvzObserver.retired != 2 {
					return fmt.Errorf("%d retirements, want 2", rvzObserver.retired)
				}
				return nil
			},
		}
	}
}

// TestCheckRendezvousSplitCopy: under PCT schedules, two back-to-back
// 3-chunk split transfers (the last chunk partial) land every byte in its
// own buffer exactly once, and no Completion is pushed with a claimed chunk
// still uncopied.
func TestCheckRendezvousSplitCopy(t *testing.T) {
	hookRvz(t)
	mk := rvzSplitThreads([2]int{2*16<<10 + 100, 2*16<<10 + 7})
	rep := RunPCT(1, SeedsFromEnv(1000), DefaultPCTDepth, mk)
	if rep.Failed {
		t.Fatalf("split-copy rendezvous: %s", rep.Error())
	}
	t.Logf("PCT: %d seeds, %d total steps", rep.Seeds, rep.TotalSteps)
}

// TestCheckRendezvousSplitCopyExhaustive explores every schedule of two
// back-to-back 2-chunk transfers (the smallest split).
func TestCheckRendezvousSplitCopyExhaustive(t *testing.T) {
	hookRvz(t)
	rep := Exhaust(0, 0, rvzSplitThreads([2]int{2 * 16 << 10, 2 * 16 << 10}))
	if rep.Failed {
		t.Fatalf("split-copy rendezvous (exhaustive): %s", rep.Error())
	}
	if !rep.Complete {
		t.Fatalf("exhaustive exploration hit the schedule budget (%d schedules)", rep.Schedules)
	}
	t.Logf("exhaustive: %d schedules, complete", rep.Schedules)
}
