//go:build purecheck

package ssw

// The checker's hooks.  Both are written only while no hooked goroutines
// run (the checker installs them before spawning its cooperative threads
// and clears them after they join), so the plain variables are race-free.
var (
	schedHook func(string)
	waitHook  func(label string, cond func() bool)
)

// schedpoint hands control to the deterministic checker at a named
// synchronization point.  See hooks_prod.go for the production no-op.
func schedpoint(label string) {
	if h := schedHook; h != nil {
		h(label)
	}
}

// checkerPark models a Park under the checker: the cooperative thread
// blocks until the bell holds a token, then consumes it.  There is no
// timeout in the model, so a lost ring shows up as a deadlock.
func checkerPark(b *Bell) bool {
	h := waitHook
	if h == nil {
		return false
	}
	h("ssw:bell:parked", func() bool { return len(b.c) > 0 })
	<-b.c
	return true
}

// SetSchedHook installs (or, with nil, removes) the checker's scheduling
// hook and its blocking-wait hook.  Only the internal/check model tests call
// this; it exists only under the purecheck build tag.
func SetSchedHook(h func(string), wait func(label string, cond func() bool)) {
	schedHook, waitHook = h, wait
}
