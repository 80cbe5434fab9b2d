//go:build !purecheck

package ssw

// schedpoint is the deterministic concurrency checker's scheduling seam (see
// internal/check).  In normal builds it is an empty function the compiler
// inlines away; under the `purecheck` build tag it dispatches to an
// installable hook.
func schedpoint(label string) {}

// checkerPark lets the checker model a Bell park as a cooperative wait.  In
// normal builds it never handles the park.
func checkerPark(b *Bell) bool { return false }
