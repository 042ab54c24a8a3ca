// Package bench is the required-annotation fixture: its import path
// ends in internal/bench, so the analyzer demands //pthammer:noalloc
// on ImplicitHammer.HammerOnce. This copy deliberately omits the
// annotation.
package bench

// ImplicitHammer mirrors the real hammer receiver.
type ImplicitHammer struct{ iters int }

// HammerOnce is a required hot path but is not annotated.
func (h *ImplicitHammer) HammerOnce() int { // want `ImplicitHammer\.HammerOnce must carry //pthammer:noalloc`
	h.iters++
	return h.iters
}
