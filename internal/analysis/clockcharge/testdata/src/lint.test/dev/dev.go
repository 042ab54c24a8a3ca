// Package dev is a clockcharge fixture with charged, delegating,
// uncharged, and exempted device implementations.
package dev

import (
	"lint.test/internal/mem"
	"lint.test/internal/timing"
)

// Good charges every path: Advance on hits, delegation on misses.
type Good struct {
	clock *timing.Clock
	next  mem.Device
}

// Lookup is fully charged.
func (g *Good) Lookup(a uint64) mem.Result {
	if a == 0 {
		g.clock.Advance(4)
		return mem.Result{Latency: 4, Hit: true}
	}
	res := g.next.Lookup(a)
	return res
}

// Bad returns a Result on its first path without touching the clock.
type Bad struct {
	clock *timing.Clock
}

// Lookup forgets to charge the early-out.
func (b *Bad) Lookup(a uint64) mem.Result {
	if a == 0 {
		return mem.Result{Hit: true} // want `Bad\.Lookup returns a mem\.Result without advancing the clock`
	}
	b.clock.Advance(90)
	return mem.Result{Latency: 90}
}

// Walker is a charged Translator implementation.
type Walker struct {
	clock *timing.Clock
}

// Translate charges the walk cost before returning.
func (w *Walker) Translate(a uint64) (uint64, mem.Result) {
	w.clock.Advance(3)
	return a >> 12, mem.Result{Latency: 3}
}

// LazyWalker never charges.
type LazyWalker struct{}

// Translate is uncharged on its only path.
func (w *LazyWalker) Translate(a uint64) (uint64, mem.Result) {
	return 0, mem.Result{} // want `LazyWalker\.Translate returns a mem\.Result without advancing the clock`
}

// Free is a genuinely zero-cost fixture device carrying the reviewed
// exemption.
type Free struct{}

// Lookup is exempted.
func (f *Free) Lookup(a uint64) mem.Result {
	return mem.Result{Hit: true} //pthammer:nocharge-ok zero-cost fixture device
}

// NotADevice has a mem.Result under another method name, and a
// Translate without one: its returns are not checked.
type NotADevice struct{}

// Find returns a mem.Result but is neither Lookup nor Translate.
func (n *NotADevice) Find(addr uint64) mem.Result {
	return mem.Result{}
}

// Translate returns no mem.Result.
func (n *NotADevice) Translate(a uint64) uint64 {
	return a
}
