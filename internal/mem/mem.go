// Package mem defines the access-path API every simulated
// memory-hierarchy device implements. A CPU load in the PThammer model
// traverses the hierarchy — dTLB → sTLB → page walk, then L1 → L2 → LLC
// → DRAM — and each hop is a Device that answers a Lookup with a Result
// carrying where the access was served and how many cycles it cost.
// Devices chain through the same interface, so the machine facade, the
// page walker and the eviction-set algorithms all program against one
// surface. An access is a bare address: no device treats a demand load
// differently from the walker's PTE fetch, so what makes a fetch
// implicit is only who issues it (ptwalk.Walker sends each level's
// entry address down the same cache chain as a load). A device is a
// Lookup or Translate method that returns a Result.
//
// Contract: a Device advances the shared timing.Clock by exactly the
// Latency it reports (devices that forward a miss report the serving
// device's latency and advance nothing themselves). That is what keeps
// counter deltas and timing histograms consistent by construction.
// In the multi-core mode a shared device is reached through per-core
// ports (cache.Hierarchy over cache.SharedLLC, dram.Port over dram.DRAM)
// and the contract holds per port: whatever shared state a lookup
// mutates, the full reported latency — including any arbitration
// surcharge for crossing behind another core — is charged to the
// accessing core's clock and counters, never to another core's.
package mem

import (
	"fmt"

	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Level identifies which device in the hierarchy served an access.
type Level int

const (
	// LevelNone means the access has not been served by any device.
	LevelNone Level = iota
	// LevelTLB1 is the first-level data TLB.
	LevelTLB1
	// LevelTLB2 is the shared second-level TLB (sTLB).
	LevelTLB2
	// LevelPageWalk means the translation required a hardware page walk.
	LevelPageWalk
	// LevelL1 is the L1 data cache.
	LevelL1
	// LevelL2 is the unified per-core L2 cache.
	LevelL2
	// LevelLLC is the shared inclusive last-level cache.
	LevelLLC
	// LevelDRAM means the access went all the way to a DRAM bank.
	LevelDRAM
)

// String returns a short human-readable name for the level.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelTLB1:
		return "dTLB"
	case LevelTLB2:
		return "sTLB"
	case LevelPageWalk:
		return "page-walk"
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("mem.Level(%d)", int(l))
	}
}

// Result is a device's answer: how long the access took, whether this
// chain served it from a hit, and which level the data came from.
type Result struct {
	Latency timing.Cycles
	Hit     bool
	Source  Level
}

// Device is one level (or chain of levels) of the simulated hierarchy.
// Lookup services an access to the physical address, charges its cost
// to the shared clock and performance counters, and reports where it
// was served.
type Device interface {
	Lookup(phys.Addr) Result
}

// Translator is the translation side of the hierarchy: it resolves a
// virtual address to the physical frame it maps to, charging the cost
// of however it learned that (TLB hit, paging-structure cache hit, or
// a full page walk fetching PTE bytes through the data hierarchy).
// The same clock contract as Device applies: the shared clock advances
// by exactly the reported Latency.
type Translator interface {
	Translate(phys.Addr) (phys.Frame, Result)
}
