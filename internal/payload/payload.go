// Package payload is the program format of the retired compiled hammer
// engine: a scenario body lowered into a flat op-stream Program —
// dense arrays of opcodes, addresses and values — that can be
// validated. The format mirrors litex-rowhammer-tester's OpCode
// payload executor.
//
// Nothing executes programs and no package imports this one: every
// hammer caller runs the closure bodies (bench.ImplicitHammer,
// bench.ImplicitPair, the sweep shard loop), which are the one engine.
// The package stays only until it is deleted (ROADMAP.md, open item
// 1); add no ops and no callers.
package payload

import (
	"fmt"

	"pthammer/internal/phys"
)

// OpCode selects one program operation. The zero value is OpNop so a
// zeroed Op is harmless.
type OpCode uint8

// The payload ISA. Operand meaning per opcode:
//
//	OpNop        —
//	OpLoad       demand load Addrs[A]
//	OpStore64    demand store of Vals[B] at Addrs[A] (8-byte aligned)
//	OpPrime      machine.Prime over Addrs[A : A+B] (eviction-set walk;
//	             under a fault model the stream may be rotated/dropped,
//	             exactly like the closure path's Evict)
//	OpTLBThrash  individual demand loads over Addrs[A : A+B] (a plain
//	             page-stride stream: no fault-model Prime hooks)
//	OpProbe      timed+PMC-decoded load of Addrs[A]
//	OpLoadRec    demand loads over Addrs[A : A+B], recording each
//	             latency (the sweep engine's histogram feed)
//	OpAdvance    advance the core clock by Vals[A] cycles (NOP padding)
//	OpResetWindow discard the DRAM refresh window
//	OpInvlpg     privileged invlpg of Addrs[A] (baseline programs only)
//	OpFlush      privileged clflush of Addrs[A] (baseline programs only)
//	OpFence      serialization marker; no machine effect
//	OpLoop       jump back to op index A until this op has executed B
//	             times (loops must be backward and well-nested)
const (
	OpNop OpCode = iota
	OpLoad
	OpStore64
	OpPrime
	OpTLBThrash
	OpProbe
	OpLoadRec
	OpAdvance
	OpResetWindow
	OpInvlpg
	OpFlush
	OpFence
	OpLoop
	opCount // sentinel, not encodable
)

var opNames = [...]string{
	OpNop:         "nop",
	OpLoad:        "load",
	OpStore64:     "store64",
	OpPrime:       "prime",
	OpTLBThrash:   "tlbthrash",
	OpProbe:       "probe",
	OpLoadRec:     "loadrec",
	OpAdvance:     "advance",
	OpResetWindow: "resetwindow",
	OpInvlpg:      "invlpg",
	OpFlush:       "flush",
	OpFence:       "fence",
	OpLoop:        "loop",
}

// String renders the opcode mnemonic.
func (c OpCode) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("op(%d)", uint8(c))
}

// Op is one instruction: an opcode and two 32-bit operands whose
// meaning depends on the opcode (indices into the program's Addrs/Vals
// tables, stream lengths, jump targets, trip counts).
type Op struct {
	Code OpCode
	A, B uint32
}

// Program is a compiled scenario body in structure-of-arrays layout:
// the instruction stream plus the address and value tables it indexes.
// A Program holds no machine state and no host pointers, so it can be
// replayed on any machine whose memory it fits (Validate).
type Program struct {
	Ops   []Op
	Addrs []phys.Addr
	Vals  []uint64
}

// maxSteps bounds the dynamic instruction count of a valid program
// (loop trip counts multiply), so every valid program provably
// terminates.
const maxSteps = 1 << 20

// rangeOps marks the opcodes whose (A, B) operands denote the address
// range Addrs[A : A+B].
func (c OpCode) rangeOp() bool {
	switch c {
	case OpPrime, OpTLBThrash, OpLoadRec:
		return true
	}
	return false
}

// addrOp marks the opcodes whose A operand is a single Addrs index.
func (c OpCode) addrOp() bool {
	switch c {
	case OpLoad, OpStore64, OpProbe, OpInvlpg, OpFlush:
		return true
	}
	return false
}

// Privileged reports whether the program contains a privileged
// operation (invlpg or clflush). Implicit-hammer programs must not —
// the paper's attacker has neither.
func (p *Program) Privileged() bool {
	for _, op := range p.Ops {
		if op.Code == OpInvlpg || op.Code == OpFlush {
			return true
		}
	}
	return false
}

// loopWeights returns, per op index, how many times that op executes in
// one run (the product of the trip counts of every loop enclosing it),
// after checking that loops are backward and well-nested. The weights
// saturate at maxSteps+1 so callers can bound totals without overflow.
func (p *Program) loopWeights() ([]uint64, error) {
	type span struct{ lo, hi int } // [lo, hi] inclusive, hi is the OpLoop
	var spans []span
	var trips []uint64
	for pc, op := range p.Ops {
		if op.Code != OpLoop {
			continue
		}
		if op.B == 0 {
			return nil, fmt.Errorf("payload: op %d: loop trip count must be ≥ 1", pc)
		}
		// Compare in uint64: on 32-bit platforms int(op.A) wraps
		// negative for targets >= 2^31 and would slip past this check
		// as a backward jump to a negative pc.
		if uint64(op.A) > uint64(pc) {
			return nil, fmt.Errorf("payload: op %d: loop target %d is forward (loops must jump backward)", pc, op.A)
		}
		spans = append(spans, span{lo: int(op.A), hi: pc})
		trips = append(trips, uint64(op.B))
	}
	// Well-nesting: any two loop spans must be disjoint or one must
	// contain the other. O(n²) is fine at validation time.
	for i := range spans {
		for j := range spans {
			si, sj := spans[i], spans[j]
			if si.hi < sj.hi && sj.lo <= si.hi && sj.lo > si.lo {
				return nil, fmt.Errorf("payload: loops at ops %d and %d interleave (target %d lands inside [%d, %d])",
					si.hi, sj.hi, sj.lo, si.lo, si.hi)
			}
		}
	}
	w := make([]uint64, len(p.Ops))
	for pc := range w {
		w[pc] = 1
		for i, s := range spans {
			if s.lo <= pc && pc <= s.hi {
				w[pc] *= trips[i]
				if w[pc] > maxSteps {
					w[pc] = maxSteps + 1
				}
			}
		}
	}
	return w, nil
}

// Validate reports the first reason the program is not well-formed for
// a machine with memBytes of physical memory: a valid program indexes
// only its own tables, terminates within a bounded step count, and
// touches only in-range addresses.
func (p *Program) Validate(memBytes uint64) error {
	for i, a := range p.Addrs {
		if uint64(a) >= memBytes {
			return fmt.Errorf("payload: addr %d (%#x) outside %d-byte memory", i, uint64(a), memBytes)
		}
	}
	nAddrs, nVals := uint64(len(p.Addrs)), uint64(len(p.Vals))
	for pc, op := range p.Ops {
		switch {
		case op.Code >= opCount:
			return fmt.Errorf("payload: op %d: unknown opcode %d", pc, uint8(op.Code))
		case op.Code.addrOp():
			if uint64(op.A) >= nAddrs {
				return fmt.Errorf("payload: op %d (%v): addr index %d out of range (%d addrs)", pc, op.Code, op.A, nAddrs)
			}
			if op.Code == OpStore64 {
				if uint64(p.Addrs[op.A])&7 != 0 {
					return fmt.Errorf("payload: op %d: store64 at unaligned address %#x", pc, uint64(p.Addrs[op.A]))
				}
				if uint64(op.B) >= nVals {
					return fmt.Errorf("payload: op %d: value index %d out of range (%d vals)", pc, op.B, nVals)
				}
			}
		case op.Code.rangeOp():
			if uint64(op.A)+uint64(op.B) > nAddrs {
				return fmt.Errorf("payload: op %d (%v): addr range [%d, %d) out of range (%d addrs)", pc, op.Code, op.A, uint64(op.A)+uint64(op.B), nAddrs)
			}
		case op.Code == OpAdvance:
			if uint64(op.A) >= nVals {
				return fmt.Errorf("payload: op %d: advance value index %d out of range (%d vals)", pc, op.A, nVals)
			}
		}
	}
	w, err := p.loopWeights()
	if err != nil {
		return err
	}
	var steps uint64
	for pc, op := range p.Ops {
		cost := uint64(1)
		if op.Code.rangeOp() {
			cost += uint64(op.B)
		}
		steps += cost * w[pc]
		if steps > maxSteps {
			return fmt.Errorf("payload: program exceeds the %d-step bound", maxSteps)
		}
	}
	return nil
}
