// Package payload is the program format of the retired compiled hammer
// engine: a scenario body lowered into a flat op-stream Program —
// dense arrays of opcodes, addresses and values — that can be
// validated, fuzzed and serialized. The format mirrors
// litex-rowhammer-tester's Encoder/OpCode payload executor.
//
// Nothing executes programs and no package imports this one: every
// hammer caller runs the closure bodies (bench.ImplicitHammer,
// bench.ImplicitPair, the sweep shard loop), which are the one engine.
// The package stays only until it is deleted (ROADMAP.md, open item
// 2); add no ops and no callers.
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
// serialized, fuzzed and replayed on any machine whose memory it fits
// (Validate).
type Program struct {
	Ops   []Op
	Addrs []phys.Addr
	Vals  []uint64
}

// maxSteps bounds the dynamic instruction count of a valid program
// (loop trip counts multiply), so every valid program provably
// terminates and the fuzzer cannot construct a spin.
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

// The serialized layout (little-endian throughout):
//
//	magic "pthp", version byte, 3 reserved zero bytes
//	u32 ops, u32 addrs, u32 vals
//	per op: u8 code, u32 A, u32 B
//	per addr: u64; per val: u64
//
// Decode rejects anything but this exact shape, so Encode∘Decode is
// the identity on valid encodings — the fuzzed round-trip property.
const (
	encVersion    = 1
	encHeaderLen  = 8 + 12
	encOpLen      = 9
	encMaxEntries = 1 << 20
)

var encMagic = [4]byte{'p', 't', 'h', 'p'}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// Encode serializes the program. Programs with more than encMaxEntries
// ops, addrs or vals are not encodable (nor decodable).
func (p *Program) Encode() ([]byte, error) {
	if len(p.Ops) > encMaxEntries || len(p.Addrs) > encMaxEntries || len(p.Vals) > encMaxEntries {
		return nil, fmt.Errorf("payload: program too large to encode (%d/%d/%d entries, max %d)",
			len(p.Ops), len(p.Addrs), len(p.Vals), encMaxEntries)
	}
	out := make([]byte, encHeaderLen+encOpLen*len(p.Ops)+8*len(p.Addrs)+8*len(p.Vals))
	copy(out, encMagic[:])
	out[4] = encVersion
	putU32(out[8:], uint32(len(p.Ops)))
	putU32(out[12:], uint32(len(p.Addrs)))
	putU32(out[16:], uint32(len(p.Vals)))
	o := encHeaderLen
	for _, op := range p.Ops {
		out[o] = byte(op.Code)
		putU32(out[o+1:], op.A)
		putU32(out[o+5:], op.B)
		o += encOpLen
	}
	for _, a := range p.Addrs {
		putU64(out[o:], uint64(a))
		o += 8
	}
	for _, v := range p.Vals {
		putU64(out[o:], v)
		o += 8
	}
	return out, nil
}

// Decode parses a serialized program, rejecting malformed input:
// wrong magic or version, nonzero reserved bytes, truncated or
// oversized bodies, and opcodes outside the ISA. Decoding performs no
// semantic validation — run Validate before executing.
func Decode(data []byte) (*Program, error) {
	if len(data) < encHeaderLen {
		return nil, fmt.Errorf("payload: %d-byte input shorter than the %d-byte header", len(data), encHeaderLen)
	}
	if [4]byte(data[:4]) != encMagic {
		return nil, fmt.Errorf("payload: bad magic %q", data[:4])
	}
	if data[4] != encVersion {
		return nil, fmt.Errorf("payload: unsupported version %d", data[4])
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("payload: nonzero reserved bytes")
	}
	nOps := uint64(getU32(data[8:]))
	nAddrs := uint64(getU32(data[12:]))
	nVals := uint64(getU32(data[16:]))
	if nOps > encMaxEntries || nAddrs > encMaxEntries || nVals > encMaxEntries {
		return nil, fmt.Errorf("payload: entry counts %d/%d/%d exceed the %d cap", nOps, nAddrs, nVals, encMaxEntries)
	}
	want := uint64(encHeaderLen) + encOpLen*nOps + 8*nAddrs + 8*nVals
	if uint64(len(data)) != want {
		return nil, fmt.Errorf("payload: %d-byte input, want %d for %d/%d/%d entries", len(data), want, nOps, nAddrs, nVals)
	}
	p := &Program{
		Ops:   make([]Op, nOps),
		Addrs: make([]phys.Addr, nAddrs),
		Vals:  make([]uint64, nVals),
	}
	o := encHeaderLen
	for i := range p.Ops {
		code := OpCode(data[o])
		if code >= opCount {
			return nil, fmt.Errorf("payload: op %d: unknown opcode %d", i, data[o])
		}
		p.Ops[i] = Op{Code: code, A: getU32(data[o+1:]), B: getU32(data[o+5:])}
		o += encOpLen
	}
	for i := range p.Addrs {
		p.Addrs[i] = phys.Addr(getU64(data[o:]))
		o += 8
	}
	for i := range p.Vals {
		p.Vals[i] = getU64(data[o:])
		o += 8
	}
	return p, nil
}
