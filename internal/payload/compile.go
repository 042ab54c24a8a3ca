// The payload compiler: an append-only builder that lowers a scenario
// body into a Program. Loops are expressed structurally (Loop with a
// body callback), so every compiled program is backward-jumping and
// well-nested by construction.
package payload

import (
	"pthammer/internal/phys"
	"pthammer/internal/timing"
)

// Compiler builds a Program op by op. The zero value is ready to use;
// emit ops, then Compile to validate and seal the program.
type Compiler struct {
	prog Program
}

// NewCompiler returns an empty compiler.
func NewCompiler() *Compiler { return &Compiler{} }

// addr interns one address into the table and returns its index.
func (c *Compiler) addr(a phys.Addr) uint32 {
	c.prog.Addrs = append(c.prog.Addrs, a)
	return uint32(len(c.prog.Addrs) - 1)
}

// addrRange appends a contiguous copy of the stream to the table,
// returning its start index. The copy keeps the program self-contained:
// mutating the source slice later cannot change the compiled program.
func (c *Compiler) addrRange(as []phys.Addr) (start, n uint32) {
	start = uint32(len(c.prog.Addrs))
	c.prog.Addrs = append(c.prog.Addrs, as...)
	return start, uint32(len(as))
}

// val interns one 64-bit value and returns its index.
func (c *Compiler) val(v uint64) uint32 {
	c.prog.Vals = append(c.prog.Vals, v)
	return uint32(len(c.prog.Vals) - 1)
}

func (c *Compiler) emit(op Op) { c.prog.Ops = append(c.prog.Ops, op) }

// Load emits a demand load of a.
func (c *Compiler) Load(a phys.Addr) { c.emit(Op{Code: OpLoad, A: c.addr(a)}) }

// Store64 emits a demand store of v at a (8-byte aligned).
func (c *Compiler) Store64(a phys.Addr, v uint64) {
	c.emit(Op{Code: OpStore64, A: c.addr(a), B: c.val(v)})
}

// Prime emits a machine.Prime walk over the stream — the eviction-set
// primitive (the unprivileged invlpg/clflush).
func (c *Compiler) Prime(as []phys.Addr) {
	start, n := c.addrRange(as)
	c.emit(Op{Code: OpPrime, A: start, B: n})
}

// TLBThrash emits individual demand loads over the stream (a plain
// page-stride walk, without Prime's fault-model hooks).
func (c *Compiler) TLBThrash(as []phys.Addr) {
	start, n := c.addrRange(as)
	c.emit(Op{Code: OpTLBThrash, A: start, B: n})
}

// Probe emits a timed, PMC-decoded load of a.
func (c *Compiler) Probe(a phys.Addr) { c.emit(Op{Code: OpProbe, A: c.addr(a)}) }

// LoadRec emits demand loads over the stream, recording each latency
// (the sweep histogram feed).
func (c *Compiler) LoadRec(as []phys.Addr) {
	start, n := c.addrRange(as)
	c.emit(Op{Code: OpLoadRec, A: start, B: n})
}

// Advance emits a clock advance of n cycles (NOP padding).
func (c *Compiler) Advance(n timing.Cycles) {
	c.emit(Op{Code: OpAdvance, A: c.val(uint64(n))})
}

// ResetWindow emits a DRAM refresh-window reset.
func (c *Compiler) ResetWindow() { c.emit(Op{Code: OpResetWindow}) }

// Invlpg emits the privileged invlpg of a — baseline programs only.
func (c *Compiler) Invlpg(a phys.Addr) { c.emit(Op{Code: OpInvlpg, A: c.addr(a)}) }

// Flush emits the privileged clflush of a's line — baseline programs
// only.
func (c *Compiler) Flush(a phys.Addr) { c.emit(Op{Code: OpFlush, A: c.addr(a)}) }

// Fence emits a serialization marker (no machine effect).
func (c *Compiler) Fence() { c.emit(Op{Code: OpFence}) }

// Loop emits body trips times: the callback appends the body once, and
// a backward OpLoop closes it. Nested Loop calls produce well-nested
// spans by construction. trips of 0 elides the body entirely.
func (c *Compiler) Loop(trips uint32, body func(*Compiler)) {
	if trips == 0 {
		return
	}
	start := uint32(len(c.prog.Ops))
	body(c)
	if len(c.prog.Ops) == int(start) {
		return // empty body: nothing to repeat
	}
	c.emit(Op{Code: OpLoop, A: start, B: trips})
}

// Compile validates the built program against the target memory size
// and returns it. The compiler must not be reused afterwards.
func (c *Compiler) Compile(memBytes uint64) (*Program, error) {
	p := c.prog
	if err := p.Validate(memBytes); err != nil {
		return nil, err
	}
	return &p, nil
}
