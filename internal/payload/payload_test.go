package payload

import (
	"strings"
	"testing"

	"pthammer/internal/phys"
)

// pages returns n page-stride addresses starting at page `start`.
func pages(start, n int) []phys.Addr {
	out := make([]phys.Addr, n)
	for i := range out {
		out[i] = phys.Addr(uint64(start+i) << phys.FrameShift)
	}
	return out
}

func TestValidateErrors(t *testing.T) {
	const mem = 1 << 24
	addr := []phys.Addr{0x1000, 0x2008}
	cases := []struct {
		name string
		prog Program
		want string // substring of the error, "" for valid
	}{
		{"empty ok", Program{}, ""},
		{"addr out of memory", Program{Addrs: []phys.Addr{mem}}, "outside"},
		{"unknown opcode", Program{Ops: []Op{{Code: opCount}}}, "unknown opcode"},
		{"load index oob", Program{Ops: []Op{{Code: OpLoad, A: 2}}, Addrs: addr}, "addr index 2 out of range"},
		{"store64 unaligned", Program{Ops: []Op{{Code: OpStore64, A: 1, B: 0}}, Addrs: []phys.Addr{0, 0x2004}, Vals: []uint64{7}}, "unaligned"},
		{"store64 val oob", Program{Ops: []Op{{Code: OpStore64, A: 0, B: 1}}, Addrs: addr, Vals: []uint64{7}}, "value index 1 out of range"},
		{"prime range oob", Program{Ops: []Op{{Code: OpPrime, A: 1, B: 2}}, Addrs: addr}, "addr range"},
		{"range wraps", Program{Ops: []Op{{Code: OpLoadRec, A: ^uint32(0), B: 2}}, Addrs: addr}, "addr range"},
		{"advance val oob", Program{Ops: []Op{{Code: OpAdvance, A: 0}}}, "advance value index"},
		{"loop zero trips", Program{Ops: []Op{{Code: OpNop}, {Code: OpLoop, A: 0, B: 0}}}, "trip count"},
		{"loop forward target", Program{Ops: []Op{{Code: OpLoop, A: 5, B: 2}}}, "forward"},
		// Targets >= 2^31 must fail the backward check on 32-bit hosts
		// too, where int(op.A) wraps negative — a wrapped target would
		// validate as a backward jump to a negative pc.
		{"loop target wraps 32-bit int", Program{Ops: []Op{{Code: OpNop}, {Code: OpLoop, A: 1 << 31, B: 2}}}, "forward"},
		{"loops interleave", Program{Ops: []Op{
			{Code: OpNop},              // 0
			{Code: OpNop},              // 1
			{Code: OpLoop, A: 0, B: 2}, // 2: spans [0,2]
			{Code: OpLoop, A: 1, B: 2}, // 3: spans [1,3] — straddles op 2
		}}, "interleave"},
		{"nested loops ok", Program{Ops: []Op{
			{Code: OpNop},
			{Code: OpNop},
			{Code: OpLoop, A: 1, B: 4},
			{Code: OpLoop, A: 0, B: 4},
		}}, ""},
		{"step bound", Program{Ops: []Op{
			{Code: OpNop},
			{Code: OpLoop, A: 0, B: 1 << 10},
			{Code: OpLoop, A: 0, B: 1 << 10},
			{Code: OpLoop, A: 0, B: 1 << 10},
		}}, "step bound"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.prog.Validate(mem)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestPrivileged(t *testing.T) {
	c := NewCompiler()
	c.Prime(pages(2, 4))
	c.Probe(pages(2, 1)[0])
	p, err := c.Compile(1 << 24)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Privileged() {
		t.Fatal("implicit program reported privileged")
	}
	c = NewCompiler()
	c.Invlpg(0x1000)
	c.Flush(0x1000)
	c.Load(0x1000)
	p, err = c.Compile(1 << 24)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !p.Privileged() {
		t.Fatal("invlpg+clflush program reported unprivileged")
	}
}

func TestCompilerElidesDegenerateLoops(t *testing.T) {
	c := NewCompiler()
	c.Loop(0, func(c *Compiler) { c.Load(0x1000) })
	c.Loop(3, func(c *Compiler) {})
	p, err := c.Compile(1 << 24)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Ops) != 0 {
		t.Fatalf("degenerate loops emitted %d ops, want 0", len(p.Ops))
	}
}

func TestCompiledProgramIsSelfContained(t *testing.T) {
	stream := pages(8, 4)
	c := NewCompiler()
	c.Prime(stream)
	p, err := c.Compile(1 << 24)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	stream[0] = 0xdead000
	if p.Addrs[0] == 0xdead000 {
		t.Fatal("compiled program aliases the caller's stream slice")
	}
}

func TestOpCodeString(t *testing.T) {
	if OpPrime.String() != "prime" || OpLoop.String() != "loop" {
		t.Fatalf("mnemonics wrong: %v %v", OpPrime, OpLoop)
	}
	if got := OpCode(200).String(); got != "op(200)" {
		t.Fatalf("out-of-range opcode renders %q", got)
	}
}
