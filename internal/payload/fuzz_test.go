package payload

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// corpusPrograms returns the seed programs the fuzzer starts from: the
// three shapes the retired engine ran (implicit-hammer style,
// privileged baseline, sweep replay) plus degenerate edges.
func corpusPrograms() []*Program {
	hammer := NewCompiler()
	hammer.Prime(pages(4, 6))
	hammer.Prime(pages(16, 4))
	hammer.Probe(0x3000)
	hammer.Prime(pages(24, 6))
	hammer.Prime(pages(40, 4))
	hammer.Probe(0x5000)

	priv := NewCompiler()
	priv.Invlpg(0x3000)
	priv.Flush(0x3100)
	priv.Load(0x3000)
	priv.Invlpg(0x5000)
	priv.Flush(0x5100)
	priv.Load(0x5000)

	replay := NewCompiler()
	replay.Loop(3, func(c *Compiler) {
		c.Flush(0x1000)
		c.Advance(40)
		c.LoadRec(pages(8, 4))
	})

	edges := NewCompiler()
	edges.Fence()
	edges.Store64(0x2000, 0xfeed)
	edges.TLBThrash(pages(60, 2))
	edges.ResetWindow()

	var out []*Program
	for _, c := range []*Compiler{hammer, priv, replay, edges} {
		p, err := c.Compile(testConfig().MemBytes)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	out = append(out, &Program{}) // empty program is valid
	return out
}

// FuzzOpRoundTrip drives the serialization contract: any input Decode
// accepts must re-Encode to the identical byte string (Decode rejects
// every non-canonical shape, so Encode∘Decode is the identity).
func FuzzOpRoundTrip(f *testing.F) {
	for _, p := range corpusPrograms() {
		enc, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte("pthp"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("decoded program failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("Encode∘Decode not the identity:\n in  %x\n out %x", data, enc)
		}
	})
}

// TestRegenFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz from corpusPrograms. Run with PTHAMMER_REGEN_CORPUS=1
// after changing the encoding or the seed set; it is a no-op otherwise.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("PTHAMMER_REGEN_CORPUS") == "" {
		t.Skip("set PTHAMMER_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	seeds := corpusPrograms()
	for _, target := range []string{"FuzzOpRoundTrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, p := range seeds {
			enc, err := p.Encode()
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(enc)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedCorpusDecodes pins the committed corpus files to the current
// encoding: every seed must parse as a fuzz input and Decode cleanly,
// so an encoding change that forgets to regenerate the corpus fails
// here rather than silently fuzzing dead inputs.
func TestSeedCorpusDecodes(t *testing.T) {
	for _, target := range []string{"FuzzOpRoundTrip"} {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no committed seeds for %s", target)
		}
		for _, name := range files {
			raw, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitN(raw, []byte("\n"), 2)
			if len(lines) != 2 || string(lines[0]) != "go test fuzz v1" {
				t.Fatalf("%s: not a go fuzz v1 corpus file", name)
			}
			body := string(bytes.TrimSpace(lines[1]))
			const pre, post = "[]byte(", ")"
			if len(body) < len(pre)+len(post) || body[:len(pre)] != pre || body[len(body)-1:] != post {
				t.Fatalf("%s: unexpected corpus body %q", name, body)
			}
			data, err := strconv.Unquote(body[len(pre) : len(body)-1])
			if err != nil {
				t.Fatalf("%s: unquote: %v", name, err)
			}
			if _, err := Decode([]byte(data)); err != nil && data != "pthp" {
				t.Fatalf("%s: seed no longer decodes: %v", name, err)
			}
		}
	}
}
