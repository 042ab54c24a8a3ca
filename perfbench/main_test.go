package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "hammer", "-seed", "-3"},
		{"-workload", "hammer", "-seed", "x"},
		{"-workload", "hammer", "-seconds", "0"},
		{"-workload", "hammer", "-trace", "2"},
		{"-workload", "hammer", "stray"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d; stderr:\n%s", args, code, exitUsage, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, out.String())
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	rec.newTrace()
	id := rec.begin("machine.New")
	rec.end(id)
	if id != -1 {
		t.Errorf("nil recorder handed out span %d", id)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	rec := &recorder{spans: []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "a", Start: 50, End: 60},
		{ID: 3, Parent: 2, Name: "b", Start: 52, End: 58},
	}}
	got := map[string]layerTime{}
	for _, l := range rec.selfTimes() {
		got[l.Name] = l
	}
	want := map[string]layerTime{
		"op": {Name: "op", Calls: 1, Total: 100, Self: 60},
		"a":  {Name: "a", Calls: 2, Total: 40, Self: 34},
		"b":  {Name: "b", Calls: 1, Total: 6, Self: 6},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

// smoke shrinks a workload to one warm-up op so tests stay quick.
func smoke(w workload) workload {
	w.warmups = 1
	return w
}

// tracedDigest runs set-up, warm-up and n ops with spans on and returns
// the digest of the ops' simulated outputs.
func tracedDigest(t *testing.T, w workload, seed int64, n int) string {
	rec := newRecorder()
	r, err := w.setup(seed, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.warmups; i++ {
		r.op(i, nil, rec)
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		if _, err := r.op(i, h, rec); err != nil {
			t.Fatalf("traced op %d: %v", i, err)
		}
	}
	if len(rec.spans) == 0 {
		t.Fatal("traced ops recorded no spans")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDigestsRepeatAndIgnoreTracing runs every workload at smoke size
// twice untraced and once traced: all three digests must agree, which
// also proves the hammer's decomposed replay (set-up and iteration)
// equals BuildEscalation and HammerOnce.
func TestDigestsRepeatAndIgnoreTracing(t *testing.T) {
	sz := sizing{minOps: 2, digestOps: 2, setups: 1}
	for _, w := range workloads {
		w := smoke(w)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var digests []string
			for k := 0; k < 2; k++ {
				o, err := measure(w, 7, sz, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if o.failed != 0 || len(o.ops) != sz.minOps {
					t.Fatalf("run %d: %d of %d ops failed", k, o.failed, len(o.ops))
				}
				digests = append(digests, o.digest)
			}
			digests = append(digests, tracedDigest(t, w, 7, sz.digestOps))
			if digests[0] != digests[1] || digests[0] != digests[2] {
				t.Fatalf("digests differ (untraced, untraced, traced): %v", digests)
			}
		})
	}
}

func TestDigestDependsOnSeed(t *testing.T) {
	w, _ := findWorkload("sweep")
	w = smoke(w)
	sz := sizing{minOps: 1, digestOps: 1, setups: 1}
	a, err := measure(w, 1, sz, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(w, 2, sz, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest == b.digest {
		t.Fatal("seeds 1 and 2 gave the same sweep digest")
	}
}

// TestTracedRunReportsEveryLayer runs the traced run at one op pair per
// workload and checks the result line and the span file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	sz := traceSizing{setups: 1, pairs: map[string]int{}}
	for _, w := range workloads {
		sz.pairs[w.name] = 1
	}
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	var out, errb bytes.Buffer
	if code := runTrace(3, sz, spans, &out, &errb); code != exitOK {
		t.Fatalf("runTrace = %d; stderr:\n%s", code, errb.String())
	}
	r := lastResult(t, out.String())
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("traced run not correct: %+v\nstderr:\n%s", r, errb.String())
	}
	if len(r.Metrics) != len(layerMetrics) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(layerMetrics))
	}
	for _, m := range layerMetrics {
		got, ok := r.Metrics[m.name]
		if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: %+v (present %v)", m.name, got, ok)
		}
	}
	if got := r.Metrics["hammer.implicit_ratio"].Value; got != 1 {
		t.Errorf("hammer.implicit_ratio = %v, want 1", got)
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var s struct{ Name string }
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.Name == "" {
			t.Fatalf("span line %d: %q: %v", lines, sc.Text(), err)
		}
	}
	if lines == 0 {
		t.Fatal("no spans written")
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

func TestResultLine(t *testing.T) {
	o := outcome{
		setup:    []time.Duration{3 * time.Second, time.Second, 2 * time.Second},
		refOps:   []time.Duration{time.Second, 3 * time.Second},
		units:    3000,
		peakLive: 3 << 20,
	}
	e := o.endToEnd()
	for name, want := range map[string]metric{
		"work_per_s":   {750, "1/s"},
		"setup_s":      {2, "s"},
		"peak_heap_mb": {3, "MB"},
	} {
		if e[name] != want {
			t.Errorf("%s = %+v, want %+v", name, e[name], want)
		}
	}
	var buf bytes.Buffer
	if err := printResult(&buf, result{Correct: true, Attempted: 3, Metrics: e}); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", got)
	}
	e["setup_s"] = metric{math.NaN(), "s"}
	if printResult(io.Discard, result{Metrics: e}) == nil {
		t.Error("a NaN metric was printed")
	}
}

// TestNormalizeUsesNearbyKernelSamples: each op is scaled by the
// median of the two kernel samples before it and the one after.
func TestNormalizeUsesNearbyKernelSamples(t *testing.T) {
	k := refNominal
	h := &hostRef{
		at:   []time.Duration{0, 10, 20, 30, 40},
		took: []time.Duration{k, k, 2 * k, 2 * k, 4 * k},
	}
	ops := []time.Duration{100, 100, 100, 100}
	got := h.normalize(ops, []time.Duration{5, 15, 25, 35})
	// Samples around each op: {k, k}, {k, k, 2k}, {k, 2k, 2k}, {2k, 2k, 4k}.
	want := []time.Duration{100, 100, 50, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, end-to-end metrics and per-layer metrics.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s, program has %s", i, w.Name, workloads[i].name)
		}
	}
	e := outcome{setup: []time.Duration{1}, refOps: []time.Duration{1}}.endToEnd()
	if len(spec.EndToEnd) != len(e) {
		t.Errorf("%d end-to-end metrics, program reports %d", len(spec.EndToEnd), len(e))
	}
	for _, m := range spec.EndToEnd {
		if e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, program reports %q", m.Name, m.Unit, e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, program has %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: %s %s, program has %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
