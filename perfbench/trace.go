package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Trace; Parent is the enclosing span's ID, -1 at the top.
type span struct {
	ID, Parent, Trace int
	Name              string
	Start, End        time.Duration // since the recorder's origin
}

// recorder keeps spans in memory around the exported calls the
// benchmark makes. A nil *recorder records nothing, so an untraced run
// pays one nil check per call site and holds no spans.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // stack of unfinished span IDs
	trace  int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// newTrace starts a new op: spans begun from here on share a fresh
// trace identifier.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace++
	}
}

// begin opens a span named after the called function and returns its
// ID for end.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name, Start: time.Since(r.origin)})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

// durations returns the durations of every span with the given name
// recorded since index from, in recording order.
func (r *recorder) durations(from int, name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans[from:] {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// layerTime is one span name's aggregate: how often it was entered,
// its total time, and its self time — the total minus the part its
// direct children cover.
type layerTime struct {
	Name        string
	Calls       int
	Total, Self time.Duration
}

// selfTimes aggregates the spans by name, in order of first appearance.
func (r *recorder) selfTimes() []layerTime {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []layerTime
	for i, s := range r.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, layerTime{Name: s.Name})
		}
		out[k].Calls++
		out[k].Total += s.End - s.Start
		out[k].Self += s.End - s.Start - child[i]
	}
	return out
}

// printSelfTimes writes one line per layer, largest self time first.
func (r *recorder) printSelfTimes(w io.Writer) {
	lt := r.selfTimes()
	sort.SliceStable(lt, func(i, j int) bool { return lt[i].Self > lt[j].Self })
	for _, l := range lt {
		fmt.Fprintf(w, "  self %-36s calls=%-8d total_ms=%-12.3f self_ms=%.3f\n",
			l.Name, l.Calls, ms(l.Total), ms(l.Self))
	}
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Parent, s.Trace, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
