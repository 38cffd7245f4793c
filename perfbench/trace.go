package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// frame share Frame; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Frame  int64  `json:"frame"`
}

// module is the layer a span belongs to: the part of its name before the dot.
func (s *span) module() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the whole run; nothing is written until
// the run ends. Each goroutine records into its own spanBuf, so recording
// takes no lock.
type tracer struct {
	epoch time.Time
	limit int // spans kept per buffer; later ones are counted, not kept

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(limit int) *tracer { return &tracer{epoch: time.Now(), limit: limit} }

// spanBuf is one goroutine's span log. A nil *spanBuf records nothing, so
// untraced runs pass nil and pay one nil check per span.
type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int64
}

// buf returns a new per-goroutine buffer; nil when t is nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// now is the tracer clock; 0 when tracing is off.
func (b *spanBuf) now() int64 {
	if b == nil {
		return 0
	}
	return int64(time.Since(b.t.epoch))
}

// add records a finished span and returns its index for children to name as
// their parent (-1 when dropped or untraced).
func (b *spanBuf) add(name string, start, end int64, parent int, frame int64) int {
	if b == nil {
		return -1
	}
	if len(b.spans) >= b.t.limit {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{Name: name, Start: start, End: end, Parent: parent, Frame: frame})
	return len(b.spans) - 1
}

// open records a span whose end is not known yet; close sets it.
func (b *spanBuf) open(name string, parent int, frame int64) int {
	t := b.now()
	return b.add(name, t, t, parent, frame)
}

func (b *spanBuf) close(i int) {
	if b != nil && i >= 0 {
		b.spans[i].End = b.now()
	}
}

// spans returns every recorded span with parent indexes rebased onto the
// merged slice, and the number dropped over the limit.
func (t *tracer) spans() ([]span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	var dropped int64
	for _, b := range t.bufs {
		base := len(out)
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
		dropped += b.dropped
	}
	return out, dropped
}

// selfRow is one module's line in the self-time table.
type selfRow struct {
	Module string
	Spans  int
	Total  time.Duration
	Self   time.Duration
}

// selfTimes returns each module's span time and self time — its span time
// minus the part of it that its child spans cover — sorted by self time.
func selfTimes(spans []span) []selfRow {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	rows := map[string]*selfRow{}
	for i := range spans {
		s := &spans[i]
		r := rows[s.module()]
		if r == nil {
			r = &selfRow{Module: s.module()}
			rows[s.module()] = r
		}
		d := time.Duration(s.End - s.Start)
		r.Spans++
		r.Total += d
		r.Self += d - covered(spans, children[i], s.Start, s.End)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the child spans' intervals,
// clipped to [start, end].
func covered(spans []span, kids []int, start, end int64) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]int64{max(spans[k].Start, start), min(spans[k].End, end)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	curS, curE = iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curE {
			total += max(0, curE-curS)
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	total += max(0, curE-curS)
	return time.Duration(total)
}

// writeSelfTable prints the self-time table.
func writeSelfTable(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "self time by module (%s)\n", workload)
	fmt.Fprintf(w, "  %-11s %9s %12s %12s\n", "module", "spans", "span_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-11s %9d %12.3f %12.3f\n", r.Module, r.Spans,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}

// dumpSpans writes the spans as JSON lines to path.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
