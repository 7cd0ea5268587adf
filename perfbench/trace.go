package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job (the
// campaign index, or the input's position in the typecheck set), and Parent
// names the span that caused this one (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Job    int64  `json:"job"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"` // heap objects allocated inside the span
}

// tracer records spans in memory, on one goroutine. A nil *tracer records
// nothing and costs one nil check per call, so the same replay code runs
// traced and untraced.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span IDs; the top is the next parent
	// allocSample reads the runtime's cumulative heap-allocation count.
	// Small objects are counted when their size class's span is refilled,
	// so a single span's count is coarse; sums over many spans are exact
	// to within one refill per size class.
	allocSample []metrics.Sample
	allocStart  []uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:          time.Now(),
		allocSample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.allocSample)
	return t.allocSample[0].Value.Uint64()
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string, job int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.open = append(t.open, id)
	t.allocStart = append(t.allocStart, t.allocs())
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the innermost span, which must be id.
func (t *tracer) end(id int32) {
	t.endAs(id, "")
}

// endAs closes the innermost span and, when rename is not empty, files it
// under that name: a call whose layer is only known from its result (an
// oracle check that did or did not enumerate) is named when it returns.
func (t *tracer) endAs(id int32, rename string) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	if n < 0 || t.open[n] != id {
		panic(fmt.Sprintf("tracer: closing span %d out of order", id))
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Allocs = t.allocs() - t.allocStart[n]
	if rename != "" {
		s.Name = rename
	}
	t.open = t.open[:n]
	t.allocStart = t.allocStart[:n]
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls      int
	total      time.Duration // inclusive span time
	self       time.Duration // span time minus the time its children cover
	allocs     uint64        // inclusive
	selfAllocs uint64
}

// stats aggregates every closed span by name. Children are nested within
// their parent on one goroutine, so a span's self time is its duration minus
// the sum of its direct children's durations.
func (t *tracer) stats() map[string]*layerStat {
	out := map[string]*layerStat{}
	if t == nil {
		return out
	}
	childDur := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
		}
	}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - childDur[i])
		st.allocs += s.Allocs
		st.selfAllocs += s.Allocs - min(s.Allocs, childAllocs[i])
	}
	return out
}

// write dumps the spans as JSON lines, the form the benchmark leaves behind
// for offline inspection of a traced run.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perCall returns total/calls in nanoseconds, 0 when the layer never ran.
func perCall(d time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

// ratio returns a/b, 0 when b is 0 (the layer did no work on this
// workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
