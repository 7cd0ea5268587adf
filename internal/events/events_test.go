package events

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestKindStringRoundTrip: every kind's string name resolves back to the
// kind — the JSON vocabulary is total and unambiguous.
func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "event" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(name)
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Error("KindFromString accepted an unknown name")
	}
}

// TestEventJSONRoundTrip: the serialized form spells the kind as a string,
// omits zero-valued optional fields, and unmarshals back to the same
// event — the `-events-json` contract fleet ingestion depends on.
func TestEventJSONRoundTrip(t *testing.T) {
	e := Event{
		Kind:   KindLease,
		Op:     "fleet",
		Time:   time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Worker: "w1",
		Lo:     1000,
		Hi:     2000,
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	s := string(raw)
	if !strings.Contains(s, `"kind":"lease"`) {
		t.Errorf("kind not spelled as string: %s", s)
	}
	for _, absent := range []string{"index", "class", "rule", "detail", "key", "path", "done", "total"} {
		if strings.Contains(s, `"`+absent+`"`) {
			t.Errorf("zero field %q not omitted: %s", absent, s)
		}
	}
	var back Event
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Errorf("round trip changed the event:\n  in  %+v\n  out %+v", e, back)
	}
}

// TestEventJSONUnknownKind: ingesting a stream from a newer emitter with
// an unknown kind is an explicit error, not a silent zero kind.
func TestEventJSONUnknownKind(t *testing.T) {
	var e Event
	err := json.Unmarshal([]byte(`{"kind":"quantum-leap"}`), &e)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown kind unmarshalled with err=%v", err)
	}
}

// TestSinkNilSafe: emitting through a nil sink is a no-op, and Emit stamps
// the time when unset.
func TestSinkNilSafe(t *testing.T) {
	var s Sink
	s.Emit(Event{Kind: KindProgress}) // must not panic

	var got Event
	s = func(e Event) { got = e }
	s.Emit(Event{Kind: KindProgress})
	if got.Time.IsZero() {
		t.Error("Emit did not stamp the time")
	}
}

// TestWriterConcurrent: Writer renders every event whole, in each
// emitter's order, whichever goroutines emit at once — as JSON lines that
// decode back to the events, or as their Text lines with job-done events
// that carry no Detail skipped. Run under -race, it also checks that the
// sink serializes its writes to the shared io.Writer.
func TestWriterConcurrent(t *testing.T) {
	const emitters, each = 8, 200
	for _, asJSON := range []bool{false, true} {
		var buf strings.Builder
		sink := Writer(&buf, asJSON)
		var wg sync.WaitGroup
		for g := range emitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					op := fmt.Sprintf("op%d", g)
					sink.Emit(Event{Kind: KindProgress, Op: op, Done: i, Total: each})
					sink.Emit(Event{Kind: KindJobDone, Op: op, Index: int64(i)})
				}
			}()
		}
		wg.Wait()

		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		next := map[string]int{} // per emitter (and kind): the next Done or Index due
		for _, line := range lines {
			var e Event
			if !asJSON {
				// Only the progress ticks render as text.
				e = Event{Kind: KindProgress, Op: line[1:strings.IndexByte(line, ']')], Total: each}
				e.Done = next[e.Op]
				if want := e.Text(); line != want {
					t.Fatalf("text: line %q, want %q", line, want)
				}
			} else if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("json: line %q: %v", line, err)
			}
			key, seq := e.Op, e.Done
			if e.Kind == KindJobDone {
				key, seq = e.Op+"/job-done", int(e.Index)
			}
			if seq != next[key] {
				t.Fatalf("json=%v: line %q out of order, want %s #%d", asJSON, line, key, next[key])
			}
			next[key]++
		}
		want := emitters * each
		if asJSON {
			want *= 2
		}
		if len(lines) != want {
			t.Errorf("json=%v: %d lines, want %d", asJSON, len(lines), want)
		}
	}
}

// TestJobDoneText: a job-done event renders only when it carries a
// Detail, as compact's rewritten and collapsed entries do. A metrics
// snapshot never renders: its payload is for JSON consumers.
func TestJobDoneText(t *testing.T) {
	snap := &metrics.Snapshot{Counters: []metrics.Sample{{Name: "jobs_total", Value: 1}}}
	if got := (Event{Kind: KindMetrics, Op: "campaign", Snapshot: snap}).Text(); got != "" {
		t.Errorf("metrics event renders %q", got)
	}
	if got := (Event{Kind: KindJobDone, Op: "campaign", Index: 3}).Text(); got != "" {
		t.Errorf("job-done without detail renders %q", got)
	}
	e := Event{Kind: KindJobDone, Op: "compact", Path: "c/findings/x.p4", Detail: "collapsed onto 0123456789ab (40 bytes freed)"}
	if got, want := e.Text(), "[compact] c/findings/x.p4: collapsed onto 0123456789ab (40 bytes freed)"; got != want {
		t.Errorf("Text() = %q, want %q", got, want)
	}
}
