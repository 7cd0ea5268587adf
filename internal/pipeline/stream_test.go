package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
)

// feedJobs produces n generated jobs on a fresh channel, numbering them
// with their global index, and stops early if ctx is cancelled.
func feedJobs(ctx context.Context, n int, seed int64) <-chan Job {
	jobs := make(chan Job)
	go func() {
		defer close(jobs)
		cfg := gen.DefaultConfig()
		for i := 0; i < n; i++ {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			job := Job{
				Name:   fmt.Sprintf("stream-%d.p4", i),
				Source: gen.Random(rng, cfg),
				Seq:    int64(i),
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				return
			}
		}
	}()
	return jobs
}

// TestRunStreamMatchesRun: streaming the same jobs through RunStream must
// reproduce Run's per-job verdicts exactly (NI seeding included), just
// without materializing the corpus.
func TestRunStreamMatchesRun(t *testing.T) {
	const n = 60
	cfg := gen.DefaultConfig()
	jobs := make([]Job, n)
	for i := range jobs {
		rng := rand.New(rand.NewSource(7 + int64(i)))
		jobs[i] = Job{Name: fmt.Sprintf("stream-%d.p4", i), Source: gen.Random(rng, cfg)}
	}
	opts := Options{Workers: 4, NI: true, Budget: Budget{Trials: 4}, NISeed: 7}

	sum, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	byName := map[string]JobResult{}
	for r := range RunStream(context.Background(), feedJobs(context.Background(), n, 7), opts) {
		byName[r.Job.Name] = r
	}
	if len(byName) != n {
		t.Fatalf("stream delivered %d results, want %d", len(byName), n)
	}
	for _, want := range sum.Results {
		got, ok := byName[want.Job.Name]
		if !ok {
			t.Fatalf("stream missing result for %s", want.Job.Name)
		}
		if got.IFCOK() != want.IFCOK() || got.BaseOK() != want.BaseOK() ||
			len(got.NIViolations) != len(want.NIViolations) {
			t.Errorf("%s: stream verdict differs from batch: ifc %v/%v base %v/%v witnesses %d/%d",
				want.Job.Name, got.IFCOK(), want.IFCOK(), got.BaseOK(), want.BaseOK(),
				len(got.NIViolations), len(want.NIViolations))
		}
	}
}

// TestRunStreamCancellationLeaksNoGoroutines: cancelling the stream must
// terminate the producer, every worker, and the closer goroutine, both
// mid-flight with the consumer still reading and with the consumer gone
// while every slot of the result buffer holds a parked result.
func TestRunStreamCancellationLeaksNoGoroutines(t *testing.T) {
	const workers = 4
	opts := Options{Workers: workers, NI: true, Budget: Budget{Trials: 2}, NISeed: 1}

	// settled waits for the goroutine count to fall back to before; the
	// producer observes ctx.Done on its next send, so the runtime may
	// need a beat to unwind.
	settled := func(t *testing.T, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines leaked: %d before stream, %d after cancellation", before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	t.Run("mid-stream", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		out := RunStream(ctx, feedJobs(ctx, 100000, 1), opts)

		// Consume a few results, then cancel with the stream mid-flight.
		for i := 0; i < 5; i++ {
			if _, ok := <-out; !ok {
				t.Fatal("stream closed before cancellation")
			}
		}
		cancel()
		for range out { // drain until the workers close the channel
		}
		settled(t, before)
	})

	t.Run("parked-results", func(t *testing.T) {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		out := RunStream(ctx, feedJobs(ctx, 100000, 1), opts)
		if cap(out) != workers {
			t.Fatalf("result buffer holds %d, want one per worker (%d)", cap(out), workers)
		}

		// Read nothing until every buffer slot is full, so each worker
		// that finishes another job is blocked sending it; then cancel.
		deadline := time.Now().Add(10 * time.Second)
		for len(out) < workers {
			if time.Now().After(deadline) {
				t.Fatalf("result buffer never filled: %d of %d", len(out), workers)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()

		// Every worker, the producer and the closer must exit with the
		// parked results still unread.
		settled(t, before)
		parked := 0
		for range out {
			parked++
		}
		if parked != workers {
			t.Errorf("read %d parked results after cancellation, want %d", parked, workers)
		}
	})
}

// TestRunStreamShardUnion: partitioning the index space by idx mod n and
// streaming each shard separately must cover exactly the unsharded job
// set, with per-job results independent of the sharding (the NI seed rides
// on Job.Seq, not arrival order).
func TestRunStreamShardUnion(t *testing.T) {
	const n, shards = 48, 3
	opts := Options{Workers: 2, NI: true, Budget: Budget{Trials: 3}, NISeed: 11}
	cfg := gen.DefaultConfig()

	shardFeed := func(ctx context.Context, shard int) <-chan Job {
		jobs := make(chan Job)
		go func() {
			defer close(jobs)
			for i := shard; i < n; i += shards {
				rng := rand.New(rand.NewSource(11 + int64(i)))
				job := Job{
					Name:   fmt.Sprintf("stream-%d.p4", i),
					Source: gen.Random(rng, cfg),
					Seq:    int64(i),
				}
				select {
				case jobs <- job:
				case <-ctx.Done():
					return
				}
			}
		}()
		return jobs
	}

	union := map[string]JobResult{}
	for s := 0; s < shards; s++ {
		for r := range RunStream(context.Background(), shardFeed(context.Background(), s), opts) {
			if _, dup := union[r.Job.Name]; dup {
				t.Fatalf("job %s analyzed by two shards", r.Job.Name)
			}
			union[r.Job.Name] = r
		}
	}

	want := map[string]JobResult{}
	for r := range RunStream(context.Background(), feedJobs(context.Background(), n, 11), opts) {
		want[r.Job.Name] = r
	}

	var missing []string
	for name := range want {
		if _, ok := union[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(union) != len(want) || len(missing) > 0 {
		t.Fatalf("shard union covers %d jobs, want %d (missing %v)", len(union), len(want), missing)
	}
	for name, w := range want {
		g := union[name]
		if g.IFCOK() != w.IFCOK() || len(g.NIViolations) != len(w.NIViolations) || g.NITrialsRun != w.NITrialsRun {
			t.Errorf("%s: sharded result differs from unsharded: ifc %v/%v witnesses %d/%d trials %d/%d",
				name, g.IFCOK(), w.IFCOK(), len(g.NIViolations), len(w.NIViolations), g.NITrialsRun, w.NITrialsRun)
		}
	}
}

// TestRunStreamAdaptiveBudget: with an adaptive budget, rejected programs
// may escalate past the base budget while accepted ones never do.
func TestRunStreamAdaptiveBudget(t *testing.T) {
	opts := Options{Workers: 2, NI: true, Budget: Budget{Trials: 2, TrialsMax: 16}, NISeed: 3}
	sawEscalation := false
	for r := range RunStream(context.Background(), feedJobs(context.Background(), 80, 3), opts) {
		if !r.NIRan {
			continue
		}
		if r.IFCOK() && r.NITrialsRun != 2 {
			t.Errorf("%s: accepted program ran %d trials, want the base budget 2", r.Job.Name, r.NITrialsRun)
		}
		if !r.IFCOK() && r.NITrialsRun > 16 {
			t.Errorf("%s: rejected program ran %d trials, above the 16-trial ceiling", r.Job.Name, r.NITrialsRun)
		}
		if !r.IFCOK() && r.NITrialsRun > 2 {
			sawEscalation = true
		}
	}
	if !sawEscalation {
		t.Error("no rejected program escalated past the base budget")
	}
}
