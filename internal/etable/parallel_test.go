package etable

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// TestParallelExecuteEquivalence asserts the full parallel execution
// path (morsel-parallel selects and joins, bypassing the size gate)
// returns results identical to serial execution on the paper's Figure 1
// and Figure 7 patterns.
func TestParallelExecuteEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		want, err := Execute(tr.Instance, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{2, 4} {
			matched := matchUngated(t, tr.Instance, p,
				ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: budget})
			got, err := transform(tr.Instance, p, matched)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, name, got, want)
		}
		// The public gated path must agree too (it may pick serial).
		got, err := ExecuteOpts(tr.Instance, p,
			ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, name+"/gated", got, want)
	}
}

// matchUngated runs the match pipeline with opt's budget as given,
// bypassing the EstimatePattern gate so the parallel kernels run even
// on the small test corpus.
func matchUngated(t *testing.T, g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) *graphrel.Relation {
	t.Helper()
	pl, err := PlanFor(g, p)
	if err != nil {
		t.Fatal(err)
	}
	bases, err := selectedBases(p, pl.baseRelation(g, opt, nil))
	if err != nil {
		t.Fatal(err)
	}
	src, err := composeStream(bases, pl, opt)
	if err != nil {
		t.Fatal(err)
	}
	matched, err := graphrel.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	return matched
}

func assertSameResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: rows %d vs %d", name, got.NumRows(), want.NumRows())
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: columns %d vs %d", name, len(got.Columns), len(want.Columns))
	}
	for ri := range want.Rows {
		gr, wr := &got.Rows[ri], &want.Rows[ri]
		if gr.Node != wr.Node || gr.Label != wr.Label {
			t.Fatalf("%s: row %d: %v/%q vs %v/%q", name, ri, gr.Node, gr.Label, wr.Node, wr.Label)
		}
		for ci := range wr.Cells {
			gc, wc := &gr.Cells[ci], &wr.Cells[ci]
			if !value.Equal(gc.Value, wc.Value) && !(gc.Value.IsNull() && wc.Value.IsNull()) {
				t.Fatalf("%s: row %d cell %d value differs", name, ri, ci)
			}
			if len(gc.Refs) != len(wc.Refs) {
				t.Fatalf("%s: row %d cell %d: %d vs %d refs", name, ri, ci, len(gc.Refs), len(wc.Refs))
			}
			for k := range wc.Refs {
				if gc.Refs[k] != wc.Refs[k] {
					t.Fatalf("%s: row %d cell %d ref %d differs", name, ri, ci, k)
				}
			}
		}
	}
}

// TestSerialFallbackGate pins the statistics-driven gate: on the small
// test corpus every pattern's peak estimated scan is far below two
// morsels, so effectiveFor must collapse the budget to 1 — tiny
// interactive queries never pay fan-out overhead.
func TestSerialFallbackGate(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	est := EstimatePattern(tr.Instance, p)
	if est <= 0 {
		t.Fatalf("EstimatePattern = %v, want > 0", est)
	}
	if est >= parallelMinEstRows {
		t.Skipf("test corpus grew past the gate (%v rows)", est)
	}
	pl, err := PlanFor(tr.Instance, p)
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Pool: exec.NewPool(4), Parallelism: 8}
	if got := opt.effectiveFor(pl); got.Parallelism != 1 {
		t.Errorf("effective parallelism = %d, want 1 (est %v < %d)",
			got.Parallelism, est, parallelMinEstRows)
	}
	// Without a pool the budget always collapses.
	if got := (ExecOptions{Parallelism: 8}).effectiveFor(pl); got.Parallelism != 1 {
		t.Errorf("pool-less effective parallelism = %d, want 1", got.Parallelism)
	}
}

// TestExecuteOptsCancellation asserts a canceled request context stops
// execution with context.Canceled through both the plain and the
// caching executors.
func TestExecuteOptsCancellation(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExecOptions{Ctx: ctx, Pool: exec.NewPool(2), Parallelism: 4}
	if _, err := ExecuteOpts(tr.Instance, p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteOpts err = %v, want Canceled", err)
	}
	ex := NewExecutor(tr.Instance)
	if _, err := ex.ExecuteWithOpts(p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("Executor err = %v, want Canceled", err)
	}
	// The cancellation error must not be cached: the same executor
	// succeeds once the context is live again.
	if _, err := ex.ExecuteWithOpts(p, ExecOptions{Ctx: context.Background()}); err != nil {
		t.Errorf("post-cancel execute failed: %v", err)
	}
}

// TestPlanStepEstimates pins the planner's propagated cardinalities:
// every step carries finite EstIn/EstOut, chained EstIn(i+1) =
// max(EstOut(i), 1).
func TestPlanStepEstimates(t *testing.T) {
	tr := planFixture(t)
	p := figure7PlanPattern(t, tr)
	sizes := exactSizes(t, tr, p)
	start, steps, err := planJoinsSized(tr.Instance, p, sizes)
	if err != nil {
		t.Fatal(err)
	}
	prev := sizes[start]
	for i, s := range steps {
		if s.EstIn != prev {
			t.Errorf("step %d EstIn = %v, want %v", i, s.EstIn, prev)
		}
		if s.EstOut < 0 {
			t.Errorf("step %d EstOut = %v", i, s.EstOut)
		}
		prev = s.EstOut
		if prev < 1 {
			prev = 1
		}
	}
}

// TestCacheMixedParallelSerialSingleflight is the cache satellite: a
// signature computed concurrently by parallel-kernel and serial-kernel
// callers must execute exactly once (all callers share one relation
// pointer), and the hit/miss counters must account for every call.
func TestCacheMixedParallelSerialSingleflight(t *testing.T) {
	tr := planFixture(t)
	cache := NewCache(64)
	pool := exec.NewPool(4)
	p := figure7PlanPattern(t, tr)

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	rels := make([]*graphrel.Relation, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ex := NewSharedExecutor(tr.Instance, cache)
			<-start
			var opt ExecOptions
			if i%2 == 0 {
				// Parallel caller (gate bypassed at kernel level is not
				// needed; identical output either way).
				opt = ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4}
			}
			rels[i], errs[i] = ex.MatchWithOpts(p, opt)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if rels[i] != rels[0] {
			t.Fatalf("caller %d got a different relation pointer: singleflight failed to dedupe", i)
		}
	}
	// Counter consistency: every GetOrCompute call lands in exactly one
	// counter, so hits+misses is stable across the concurrency schedule.
	hits, misses := cache.Hits(), cache.Misses()
	if hits+misses == 0 {
		t.Fatal("no cache traffic recorded")
	}
	// A second, all-serial wave must be pure hits for the match key.
	preMisses := cache.Misses()
	for i := 0; i < 4; i++ {
		ex := NewSharedExecutor(tr.Instance, cache)
		rel, err := ex.Match(p)
		if err != nil {
			t.Fatal(err)
		}
		if rel != rels[0] {
			t.Fatal("serial re-read returned a different relation")
		}
	}
	if cache.Misses() != preMisses {
		t.Errorf("warm re-reads missed: %d → %d", preMisses, cache.Misses())
	}
}

// TestGetOrComputeLiveRetriesForeignCancellation simulates a
// singleflight waiter receiving the leader's cancellation error: with a
// live (or nil) context of its own, the lookup must retry and compute
// the value instead of surfacing another request's cancellation.
func TestGetOrComputeLiveRetriesForeignCancellation(t *testing.T) {
	tr := planFixture(t)
	rel, err := graphrel.Base(tr.Instance, "Papers")
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(8)
	calls := 0
	got, err := getOrComputeLive(context.Background(), cache, "k", func() (*graphrel.Relation, error) {
		calls++
		if calls == 1 {
			return nil, context.Canceled // the canceled leader's error
		}
		return rel, nil
	})
	if err != nil || got != rel {
		t.Fatalf("got %v, %v; want the relation after retry", got, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2 (one foreign failure + one retry)", calls)
	}
	// Our own cancellation is NOT retried.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	_, err = getOrComputeLive(ctx, cache, "k2", func() (*graphrel.Relation, error) {
		calls++
		return nil, context.Canceled
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("own cancellation: err %v after %d calls, want Canceled after 1", err, calls)
	}
}
