package etable

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
)

// withSmallStreamBatches shrinks the streamed pipeline's batch size so
// the test corpus spans many batches, restoring it on cleanup.
func withSmallStreamBatches(t *testing.T, rows int) {
	t.Helper()
	old := streamBatchRows
	streamBatchRows = rows
	t.Cleanup(func() { streamBatchRows = old })
}

// assertSameRelations asserts exact row-for-row equality through the
// exported accessors (the etable-level mirror of graphrel's identity
// assertion).
func assertSameRelations(t *testing.T, label string, got, want *graphrel.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("%s: %d attrs, want %d", label, len(got.Attrs), len(want.Attrs))
	}
	for ai := range want.Attrs {
		if got.Attrs[ai] != want.Attrs[ai] {
			t.Fatalf("%s: attr %d = %v, want %v", label, ai, got.Attrs[ai], want.Attrs[ai])
		}
		gc, wc := got.Column(ai), want.Column(ai)
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("%s: col %d row %d = %v, want %v", label, ai, i, gc[i], wc[i])
			}
		}
	}
}

// naiveTuples is the equivalence oracle: the canonical tuple multiset
// of MatchNaive, the plan-free declaration-order matcher.
func naiveTuples(t testing.TB, g *tgm.InstanceGraph, p *Pattern) []string {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return canonMatch(ref)
}

// naivePresentation prepares the oracle's match: the reference every
// streamed, spilled, or cached presentation must render identically to.
func naivePresentation(t testing.TB, g *tgm.InstanceGraph, p *Pattern) *Presentation {
	t.Helper()
	ref, err := MatchNaive(g, p)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(g, p, ref)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// assertSameTuples asserts got matches the oracle's canonical tuples.
func assertSameTuples(t testing.TB, label string, got *graphrel.Relation, want []string) {
	t.Helper()
	if !reflect.DeepEqual(canonMatch(got), want) {
		t.Fatalf("%s: tuple set diverges from MatchNaive (%d vs %d tuples)", label, got.Len(), len(want))
	}
}

// TestStreamMatchEquivalence asserts MatchOpts matches the MatchNaive
// oracle on the paper's figure patterns, with batch sizes small enough
// that the pipeline spans many batches, both serial and pooled — and
// that the drained relation is row-identical whatever the chunking or
// budget (the splice is deterministic, so cached relations are too).
func TestStreamMatchEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		want := naiveTuples(t, tr.Instance, p)
		var first *graphrel.Relation
		for _, tc := range []struct {
			label string
			batch int
			opt   ExecOptions
		}{
			{"serial_small_batches", 7, ExecOptions{}},
			{"serial_morsel", 0, ExecOptions{}},
			{"pooled", 13, ExecOptions{Ctx: context.Background(), Pool: pool, Parallelism: 4}},
		} {
			withSmallStreamBatches(t, tc.batch)
			got, err := MatchOpts(tr.Instance, p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTuples(t, name+"/"+tc.label, got, want)
			if first == nil {
				first = got
			}
			assertSameRelations(t, name+"/"+tc.label+"/rows", got, first)
		}
	}
}

// TestStreamMatchEquivalenceRandomized fuzzes the streamed match
// against the MatchNaive oracle: random year thresholds vary the
// selectivity, random batch sizes vary the pipeline's chunking, and
// random budgets vary the fan-out — the tuple set must stay identical
// throughout.
func TestStreamMatchEquivalenceRandomized(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		year := 1995 + rng.Intn(20)
		p := buildPattern(t, tr, "Papers",
			opSelect(fmt.Sprintf("year > %d", year)),
			opAdd(tr, "Paper_Authors"),
			opAdd(tr, "Authors→Institutions"),
		)
		want := naiveTuples(t, tr.Instance, p)
		withSmallStreamBatches(t, 1+rng.Intn(64))
		opt := ExecOptions{}
		if rng.Intn(2) == 0 {
			opt.Ctx, opt.Pool, opt.Parallelism = context.Background(), pool, 2+rng.Intn(4)
		}
		got, err := MatchOpts(tr.Instance, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, fmt.Sprintf("trial=%d year>%d", trial, year), got, want)
	}
}

// TestPrepareFromSourceEquivalence asserts the streamed presentation
// fold produces a presentation identical to PrepareOpts over the
// MatchNaive oracle — full renders compare cell for cell — and a
// materialized relation holding the oracle's tuples.
func TestPrepareFromSourceEquivalence(t *testing.T) {
	tr := planFixture(t)
	pool := exec.NewPool(4)
	withSmallStreamBatches(t, 11)
	for name, p := range map[string]*Pattern{
		"figure1": figure1PlanPattern(t, tr),
		"figure7": figure7PlanPattern(t, tr),
	} {
		wantTuples := naiveTuples(t, tr.Instance, p)
		naivePr := naivePresentation(t, tr.Instance, p)
		want, err := naivePr.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{1, 4} {
			opt := ExecOptions{}
			if budget > 1 {
				opt.Ctx, opt.Pool, opt.Parallelism = context.Background(), pool, budget
			}
			src, err := MatchSource(tr.Instance, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			pr, matched, err := PrepareFromSource(tr.Instance, p, src, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameTuples(t, name+"/matched", matched, wantTuples)
			if pr.NumRows() != naivePr.NumRows() {
				t.Fatalf("%s: %d rows, want %d", name, pr.NumRows(), naivePr.NumRows())
			}
			got, err := pr.Window(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("%s/budget=%d", name, budget), got, want)
			// Windows agree too (first page, middle page, clamped tail).
			for _, w := range [][2]int{{0, 5}, {3, 4}, {want.NumRows() - 2, 10}} {
				gw, err := pr.Window(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				ww, err := naivePr.Window(w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("%s/window=%v", name, w), gw, ww)
			}
		}
	}
}

// TestExecutorStreamingPreparePinned asserts the executor's prepare
// path: the compute leader folds the presentation off the stream, the
// cached relation holds the oracle's tuples, the pin lands, and a
// second prepare (cache hit) yields an identical presentation without
// streaming.
func TestExecutorStreamingPreparePinned(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 17)
	p := figure7PlanPattern(t, tr)

	want, err := naivePresentation(t, tr.Instance, p).Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}

	e := NewExecutor(tr.Instance)
	pr, pin, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	got, err := pr.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "streamed-vs-naive", got, want)
	if e.Cache().PinnedCount() != 1 {
		t.Fatalf("pinned count = %d, want 1", e.Cache().PinnedCount())
	}

	// The cached (pinned) relation holds exactly the oracle's tuples.
	rel, ok := e.Cache().Get(matchPrefix + Signature(p))
	if !ok {
		t.Fatal("streamed match not cached")
	}
	assertSameTuples(t, "cached", rel, naiveTuples(t, tr.Instance, p))

	// Cache hit: prepares from the cached relation, same output.
	if misses := e.Misses(); misses == 0 {
		t.Fatal("expected at least one miss")
	}
	pr2, pin2, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pin2.Release()
	got2, err := pr2.Window(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "hit-vs-naive", got2, want)
}

// TestExecutorStreamingMatchCached asserts MatchWithOpts caches the
// drained relation, serves hits without recomputation, and holds the
// oracle's tuples.
func TestExecutorStreamingMatchCached(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := figure1PlanPattern(t, tr)
	e := NewExecutor(tr.Instance)
	first, err := e.MatchWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.MatchWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("cache hit returned a different relation")
	}
	assertSameTuples(t, "cached-stream-match", first, naiveTuples(t, tr.Instance, p))
}

// TestMaxRowsGuard asserts the MaxRows cap fails oversized
// materializations with *graphrel.RowLimitError, serial and pooled,
// and admits results at or under the cap.
func TestMaxRowsGuard(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := buildPattern(t, tr, "Papers",
		opAdd(tr, "Paper_Authors"),
		opAdd(tr, "Authors→Institutions"),
	)
	full, err := MatchOpts(tr.Instance, p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 10 {
		t.Fatalf("fixture too small: %d match rows", full.Len())
	}
	pool := exec.NewPool(4)
	for _, budget := range []int{1, 4} {
		opt := ExecOptions{Pool: pool, Parallelism: budget, MaxRows: 5}
		_, err := MatchOpts(tr.Instance, p, opt)
		var rle *graphrel.RowLimitError
		if !errors.As(err, &rle) || rle.Limit != 5 {
			t.Fatalf("budget=%d: err = %v, want RowLimitError{5}", budget, err)
		}
		opt.MaxRows = full.Len()
		ok, err := MatchOpts(tr.Instance, p, opt)
		if err != nil {
			t.Fatalf("budget=%d at-cap: %v", budget, err)
		}
		assertSameRelations(t, fmt.Sprintf("budget=%d at-cap", budget), ok, full)
	}
	// The streamed prepare fold enforces the cap too, and errors are
	// never cached (a later uncapped prepare succeeds).
	e := NewExecutor(tr.Instance)
	_, _, err = e.PrepareWithOpts(p, ExecOptions{MaxRows: 5})
	var rle *graphrel.RowLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("streamed prepare err = %v, want RowLimitError", err)
	}
	pr, pin, err := e.PrepareWithOpts(p, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Release()
	if pr.NumRows() == 0 {
		t.Error("uncapped prepare after capped failure returned no rows")
	}
}

// TestStreamingCancellation asserts a canceled context surfaces
// through the streamed match and the streamed prepare fold.
func TestStreamingCancellation(t *testing.T) {
	tr := planFixture(t)
	withSmallStreamBatches(t, 9)
	p := figure7PlanPattern(t, tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := ExecOptions{Ctx: ctx, Pool: exec.NewPool(2), Parallelism: 4}
	if _, err := MatchOpts(tr.Instance, p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("MatchOpts err = %v, want Canceled", err)
	}
	if _, _, err := NewExecutor(tr.Instance).PrepareWithOpts(p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("PrepareWithOpts err = %v, want Canceled", err)
	}
}
