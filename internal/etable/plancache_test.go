package etable

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/exec"
	"repro/internal/tgm"
	"repro/internal/translate"
)

// randomPattern builds a random but valid pattern by walking the
// schema from a random starting type: each step Adds a random out-edge
// of the current primary and sometimes Selects a random condition on
// the node it landed on. The walk skips steps the operators reject
// (duplicate node keys), so every emitted pattern is executable.
func randomPattern(t *testing.T, rng *rand.Rand, schema *tgm.SchemaGraph) *Pattern {
	t.Helper()
	conds := map[string][]string{
		"Papers":       {"year > 2000", "year > 1990", "title like '%a%'"},
		"Conferences":  {"acronym = 'SIGMOD'", "acronym like '%S%'"},
		"Institutions": {"country like '%Korea%'", "country like '%a%'"},
		"Authors":      {"name like '%a%'"},
		"keyword":      {"keyword like '%user%'", "keyword like '%a%'"},
	}
	starts := []string{"Papers", "Authors", "Conferences"}
	p, err := Initiate(schema, starts[rng.Intn(len(starts))])
	if err != nil {
		t.Fatal(err)
	}
	for steps := rng.Intn(4); steps > 0; steps-- {
		prim := p.PrimaryNode()
		outs := schema.OutEdges(prim.Type)
		if len(outs) == 0 {
			break
		}
		np, err := Add(schema, p, outs[rng.Intn(len(outs))].Name)
		if err != nil {
			continue // key collision; try the next step
		}
		p = np
		if pool := conds[p.PrimaryNode().Type]; len(pool) > 0 && rng.Intn(2) == 0 {
			if np, err := Select(p, pool[rng.Intn(len(pool))]); err == nil {
				p = np
			}
		}
		if rng.Intn(3) == 0 {
			if np, err := Shift(p, p.Nodes[rng.Intn(len(p.Nodes))].Key); err == nil {
				p = np
			}
		}
	}
	return p
}

// TestPlanCacheEquivalenceFuzz executes randomized patterns under every
// combination of plan source (cached plan vs NoPlanCache fresh
// planning, plus both forced ordering policies) and budget (serial,
// morsel-parallel) and asserts the matched tuple sets equal the
// MatchNaive oracle's. The CI race shard runs this under -race, so the
// concurrent plan-cache publication paths are exercised too.
func TestPlanCacheEquivalenceFuzz(t *testing.T) {
	// A small private corpus: random walks compose unfiltered many-way
	// joins whose results grow multiplicatively with corpus size, and
	// the race shard runs this test under the detector's ~10× slowdown.
	db, err := dataset.Generate(dataset.Config{Papers: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.Translate(db, translate.Options{
		CategoricalAttrs: []string{"Papers.year", "Institutions.country"},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := tr.Instance
	rng := rand.New(rand.NewSource(42))
	pool := exec.NewPool(4)
	arms := []struct {
		name string
		opt  ExecOptions
	}{
		{"cached", ExecOptions{}},
		{"cached-parallel", ExecOptions{Pool: pool, Parallelism: 4}},
		{"fresh", ExecOptions{NoPlanCache: true}},
		{"fresh-greedy", ExecOptions{NoPlanCache: true, Planner: PlannerGreedy}},
		{"fresh-cost", ExecOptions{NoPlanCache: true, Planner: PlannerCost}},
		{"cached-greedy", ExecOptions{Planner: PlannerGreedy}},
		{"cached-cost", ExecOptions{Planner: PlannerCost, Pool: pool, Parallelism: 4}},
	}
	for i := 0; i < 25; i++ {
		p := randomPattern(t, rng, tr.Schema)
		ref, err := MatchNaive(g, p)
		if err != nil {
			t.Fatalf("pattern %d (%s): oracle: %v", i, p, err)
		}
		want := canonMatch(ref)
		for _, arm := range arms {
			got, err := MatchOpts(g, p, arm.opt)
			if err != nil {
				t.Fatalf("pattern %d (%s) arm %s: %v", i, p, arm.name, err)
			}
			if !reflect.DeepEqual(canonMatch(got), want) {
				t.Fatalf("pattern %d (%s) arm %s: tuple set diverges from MatchNaive", i, p, arm.name)
			}
		}
	}
	if ps := PlannerStatsFor(g); ps.Hits == 0 || ps.Misses == 0 {
		t.Fatalf("fuzz exercised no plan cache traffic: %+v", ps)
	}
}

// TestPlanCachePerGraphIsolation: plans are keyed to the graph object
// that built them. A second graph — even one translated from an
// identical corpus — starts with an empty cache and zero counters, and
// executing on it never touches the first graph's entries.
func TestPlanCachePerGraphIsolation(t *testing.T) {
	tr1 := planFixture(t)
	tr2 := planFixture(t)
	if tr1.Instance == tr2.Instance {
		t.Fatal("fixtures share an instance graph")
	}
	p1 := figure1PlanPattern(t, tr1)
	if _, err := MatchOpts(tr1.Instance, p1, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if ps := PlannerStatsFor(tr2.Instance); ps.Entries != 0 || ps.Hits != 0 || ps.Misses != 0 {
		t.Fatalf("untouched graph reports planner traffic: %+v", ps)
	}
	s1 := PlannerStatsFor(tr1.Instance)

	p2 := figure1PlanPattern(t, tr2)
	ref, err := MatchOpts(tr2.Instance, p2, ExecOptions{NoPlanCache: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatchOpts(tr2.Instance, p2, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonMatch(got), canonMatch(ref)) {
		t.Fatal("second graph's cached execution diverges from fresh planning")
	}
	if s1b := PlannerStatsFor(tr1.Instance); s1b.Misses != s1.Misses || s1b.Entries != s1.Entries {
		t.Fatalf("executing on the second graph changed the first graph's cache: %+v -> %+v", s1, s1b)
	}
}
