package etable

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/graphrel"
	"repro/internal/stats"
	"repro/internal/tgm"
)

// Adaptive planning: the match pipeline and EstimatePattern resolve
// their plan through one entry point, PlanFor, backed by a per-frozen-graph plan cache
// keyed on the pattern's canonical signature. A cached Plan is the
// fully prepared execution recipe: compiled per-node selection
// predicates, the start base, the ordered join steps with their
// cardinality estimates, and the peak-scan estimate that gates the
// parallel kernels. Sessions replay a small set of
// signatures thousands of times; with the cache, the second and every
// later execution of a signature skips estimation, condition
// compilation, and join ordering entirely.
//
// The ordering policy is adaptive: below adaptiveStatsMinNodes instance
// nodes the join order is chosen by a statistics-free greedy rule
// (extend to the smallest raw base); above it, by the fan-out ×
// selectivity cost model. Small corpora are where the cost model's
// estimation error can exceed what optimal ordering saves ("When Greedy
// Beats Optimal"); PERFORMANCE.md §8 measures the crossover that picked
// the threshold. ExecOptions.Planner overrides the choice per
// execution.
//
// Plans are immutable after publication. The cache lives on the
// instance graph (tgm.PlanCache), so
// plans share the graph's lifetime and can never be served for a
// different graph. Unfrozen graphs plan fresh on every call, exactly
// like statistics.

// PlannerMode selects the join-ordering policy for one execution.
type PlannerMode uint8

const (
	// PlannerAuto (the zero value) picks greedy below
	// adaptiveStatsMinNodes instance nodes and cost-based at or above
	// it.
	PlannerAuto PlannerMode = iota
	// PlannerGreedy forces the statistics-free greedy ordering.
	PlannerGreedy
	// PlannerCost forces the statistics-backed cost-model ordering.
	PlannerCost
)

// String names the mode for telemetry and flags.
func (m PlannerMode) String() string {
	switch m {
	case PlannerGreedy:
		return "greedy"
	case PlannerCost:
		return "cost"
	default:
		return "auto"
	}
}

// ParsePlannerMode parses a -planner flag value.
func ParsePlannerMode(s string) (PlannerMode, error) {
	switch s {
	case "", "auto":
		return PlannerAuto, nil
	case "greedy":
		return PlannerGreedy, nil
	case "cost":
		return PlannerCost, nil
	}
	return PlannerAuto, fmt.Errorf("etable: unknown planner mode %q (want auto, greedy, or cost)", s)
}

const (
	// adaptiveStatsMinNodes is the adaptive threshold: PlannerAuto uses
	// the greedy ordering below this many instance nodes and the cost
	// model at or above it. Chosen from the PERFORMANCE.md §8 ablation:
	// below ~10k nodes the two orderings execute within noise of each
	// other on every measured pattern, so the simpler policy wins; the
	// cost model starts paying for itself once skewed fan-outs have
	// room to multiply intermediates.
	adaptiveStatsMinNodes = 10_000
	// defaultPlanCacheEntries bounds each graph's plan cache. Plans are
	// a few hundred bytes; the bound exists to keep pathological
	// signature churn (e.g. fuzzed conditions) from growing without
	// limit, not to manage real memory pressure.
	defaultPlanCacheEntries = 256
)

// Plan is one fully prepared execution plan for a pattern signature:
// everything derivable before base relations exist. Plans are immutable
// once published, so concurrent executions share them freely.
type Plan struct {
	sig      string
	mode     PlannerMode // resolved: PlannerGreedy or PlannerCost
	startKey string
	steps    []JoinStep
	// estPeak is the statistics-only estimate of the largest relation
	// any kernel will scan (EstimatePattern's answer); it feeds the
	// parallelism gate.
	estPeak float64
	// preds holds each conditioned node's selection predicate, compiled
	// once at plan time (nil entry = unconditioned node).
	preds map[string]expr.Pred
}

// Mode returns the resolved ordering policy that built the plan.
func (pl *Plan) Mode() PlannerMode { return pl.mode }

// EstPeak returns the plan's peak-scan estimate (see EstimatePattern).
func (pl *Plan) EstPeak() float64 { return pl.estPeak }

// baseRelation builds each pattern node's selected base σ_C(R^G)
// through the plan's compiled predicates, so repeated executions skip
// condition compilation. With a cache (the Executor's), bases are
// served from it per (node, condition); hits are option-independent
// because parallel and serial kernels produce identical relations.
func (pl *Plan) baseRelation(g *tgm.InstanceGraph, opt ExecOptions, c *Cache) func(*PatternNode) (*graphrel.Relation, error) {
	return func(n *PatternNode) (*graphrel.Relation, error) {
		sel := func() (*graphrel.Relation, error) {
			r, err := graphrel.BaseNamed(g, n.Type, n.Key)
			if err != nil {
				return nil, err
			}
			return graphrel.SelectParPred(opt.Ctx, opt.Pool, opt.Parallelism, r, n.Key, pl.preds[n.Key])
		}
		if c == nil {
			return sel()
		}
		return getOrComputeLive(opt.Ctx, c, basePrefix+nodeSignature(n), sel)
	}
}

// PlanFor returns the prepared execution plan for p over g under the
// default (adaptive) planner mode, served from g's plan cache when g
// is frozen. It is the single planning entry point: the estimate the
// execution gates consult and the steps the kernels run always come
// from the same object.
func PlanFor(g *tgm.InstanceGraph, p *Pattern) (*Plan, error) {
	return planFor(g, p, ExecOptions{})
}

// PlanForOpts is PlanFor under execution options: Planner forces an
// ordering policy and NoPlanCache builds a fresh uncached plan — the
// knobs BenchmarkPlanCache and the ablation arms drive, and the hook
// for EXPLAIN-style tooling that wants the plan without executing it.
func PlanForOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Plan, error) {
	return planFor(g, p, opt)
}

// planFor resolves the plan for one execution: cache lookup for frozen
// graphs, fresh build otherwise. Two goroutines racing on the same
// signature may both build; the insert is last-writer-wins and the
// plans are interchangeable, so no singleflight is needed — planning
// is a few microseconds of pure computation.
func planFor(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Plan, error) {
	mode := resolvePlannerMode(g, opt.Planner)
	if opt.NoPlanCache || !g.Frozen() {
		return buildPlan(g, p, mode)
	}
	pc := planCacheFor(g)
	key := planKey(mode, Signature(p))
	if pl, ok := pc.get(key); ok {
		return pl, nil
	}
	pl, err := buildPlan(g, p, mode)
	if err != nil {
		return nil, err
	}
	pc.put(key, pl)
	if mode == PlannerGreedy {
		pc.greedyPlans.Add(1)
	} else {
		pc.costPlans.Add(1)
	}
	return pl, nil
}

// resolvePlannerMode collapses PlannerAuto to a concrete policy by the
// corpus-size threshold.
func resolvePlannerMode(g *tgm.InstanceGraph, m PlannerMode) PlannerMode {
	switch m {
	case PlannerGreedy, PlannerCost:
		return m
	}
	if g.NumNodes() >= adaptiveStatsMinNodes {
		return PlannerCost
	}
	return PlannerGreedy
}

// buildPlan prepares a plan from statistics alone (no base relation is
// built): estimated base sizes, compiled predicates, the join order of
// the resolved mode, and the peak-scan estimate. The peak estimate is
// always derived from the cost-model ordering so EstimatePattern and
// the parallelism gate see the same number regardless of which
// ordering executes.
func buildPlan(g *tgm.InstanceGraph, p *Pattern, mode PlannerMode) (*Plan, error) {
	st := stats.For(g)
	estSizes := make(map[string]float64, len(p.Nodes))
	preds := make(map[string]expr.Pred, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		estSizes[n.Key] = st.EstimateBaseRows(n.Type, n.Cond)
		if n.Cond == nil {
			continue
		}
		nt := g.Schema().NodeType(n.Type)
		if nt == nil {
			return nil, fmt.Errorf("etable: pattern node %q has unknown type %q", n.Key, n.Type)
		}
		pred, err := expr.Compile(n.Cond, nt)
		if err != nil {
			return nil, err
		}
		preds[n.Key] = pred
	}
	start, steps, err := planJoinsSized(g, p, estSizes)
	if err != nil {
		return nil, err
	}
	estPeak := planPeak(st, p, steps)
	if mode == PlannerGreedy {
		if start, steps, err = greedyJoins(g, p, estSizes); err != nil {
			return nil, err
		}
	}
	return &Plan{sig: Signature(p), mode: mode, startKey: start, steps: steps,
		estPeak: estPeak, preds: preds}, nil
}

// planPeak is EstimatePattern's formula over prepared steps: the
// biggest unfiltered base (what Select scans) or the biggest estimated
// intermediate (what each Join scans).
func planPeak(st *stats.Graph, p *Pattern, steps []JoinStep) float64 {
	peak := 0.0
	for i := range p.Nodes {
		if cnt := float64(st.Nodes[p.Nodes[i].Type].Count); cnt > peak {
			peak = cnt
		}
	}
	for _, s := range steps {
		if s.EstIn > peak {
			peak = s.EstIn
		}
		if s.EstOut > peak {
			peak = s.EstOut
		}
	}
	return peak
}

// planKey namespaces cache entries by resolved mode, so a forced
// PlannerGreedy execution never dislodges the adaptive plan (or vice
// versa) while the ablation benchmark runs both arms.
func planKey(mode PlannerMode, sig string) string {
	if mode == PlannerGreedy {
		return "g\x00" + sig
	}
	return "c\x00" + sig
}

// planCacheFor returns g's plan cache, publishing one on first use
// (first-published-wins, like the statistics slot).
func planCacheFor(g *tgm.InstanceGraph) *planCache {
	if v := g.PlanCache(); v != nil {
		return v.(*planCache)
	}
	return g.SetPlanCache(newPlanCache(defaultPlanCacheEntries)).(*planCache)
}

// planCache is one graph's bounded LRU of prepared plans plus the
// planner telemetry counters surfaced by PlannerStatsFor.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*planElem
	head    *planElem // most recently used
	tail    *planElem

	hits, misses, evictions atomic.Int64
	greedyPlans, costPlans  atomic.Int64
}

type planElem struct {
	key        string
	plan       *Plan
	prev, next *planElem
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]*planElem, 16)}
}

func (pc *planCache) get(key string) (*Plan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses.Add(1)
		return nil, false
	}
	pc.hits.Add(1)
	pc.moveFront(el)
	return el.plan, true
}

func (pc *planCache) put(key string, pl *Plan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.plan = pl
		pc.moveFront(el)
		return
	}
	el := &planElem{key: key, plan: pl}
	pc.entries[key] = el
	pc.pushFront(el)
	if len(pc.entries) > pc.cap {
		last := pc.tail
		pc.unlink(last)
		delete(pc.entries, last.key)
		pc.evictions.Add(1)
	}
}

func (pc *planCache) pushFront(el *planElem) {
	el.prev, el.next = nil, pc.head
	if pc.head != nil {
		pc.head.prev = el
	}
	pc.head = el
	if pc.tail == nil {
		pc.tail = el
	}
}

func (pc *planCache) unlink(el *planElem) {
	if el.prev != nil {
		el.prev.next = el.next
	} else {
		pc.head = el.next
	}
	if el.next != nil {
		el.next.prev = el.prev
	} else {
		pc.tail = el.prev
	}
	el.prev, el.next = nil, nil
}

func (pc *planCache) moveFront(el *planElem) {
	if pc.head == el {
		return
	}
	pc.unlink(el)
	pc.pushFront(el)
}

// PlannerStats is a point-in-time snapshot of one graph's planning
// tier, surfaced by the server as the /api/v1/stats "planner" block.
type PlannerStats struct {
	// Hits and Misses count plan-cache lookups; Entries and Evictions
	// describe the cache's LRU discipline.
	Hits, Misses, Evictions int64
	Entries                 int
	// GreedyPlans and CostPlans count plans built per resolved ordering
	// policy.
	GreedyPlans, CostPlans int64
	// AdaptiveThreshold is the instance-node count at which PlannerAuto
	// switches from greedy to cost-based ordering.
	AdaptiveThreshold int
}

// PlannerStatsFor snapshots g's planner telemetry. A graph that has
// never planned reports zeros.
func PlannerStatsFor(g *tgm.InstanceGraph) PlannerStats {
	s := PlannerStats{AdaptiveThreshold: adaptiveStatsMinNodes}
	pc, ok := g.PlanCache().(*planCache)
	if !ok {
		return s
	}
	pc.mu.Lock()
	s.Entries = len(pc.entries)
	pc.mu.Unlock()
	s.Hits = pc.hits.Load()
	s.Misses = pc.misses.Load()
	s.Evictions = pc.evictions.Load()
	s.GreedyPlans = pc.greedyPlans.Load()
	s.CostPlans = pc.costPlans.Load()
	return s
}
