package etable

import (
	"repro/internal/graphrel"
	"repro/internal/stats"
	"repro/internal/tgm"
)

// JoinStep is one planned join of the instance-matching pipeline: extend
// the matched relation from AnchorKey (already joined) to NewKey along
// EdgeName, which is oriented anchor → new.
type JoinStep struct {
	AnchorKey string
	NewKey    string
	EdgeName  string
	// EstIn and EstOut are the planner's cardinality estimates for the
	// relation entering and leaving this step. They propagate through
	// the join tree (each step's EstIn is the previous EstOut, floored
	// at 1) and feed the parallel/serial kernel decision.
	EstIn  float64
	EstOut float64
}

// selectedBases builds σ_C(R^G) for every pattern node through base and
// returns the relations keyed by node key.
func selectedBases(p *Pattern, base func(*PatternNode) (*graphrel.Relation, error)) (map[string]*graphrel.Relation, error) {
	bases := make(map[string]*graphrel.Relation, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		r, err := base(n)
		if err != nil {
			return nil, err
		}
		bases[n.Key] = r
	}
	return bases, nil
}

// selFrac estimates the selectivity of a pattern node's condition: the
// fraction of its type's instances surviving selection. Empty node
// types yield 0, never NaN.
func selFrac(st *stats.Graph, p *Pattern, key string, sizes map[string]float64) float64 {
	total := st.Nodes[p.Node(key).Type].Count
	if total == 0 {
		return 0
	}
	return sizes[key] / float64(total)
}

// planJoinsSized is the cost-based join planner. It orders the
// pattern's joins greedily by estimated output cardinality instead of
// edge-declaration order. The estimate for extending a partial match of
// est tuples across an edge is
//
//	est × Fanout(edge) × selFrac(new node)
//
// — the edge type's per-source fan-out (from the statistics collected
// at translate time, internal/stats) scaled by the fraction of target
// instances surviving the new node's selection. Matching starts at the
// smallest base relation and always picks the frontier edge with the
// lowest estimate (ties broken by declaration order), so selective
// branches prune the intermediate result before high-fan-out joins
// multiply it. The tuple set produced is independent of the order; only
// intermediate sizes change.
//
// sizes are statistics-only estimates of the post-selection base
// cardinalities (plans are built before any base relation exists);
// every step carries its propagated EstIn/EstOut cardinalities for
// downstream decisions.
func planJoinsSized(g *tgm.InstanceGraph, p *Pattern, sizes map[string]float64) (startKey string, steps []JoinStep, err error) {
	st := stats.For(g)
	for _, n := range p.Nodes {
		if startKey == "" || sizes[n.Key] < sizes[startKey] {
			startKey = n.Key
		}
	}
	joined := map[string]bool{startKey: true}
	est := sizes[startKey]
	for len(joined) < len(p.Nodes) {
		found := false
		var bestStep JoinStep
		var bestEst float64
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			cand := est * st.Fanout(edgeName) * selFrac(st, p, newKey, sizes)
			if !found || cand < bestEst {
				found = true
				bestEst = cand
				bestStep = JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName,
					EstIn: est, EstOut: cand}
			}
		}
		if !found {
			return "", nil, errDisconnected
		}
		steps = append(steps, bestStep)
		joined[bestStep.NewKey] = true
		if est = bestEst; est < 1 {
			est = 1
		}
	}
	return startKey, steps, nil
}

// greedyJoins is the statistics-free ordering policy: start at the
// node with the smallest raw instance count and always extend to the
// frontier node with the smallest raw count, ignoring edge fan-out,
// NDV, and condition selectivity entirely. On small or low-skew
// corpora this matches the cost-based order often enough that the
// model's machinery doesn't pay for itself (PERFORMANCE.md §8); the
// adaptive planner picks it below adaptiveStatsMinNodes. The emitted
// steps still carry fanout-model estimates (computed along the chosen
// order from estSizes) so the execution gates see numbers comparable
// to a cost-ordered plan's.
func greedyJoins(g *tgm.InstanceGraph, p *Pattern, estSizes map[string]float64) (startKey string, steps []JoinStep, err error) {
	st := stats.For(g)
	raw := make(map[string]float64, len(p.Nodes))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		raw[n.Key] = float64(len(g.NodesOfType(n.Type)))
		if startKey == "" || raw[n.Key] < raw[startKey] {
			startKey = n.Key
		}
	}
	joined := map[string]bool{startKey: true}
	est := estSizes[startKey]
	for len(joined) < len(p.Nodes) {
		found := false
		var bestStep JoinStep
		var bestSize float64
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(g.Schema(), e, joined)
			if !ok {
				continue
			}
			if !found || raw[newKey] < bestSize {
				found = true
				bestSize = raw[newKey]
				bestStep = JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName,
					EstIn: est, EstOut: est * st.Fanout(edgeName) * selFrac(st, p, newKey, estSizes)}
			}
		}
		if !found {
			return "", nil, errDisconnected
		}
		steps = append(steps, bestStep)
		joined[bestStep.NewKey] = true
		if est = bestStep.EstOut; est < 1 {
			est = 1
		}
	}
	return startKey, steps, nil
}

// declaredSteps reproduces the pre-planner join order: start at the
// primary node and take pattern edges in declaration order as they
// become connected. It is kept as the equivalence baseline the planner
// is tested against.
func declaredSteps(schema *tgm.SchemaGraph, p *Pattern) (startKey string, steps []JoinStep, err error) {
	prim := p.PrimaryNode()
	joined := map[string]bool{prim.Key: true}
	remaining := len(p.Nodes) - 1
	for remaining > 0 {
		progressed := false
		for _, e := range p.Edges {
			anchorKey, newKey, edgeName, ok := orientEdge(schema, e, joined)
			if !ok {
				continue
			}
			steps = append(steps, JoinStep{AnchorKey: anchorKey, NewKey: newKey, EdgeName: edgeName})
			joined[newKey] = true
			remaining--
			progressed = true
		}
		if !progressed {
			return "", nil, errDisconnected
		}
	}
	return prim.Key, steps, nil
}

// matchSteps executes a join plan eagerly over pre-selected base
// relations with the serial kernels: the plain join loop behind
// MatchNaive.
func matchSteps(bases map[string]*graphrel.Relation, startKey string, steps []JoinStep) (*graphrel.Relation, error) {
	cur := bases[startKey]
	for _, st := range steps {
		var err error
		if cur, err = graphrel.Join(cur, bases[st.NewKey], st.EdgeName, st.AnchorKey, st.NewKey); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// EstimatePattern estimates, from statistics alone (no execution), the
// largest relation any kernel of the pattern's execution will scan: the
// biggest unfiltered base (what Select scans) and the biggest estimated
// intermediate (what each Join scans). ExecuteOpts uses it as the
// serial-fallback gate — a query whose peak estimated scan fits in a
// couple of morsels never pays the fan-out overhead, which keeps tiny
// interactive queries (the common case in a browsing session) on the
// fast serial path.
//
// The estimate is served from the plan cache (PlanFor): it is the same
// number the cached plan's gates use, computed once per signature, not
// a second planning pass.
func EstimatePattern(g *tgm.InstanceGraph, p *Pattern) float64 {
	pl, err := PlanFor(g, p)
	if err != nil {
		return 0 // unplannable: execution fails before any kernel runs
	}
	return pl.estPeak
}
