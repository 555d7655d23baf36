package etable

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/graphrel"
	"repro/internal/tgm"
	"repro/internal/value"
)

// ExecOptions configures one execution: the cancellation context and
// the intra-query parallelism budget. The zero value is serial,
// uncancellable execution — exactly the pre-parallelism behavior.
type ExecOptions struct {
	// Ctx cancels execution between morsels and join steps; nil never
	// cancels. An abandoned HTTP request propagates its context here so
	// a heavy join stops mid-flight instead of computing for nobody.
	Ctx context.Context
	// Pool supplies helper workers. nil executes serially. The pool is
	// shared process-wide (the server owns one), so its capacity is the
	// hard cap on total helper goroutines across all concurrent queries.
	Pool *exec.Pool
	// Parallelism is this query's worker budget (the per-request knob):
	// at most this many workers — the calling goroutine plus helpers
	// drawn from Pool — cooperate on each kernel. Values <= 1 are
	// serial.
	Parallelism int
	// MaxRows caps the number of rows any full materialization of this
	// execution's joins may produce; 0 is unbounded. Exceeding the cap
	// fails with *graphrel.RowLimitError instead of allocating without
	// limit — the server's -max-rows guard. It is enforced batch by
	// batch, terminating upstream production early. A joinless match is
	// its already-resident base relation and is exempt. Errors are never
	// cached.
	MaxRows int
	// Spill enables spill-to-disk execution for the browsable prepare
	// path: when set, a streamed prepare that crosses MaxRows overflows
	// its materialization and its breaker folds to temp-file runs
	// (internal/spill) instead of failing, and MaxRows becomes the
	// spill trigger. The policy's MaxBytes stays a hard cap — exceeding
	// it fails with the same *graphrel.RowLimitError. nil disables
	// spilling (the pre-spill MaxRows semantics).
	Spill *graphrel.SpillPolicy
	// Planner selects the join-ordering policy: PlannerAuto (the zero
	// value) adapts to the corpus size, PlannerGreedy and PlannerCost
	// force one arm. Forced modes cache under their own keys, so
	// ablation runs never dislodge the adaptive plans.
	Planner PlannerMode
	// NoPlanCache bypasses the plan cache: every execution builds a
	// fresh uncached plan (in the Planner mode) — the plan-every-time
	// arm of BenchmarkPlanCache and BenchmarkAblation_AdaptivePlanner.
	NoPlanCache bool
}

// parallelMinEstRows is the serial-fallback gate: when the pattern's
// peak estimated scan (EstimatePattern) is below two morsels, the
// fan-out bookkeeping costs more than it buys and the query runs
// serially no matter the budget.
const parallelMinEstRows = 2 * graphrel.MorselRows

// effectiveFor resolves the options against the plan's peak estimate
// (EstimatePattern): parallelism collapses to 1 for queries too small
// to profit.
func (o ExecOptions) effectiveFor(pl *Plan) ExecOptions {
	if o.Pool == nil || o.Parallelism <= 1 {
		o.Parallelism = 1
		return o
	}
	if pl.estPeak < parallelMinEstRows {
		o.Parallelism = 1
	}
	return o
}

// Execute runs a query pattern over an instance graph: instance matching
// (Definition 4) followed by format transformation (§5.4.2). It is
// ExecuteOpts with zero options (serial, uncancellable).
func Execute(g *tgm.InstanceGraph, p *Pattern) (*Result, error) {
	return ExecuteOpts(g, p, ExecOptions{})
}

// ExecuteOpts is Execute with a cancellation context and a parallelism
// budget. Parallel and serial execution return identical results (the
// morsel kernels are splice-order deterministic); options only affect
// latency and cancellation.
func ExecuteOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*Result, error) {
	if err := p.Validate(g.Schema()); err != nil {
		return nil, err
	}
	matched, err := MatchOpts(g, p, opt)
	if err != nil {
		return nil, err
	}
	return transformOpts(g, p, matched, opt)
}

// baseRelation builds one pattern node's selected base relation,
// σ_C(R^G), with the node's condition compiled and pushed down by the
// serial kernel — MatchNaive's plan-free base builder.
func baseRelation(g *tgm.InstanceGraph) func(n *PatternNode) (*graphrel.Relation, error) {
	return func(n *PatternNode) (*graphrel.Relation, error) {
		r, err := graphrel.BaseNamed(g, n.Type, n.Key)
		if err != nil {
			return nil, err
		}
		return graphrel.Select(r, n.Key, n.Cond)
	}
}

// Match implements the instance matching function m(Q): it joins the
// per-node base graph relations (with their selection conditions pushed
// down) along the pattern's tree edges. Joins run in the plan's order
// (PlanFor), which produces the same tuple set as the declaration order
// (MatchNaive) with smaller intermediates. The resulting graph relation
// has one attribute per pattern node, named by the node's key.
func Match(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	return MatchOpts(g, p, ExecOptions{})
}

// MatchOpts is Match under execution options: the streamed match
// (MatchSource) drained into one relation under the row cap. The
// selection scans and joins run through the morsel-parallel kernels
// when the options grant a budget and the query is big enough to
// profit (see ExecOptions and EstimatePattern).
func MatchOpts(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (*graphrel.Relation, error) {
	return matchDrained(g, p, opt, nil)
}

// MatchNaive matches with the pre-planner join order: starting at the
// primary node, taking pattern edges in declaration order. It exists as
// the equivalence baseline the planner is verified against and as the
// ablation arm of the planner benchmark.
func MatchNaive(g *tgm.InstanceGraph, p *Pattern) (*graphrel.Relation, error) {
	if p.PrimaryNode() == nil {
		return nil, fmt.Errorf("etable: pattern has no primary node")
	}
	bases, err := selectedBases(p, baseRelation(g))
	if err != nil {
		return nil, err
	}
	start, steps, err := declaredSteps(g.Schema(), p)
	if err != nil {
		return nil, err
	}
	return matchSteps(bases, start, steps)
}

// errDisconnected reports a pattern whose edges do not connect all nodes
// (Validate catches this earlier for user-built patterns).
var errDisconnected = errors.New("etable: pattern is disconnected")

// orientEdge decides whether a pattern edge can extend the joined set:
// if exactly one endpoint is joined, it returns the join anchored at it,
// using the reverse edge type when traversing against the stored
// orientation. Self-paired edge types (no reverse) traverse by the same
// name both ways.
func orientEdge(schema *tgm.SchemaGraph, e PatternEdge, joined map[string]bool) (anchorKey, newKey, edgeName string, ok bool) {
	switch {
	case joined[e.From] && !joined[e.To]:
		return e.From, e.To, e.EdgeType, true
	case joined[e.To] && !joined[e.From]:
		et := schema.EdgeType(e.EdgeType)
		if et == nil || et.Reverse == "" {
			return e.To, e.From, e.EdgeType, true
		}
		return e.To, e.From, et.Reverse, true
	default:
		return "", "", "", false
	}
}

// transform implements the format transformation (§5.4.2) serially:
// rows are the distinct primary nodes of the matched relation; columns
// are the base attributes A_b, the participating node columns A_t, and
// the neighbor node columns A_h. It is a full-table render through the
// windowed presentation pipeline (see transform.go): Prepare computes
// the row set and groupings, Window(0, -1) materializes every row.
//
// The enriched table is canonical: rows ascend by primary node ID and
// the entity references of participating cells ascend by node ID, so
// Execute's output does not depend on the join order the planner
// picked.
func transform(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation) (*Result, error) {
	return transformOpts(g, p, matched, ExecOptions{})
}

// transformOpts is transform under execution options: the grouping
// passes and the row materialization fan out over the shared pool in
// morsel-sized row ranges (transformRange), splice-order deterministic
// and row-identical to the serial path.
func transformOpts(g *tgm.InstanceGraph, p *Pattern, matched *graphrel.Relation, opt ExecOptions) (*Result, error) {
	pr, err := PrepareOpts(g, p, matched, opt)
	if err != nil {
		return nil, err
	}
	return pr.WindowOpts(0, -1, opt)
}

// primaryEdgeTypes maps each pattern node key adjacent to the primary
// node to the edge type oriented primary → that node ("" for nodes not
// adjacent to the primary). Edges stored in the opposite orientation
// count through their reverse edge type, so that the neighbor-column
// overlap suppression works regardless of which end was primary when
// the edge was added.
func primaryEdgeTypes(p *Pattern, schema *tgm.SchemaGraph) map[string]string {
	out := map[string]string{}
	for _, e := range p.Edges {
		switch {
		case e.From == p.Primary:
			out[e.To] = e.EdgeType
		case e.To == p.Primary:
			if et := schema.EdgeType(e.EdgeType); et != nil && et.Reverse != "" {
				out[e.From] = et.Reverse
			}
		}
	}
	return out
}

// SortSpec orders result rows. Exactly one of Attr or Column is set:
// Attr sorts by a base attribute value; Column sorts an entity-reference
// column by its reference count (the paper's "Sort table by # of …").
type SortSpec struct {
	Attr   string
	Column string
	Desc   bool
}

// sortKey resolves spec against the result's columns and returns the
// per-row sort key extractor. It touches only column metadata, never
// rows, so ValidateSort can share it without materializing anything.
func (r *Result) sortKey(spec SortSpec) (func(row *Row) value.V, error) {
	switch {
	case spec.Attr != "":
		ci := -1
		for i := range r.Columns {
			if r.Columns[i].Kind == ColBase && r.Columns[i].Attr == spec.Attr {
				ci = i
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("etable: no base attribute %q to sort by", spec.Attr)
		}
		return func(row *Row) value.V { return row.Cells[ci].Value }, nil
	case spec.Column != "":
		ci := r.ColumnIndex(spec.Column)
		if ci < 0 || !r.Columns[ci].IsEntityRef() {
			return nil, fmt.Errorf("etable: no entity-reference column %q to sort by", spec.Column)
		}
		return func(row *Row) value.V { return value.Int(int64(len(row.Cells[ci].Refs))) }, nil
	default:
		return nil, fmt.Errorf("etable: empty sort specification")
	}
}

// ValidateSort reports whether spec can sort this result. It resolves
// the spec against the columns only — no rows are copied or reordered —
// which is what session.SortBy uses to vet a spec before recording it.
func (r *Result) ValidateSort(spec SortSpec) error {
	_, err := r.sortKey(spec)
	return err
}

// Sort reorders the result's rows in place per spec. The sort is stable.
func (r *Result) Sort(spec SortSpec) error {
	key, err := r.sortKey(spec)
	if err != nil {
		return err
	}
	sort.SliceStable(r.Rows, func(i, j int) bool {
		d := value.Compare(key(&r.Rows[i]), key(&r.Rows[j]))
		if spec.Desc {
			return d > 0
		}
		return d < 0
	})
	return nil
}
