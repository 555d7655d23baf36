package etable

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/graphrel"
	"repro/internal/spill"
	"repro/internal/tgm"
)

// Streaming execution: instance matching m(Q) has one pipeline, a
// chain of pull-based morsel iterators (graphrel.RowSource). Every
// entry point — MatchOpts and Match (drained), Executor.MatchWithOpts
// and PrepareWithOpts, ExecuteOpts — runs match below. Each join step
// is a StreamJoin stage probing batches of the driving side against a
// hash index over its (cached, materialized) base relation, so no
// intermediate relation ever exists in full.
//
// Memory tracks the consumer: a window or LIMIT consumer pulls only
// the batches it needs (graphrel.StreamLimit terminates upstream
// production), and a full consumer holds at most one pipeline's worth
// of in-flight batches plus the batches it has retained. The genuine
// pipeline breakers — the distinct-row pass, the row-ID sort, and the
// per-column groupings — are folded incrementally batch by batch
// (PrepareFromSource), never by materializing first.
//
// Cache and pin semantics are preserved by materializing lazily: the
// first full consumption splices the retained batches into one
// arena-backed relation (graphrel.ConcatAll), which is what gets
// cached and pinned. Batches are contiguous runs of the driving base
// consumed in order, so the spliced relation is a deterministic
// function of the plan, whatever the batch size or parallelism budget.

// streamBatchRows overrides the streamed pipeline's batch size; 0 uses
// graphrel.MorselRows. Tests shrink it to exercise multi-batch
// pipelines on hand-checkable fixtures.
var streamBatchRows = 0

// match is the one instance-matching pipeline: resolve the plan
// (planFor), gate the parallelism budget on its peak estimate, select
// the bases through the plan's compiled predicates — from the cache c
// when one is given — and compose the plan's joins as StreamJoin
// stages over the start base's batch stream. It returns the streamed
// match and the effective options its consumer should fold under.
//
// A joinless pattern's match is its selected base relation, which is
// already resident: it comes back as rel (src is nil), to be used
// as-is. Streaming it would only copy it, and like every selected base
// it is exempt from MaxRows — the cap bounds what joins produce.
func match(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, c *Cache) (src graphrel.RowSource, rel *graphrel.Relation, o ExecOptions, err error) {
	if opt.Ctx != nil {
		// Check once up front so even trivial patterns (no conditions,
		// no joins — nothing that would recheck between morsels)
		// observe an already-abandoned request.
		if err := opt.Ctx.Err(); err != nil {
			return nil, nil, opt, err
		}
	}
	if p.PrimaryNode() == nil {
		return nil, nil, opt, fmt.Errorf("etable: pattern has no primary node")
	}
	pl, err := planFor(g, p, opt)
	if err != nil {
		return nil, nil, opt, err
	}
	o = opt.effectiveFor(pl)
	bases, err := selectedBases(p, pl.baseRelation(g, o, c))
	if err != nil {
		return nil, nil, o, err
	}
	if len(pl.steps) == 0 {
		return nil, bases[pl.startKey], o, nil
	}
	src, err = composeStream(bases, pl, o)
	return src, nil, o, err
}

// composeStream chains the plan's joins as StreamJoin stages over the
// start base's batch stream, under opt's budget as given.
func composeStream(bases map[string]*graphrel.Relation, pl *Plan, opt ExecOptions) (graphrel.RowSource, error) {
	src := graphrel.StreamRelationBatch(bases[pl.startKey], streamBatchRows)
	for _, st := range pl.steps {
		var err error
		if src, err = graphrel.StreamJoin(opt.Ctx, opt.Pool, opt.Parallelism, src, bases[st.NewKey], st.EdgeName, st.AnchorKey, st.NewKey); err != nil {
			return nil, err
		}
	}
	return src, nil
}

// matchDrained is match drained into one relation under the row cap:
// the body of every materializing entry point (MatchOpts, the
// executor's match cache fills).
func matchDrained(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions, c *Cache) (*graphrel.Relation, error) {
	src, rel, o, err := match(g, p, opt, c)
	if err != nil || rel != nil {
		return rel, err
	}
	return materializeMax(src, o.MaxRows)
}

// MatchSource returns the pattern's instance matching m(Q) as a
// pull-based stream of morsel batches (see match). Concatenating the
// stream's batches in order yields exactly MatchOpts(g, p, opt);
// consuming only a window of it does only the driving-side work that
// window needs. A joinless pattern streams its base relation as
// zero-copy slices. The caller must Close the source (Materialize and
// PrepareFromSource do so themselves).
func MatchSource(g *tgm.InstanceGraph, p *Pattern, opt ExecOptions) (graphrel.RowSource, error) {
	src, rel, _, err := match(g, p, opt, nil)
	if rel != nil {
		return graphrel.StreamRelationBatch(rel, streamBatchRows), nil
	}
	return src, err
}

// materializeMax drains a streamed match under the options' row cap
// (MaxRows <= 0 = unbounded).
func materializeMax(src graphrel.RowSource, maxRows int) (*graphrel.Relation, error) {
	if maxRows > 0 {
		return graphrel.MaterializeMax(src, maxRows)
	}
	return graphrel.Materialize(src)
}

// spillErr translates a spill-layer write failure into the execution
// layer's vocabulary: budget exhaustion (-max-spill-bytes) becomes the
// row cap's typed *RowLimitError — the same 413 the row threshold
// produced before spilling existed — and everything else passes
// through.
func spillErr(err error, limit, rows int) error {
	var be *spill.BudgetError
	if errors.As(err, &be) {
		return graphrel.LimitExceeded(limit, rows)
	}
	return err
}

// prepareSpill is the overflow state of one spilling prepare: the run
// sink for the matched batches, one external fold per participating
// column, and the external distinct pass for the primary rows. All
// files share one byte budget.
type prepareSpill struct {
	sink  *graphrel.RunSink
	folds []*graphrel.ExternalGroupFold
	dist  *graphrel.ExternalDistinct
}

// abort discards every spill file of a failed prepare.
func (ps *prepareSpill) abort() {
	if ps == nil {
		return
	}
	ps.sink.Abort()
	for _, f := range ps.folds {
		f.Abort()
	}
	ps.dist.Abort()
}

// beginSpill opens the overflow state and demotes everything the heap
// pass accumulated before the threshold tripped: retained batches into
// the sink, heap folds into the external folds, the distinct row IDs
// into the external distinct.
func beginSpill(g *tgm.InstanceGraph, src graphrel.RowSource, pol *graphrel.SpillPolicy,
	batches []*graphrel.Relation, folds []map[tgm.NodeID][]tgm.NodeID, rowIDs []tgm.NodeID) (*prepareSpill, error) {
	budget := pol.NewBudget()
	sink, err := graphrel.NewRunSink(g, src.Attrs(), pol, budget)
	if err != nil {
		return nil, err
	}
	ps := &prepareSpill{sink: sink}
	fail := func(err error) (*prepareSpill, error) {
		ps.sink.Abort()
		for _, f := range ps.folds {
			f.Abort()
		}
		if ps.dist != nil {
			ps.dist.Abort()
		}
		return nil, err
	}
	for range folds {
		f, err := graphrel.NewExternalGroupFold(pol, budget)
		if err != nil {
			return fail(err)
		}
		ps.folds = append(ps.folds, f)
	}
	if ps.dist, err = graphrel.NewExternalDistinct(pol, budget); err != nil {
		return fail(err)
	}
	for _, b := range batches {
		if err := sink.Add(b); err != nil {
			return fail(err)
		}
	}
	for i, m := range folds {
		if err := ps.folds[i].AbsorbMap(m); err != nil {
			return fail(err)
		}
	}
	if err := ps.dist.Add(rowIDs); err != nil {
		return fail(err)
	}
	return ps, nil
}

// PrepareFromSource builds the windowed presentation directly from a
// streamed match, folding the pipeline breakers batch by batch: the
// distinct primary rows accumulate through a bitset, the per-column
// groupings through incremental pair folds (graphrel.AppendGroupPairs),
// and the batches themselves are retained and spliced into the
// materialized relation on EOF — the lazy-materialization point that
// preserves cache/pin semantics. The returned presentation is identical
// to PrepareOpts over the drained match: rows are a pure function of
// the tuple set (ID-sorted), groups are sorted and deduplicated by
// SortDedupGroups, and the splice preserves row order.
// The source is Closed before returning, success or not.
//
// With a spill policy set, crossing MaxRows does not fail: the heap
// state demotes to spill runs (beginSpill) and the pass continues with
// bounded memory — batches flow into the run sink instead of being
// retained, folds into external sort-merge folds, row IDs into the
// external distinct. A spilled prepare returns a nil relation (there
// is nothing heap-resident to cache); the presentation's groupings
// fault through the policy's pager pool, its matched rows are
// reachable as Spilled(), and the caller owns its Close.
func PrepareFromSource(g *tgm.InstanceGraph, p *Pattern, src graphrel.RowSource, opt ExecOptions) (*Presentation, *graphrel.Relation, error) {
	defer src.Close()
	prim := p.PrimaryNode()
	if prim == nil {
		return nil, nil, fmt.Errorf("etable: pattern has no primary node")
	}
	primType := g.Schema().NodeType(prim.Type)
	pr := &Presentation{g: g, pattern: p, primType: primType}

	// Participating columns fold in pattern order, like PrepareOpts.
	partKeys := make([]string, 0, len(p.Nodes)-1)
	for _, n := range p.Nodes {
		if n.Key != prim.Key {
			partKeys = append(partKeys, n.Key)
		}
	}
	folds := make([]map[tgm.NodeID][]tgm.NodeID, len(partKeys))
	for i := range folds {
		folds[i] = make(map[tgm.NodeID][]tgm.NodeID)
	}

	// Single pass over the stream: retain batches for the final splice
	// and fold rows and groups incrementally. Batches arrive in the
	// drained relation's row order, so the folds accumulate exactly what
	// PrepareOpts' passes compute over the whole relation.
	seen := graphrel.NewBitset(g.NumNodes())
	var rowIDs []tgm.NodeID
	var batches []*graphrel.Relation
	var ps *prepareSpill
	total := 0
	fail := func(err error) (*Presentation, *graphrel.Relation, error) {
		ps.abort()
		return nil, nil, spillErr(err, opt.MaxRows, total)
	}
	for {
		b, err := src.Next()
		if err != nil {
			return fail(err)
		}
		if b == nil {
			break
		}
		total += b.Len()
		if ps == nil && opt.MaxRows > 0 && total > opt.MaxRows {
			if opt.Spill == nil {
				return nil, nil, graphrel.LimitExceeded(opt.MaxRows, total)
			}
			// Threshold crossed: demote the heap state to disk and keep
			// draining with bounded memory.
			ps, err = beginSpill(g, src, opt.Spill, batches, folds, rowIDs)
			if err != nil {
				return nil, nil, spillErr(err, opt.MaxRows, total)
			}
			batches, folds, rowIDs, seen = nil, nil, nil, nil
		}
		primCol := b.ColumnNamed(prim.Key)
		if primCol == nil {
			ps.abort()
			return nil, nil, fmt.Errorf("etable: stream has no attribute %q", prim.Key)
		}
		if ps != nil {
			if err := ps.sink.Add(b); err != nil {
				return fail(err)
			}
			if err := ps.dist.Add(primCol); err != nil {
				return fail(err)
			}
			for i, k := range partKeys {
				if err := ps.folds[i].Append(b, prim.Key, k); err != nil {
					return fail(err)
				}
			}
			continue
		}
		batches = append(batches, b)
		for _, id := range primCol {
			if !seen.TestAndSet(id) {
				rowIDs = append(rowIDs, id)
			}
		}
		for i, k := range partKeys {
			if err := graphrel.AppendGroupPairs(folds[i], b, prim.Key, k); err != nil {
				return nil, nil, err
			}
		}
	}

	// Finish the breakers: canonical row order and canonical groups.
	// The heap path sorts; the external passes are ascending by
	// construction, so the canonical order falls out of the merge.
	var parts []groupSource
	if ps == nil {
		sort.Slice(rowIDs, func(i, j int) bool { return rowIDs[i] < rowIDs[j] })
		pr.rowIDs = rowIDs
		for _, f := range folds {
			if err := graphrel.SortDedupGroups(opt.Ctx, opt.Pool, opt.Parallelism, f); err != nil {
				return nil, nil, err
			}
			parts = append(parts, mapGroups(f))
		}
	} else {
		ids, err := ps.dist.Finish()
		if err != nil {
			ps.sink.Abort()
			for _, f := range ps.folds {
				f.Abort()
			}
			return nil, nil, spillErr(err, opt.MaxRows, total)
		}
		pr.rowIDs = ids
		pr.closeOnce = new(sync.Once)
		for len(ps.folds) > 0 {
			sg, err := ps.folds[0].Finish()
			ps.folds = ps.folds[1:]
			if err != nil {
				return fail(err)
			}
			pr.closers = append(pr.closers, sg)
			parts = append(parts, spillGroups{sg})
		}
		sr, err := ps.sink.Finish()
		if err != nil {
			pr.Close()
			return nil, nil, spillErr(err, opt.MaxRows, total)
		}
		pr.spilled = sr
		pr.closers = append(pr.closers, sr)
	}

	// Column layout, identical to PrepareOpts.
	for _, a := range primType.Attrs {
		pr.columns = append(pr.columns, Column{Kind: ColBase, Name: a.Name, Attr: a.Name})
	}
	primEdges := primaryEdgeTypes(p, g.Schema())
	for i, k := range partKeys {
		n := p.Node(k)
		pr.columns = append(pr.columns, Column{
			Kind: ColParticipating, Name: n.Key, NodeKey: n.Key,
			EdgeType: primEdges[n.Key], TargetType: n.Type,
		})
		pr.parts = append(pr.parts, partCol{col: len(pr.columns) - 1, src: parts[i]})
	}
	shown := map[string]bool{}
	for _, en := range primEdges {
		if en != "" {
			shown[en] = true
		}
	}
	for _, et := range g.Schema().OutEdges(prim.Type) {
		if shown[et.Name] {
			continue
		}
		pr.columns = append(pr.columns, Column{
			Kind: ColNeighbor, Name: et.Label, EdgeType: et.Name, TargetType: et.Target,
		})
		pr.neighbors = append(pr.neighbors, neighborCol{col: len(pr.columns) - 1, et: et})
	}

	if err := pr.finishPrepare(); err != nil {
		pr.Close()
		return nil, nil, err
	}
	if ps != nil {
		return pr, nil, nil
	}
	matched, err := graphrel.ConcatAll(g, src.Attrs(), batches)
	if err != nil {
		return nil, nil, err
	}
	return pr, matched, nil
}
