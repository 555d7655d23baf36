package graphrel

import (
	"context"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/tgm"
)

// Streaming kernels: pull-based, morsel-batched counterparts of Select,
// Join, and Retain. A RowSource yields a relation's tuples as a sequence
// of bounded batches (MorselRows rows each, the same morsel discipline
// as the parallel kernels), so a pipeline composed of stream operators
// holds at most a few morsels per stage in memory instead of every
// intermediate relation in full.
//
// Three properties make the streamed pipeline interchangeable with the
// materializing one:
//
//   - Row identity: every stream operator runs the same per-range phase
//     as its eager counterpart (selectRange, probeRange + joinOutput)
//     over batches that are contiguous input runs consumed in order, so
//     concatenating a stream's batches reproduces the eager operator's
//     output row for row — not merely set-equal. Materialize is that
//     concatenation.
//   - Early termination: a consumer that stops pulling stops all
//     upstream production; StreamLimit additionally Closes its upstream
//     once satisfied, so a LIMIT or a first-page fetch does O(window)
//     work on the driving side instead of O(relation).
//   - Bounded buffering: a stage buffers at most its fan-out width in
//     input batches (the per-query parallelism budget) plus their
//     outputs. Genuine pipeline breakers — sort, GroupNeighbors,
//     DistinctNodes — are not stream operators; consumers that need
//     them fold batches incrementally (see etable.PrepareFromSource)
//     or Materialize first.
//
// Cancellation is checked between batches: a canceled context fails the
// next Next call, and every operator propagates Close upstream so an
// abandoned pipeline releases its batch references promptly.

// RowSource is a pull-based stream of relation tuples in bounded
// batches. Next returns the next batch, or (nil, nil) once the stream
// is exhausted; returned batches are immutable relations under the
// package's sharing contract and stay valid after further Next calls.
// All batches of one source carry identical attribute lists (Attrs).
// After an error, subsequent Next calls return the same error. Close
// releases upstream resources and stops production; it is idempotent,
// and Next after Close reports end of stream. Sources are single-
// consumer: Next and Close must not be called concurrently.
type RowSource interface {
	// Graph returns the instance graph the streamed tuples live in.
	Graph() *tgm.InstanceGraph
	// Attrs returns the attribute list every batch carries.
	Attrs() []Attr
	// Next returns the next non-empty batch, or (nil, nil) at the end.
	Next() (*Relation, error)
	// Close stops production and releases upstream references.
	Close()
}

// StreamRelation streams an existing relation as zero-copy MorselRows
// batches: each batch re-slices r's columns, no IDs are copied. It is
// the leaf every streamed pipeline starts from.
func StreamRelation(r *Relation) RowSource {
	return StreamRelationBatch(r, 0)
}

// StreamRelationBatch is StreamRelation with an explicit batch size;
// batchRows <= 0 uses MorselRows. Smaller batches exist for tests
// (multi-batch pipelines over hand-checkable fixtures) and for callers
// that want finer-grained cancellation.
func StreamRelationBatch(r *Relation, batchRows int) RowSource {
	if batchRows <= 0 {
		batchRows = MorselRows
	}
	return &relationSource{r: r, batch: batchRows}
}

type relationSource struct {
	r      *Relation
	batch  int
	off    int
	closed bool
}

func (s *relationSource) Graph() *tgm.InstanceGraph { return s.r.g }
func (s *relationSource) Attrs() []Attr             { return s.r.Attrs }
func (s *relationSource) Close()                    { s.closed = true }

func (s *relationSource) Next() (*Relation, error) {
	if s.closed || s.off >= s.r.n {
		return nil, nil
	}
	hi := s.off + s.batch
	if hi > s.r.n {
		hi = s.r.n
	}
	b := s.r.slice(s.off, hi)
	s.off = hi
	return b, nil
}

// stageSource is the shared machinery of the streaming operators: it
// pulls a bounded run of input batches per refill, applies the
// per-batch kernel to each — fanned out over the pool when a budget is
// granted, serially otherwise — and hands the outputs downstream in
// input order. The in-order splice is what keeps streamed pipelines
// row-identical to the eager kernels; the bounded refill width is what
// keeps memory proportional to the parallelism budget, not the
// relation.
//
// Two details serve first-page latency. The refill width ramps up —
// 1, 2, 4, … capped at the budget — so the first Next on a cold
// pipeline costs one upstream batch per stage instead of prefetching a
// full fan-out a LIMIT consumer will never read, while a full drain
// still reaches the budgeted width within a few refills. And outputs
// larger than MorselRows (a join batch inherits its probe batch's
// fan-out) are re-split into morsel-sized zero-copy slices before
// queuing, so downstream refills stay morsel-grained instead of
// amplifying by the join's expansion factor.
type stageSource struct {
	src    RowSource
	g      *tgm.InstanceGraph
	attrs  []Attr
	ctx    context.Context
	pool   *exec.Pool
	budget int
	apply  func(*Relation) (*Relation, error)

	queue  []*Relation
	width  int // current refill width, ramping 1 → budget
	done   bool
	err    error
	closed bool
}

func (s *stageSource) Graph() *tgm.InstanceGraph { return s.g }
func (s *stageSource) Attrs() []Attr             { return s.attrs }

func (s *stageSource) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.queue = nil
	s.src.Close()
}

// fail records a sticky error and releases the upstream.
func (s *stageSource) fail(err error) (*Relation, error) {
	s.err = err
	s.Close()
	return nil, err
}

func (s *stageSource) Next() (*Relation, error) {
	for {
		if s.err != nil {
			return nil, s.err
		}
		if len(s.queue) > 0 {
			b := s.queue[0]
			s.queue[0] = nil
			s.queue = s.queue[1:]
			return b, nil
		}
		if s.done || s.closed {
			return nil, nil
		}
		if err := ctxErr(s.ctx); err != nil {
			return s.fail(err)
		}
		// Refill: pull up to width batches, then apply the kernel to the
		// whole pull — one pool fan-out per refill instead of per batch.
		max := s.budget
		if s.pool == nil || max < 1 {
			max = 1
		}
		if s.width < 1 {
			s.width = 1
		}
		width := s.width
		if width > max {
			width = max
		}
		s.width = width * 2 // ramp toward the budget for the next refill
		in := make([]*Relation, 0, width)
		for len(in) < width {
			b, err := s.src.Next()
			if err != nil {
				return s.fail(err)
			}
			if b == nil {
				s.done = true
				break
			}
			in = append(in, b)
		}
		if len(in) == 0 {
			continue
		}
		out := make([]*Relation, len(in))
		if s.pool == nil || s.budget <= 1 || len(in) == 1 {
			for i, b := range in {
				r, err := s.apply(b)
				if err != nil {
					return s.fail(err)
				}
				out[i] = r
			}
		} else if err := s.pool.Map(s.ctx, len(in), s.budget, func(i int) error {
			r, err := s.apply(in[i])
			if err != nil {
				return err
			}
			out[i] = r
			return nil
		}); err != nil {
			return s.fail(err)
		}
		for _, b := range out {
			if b == nil || b.n == 0 {
				continue
			}
			// Re-split oversized outputs into morsel-sized zero-copy
			// slices so one high-fan-out probe batch does not become one
			// giant downstream batch.
			if b.n <= MorselRows {
				s.queue = append(s.queue, b)
				continue
			}
			for lo := 0; lo < b.n; lo += MorselRows {
				hi := lo + MorselRows
				if hi > b.n {
					hi = b.n
				}
				s.queue = append(s.queue, b.slice(lo, hi))
			}
		}
	}
}

// header returns a zero-row relation carrying src's attribute list, so
// operator constructors can resolve and type-check attributes without
// pulling a batch.
func header(src RowSource) *Relation {
	attrs := src.Attrs()
	return &Relation{g: src.Graph(), Attrs: attrs, cols: make([][]tgm.NodeID, len(attrs))}
}

// StreamSelect streams σ over src: batches pass through the same
// selectRange phase the eager Select runs over [0, n), so the streamed
// output concatenates to exactly Select(r, attrName, cond). A nil
// condition returns src unchanged. The condition is compiled once at
// construction; a budget > 1 fans batches out over the pool.
func StreamSelect(ctx context.Context, pool *exec.Pool, budget int, src RowSource, attrName string, cond expr.Expr) (RowSource, error) {
	if cond == nil {
		return src, nil
	}
	hdr := header(src)
	ai := hdr.AttrIndex(attrName)
	if ai < 0 {
		return nil, fmt.Errorf("graphrel: no attribute %q", attrName)
	}
	pred, err := expr.Compile(cond, hdr.Attrs[ai].Type)
	if err != nil {
		return nil, err
	}
	return &stageSource{
		src: src, g: src.Graph(), attrs: src.Attrs(),
		ctx: ctx, pool: pool, budget: budget,
		apply: func(b *Relation) (*Relation, error) {
			keep, err := selectRange(b, b.cols[ai], pred, 0, b.n)
			if err != nil {
				return nil, err
			}
			if len(keep) == 0 {
				return nil, nil
			}
			return b.gather(keep), nil
		},
	}, nil
}

// StreamJoin streams src ∗_ρ right: the hash index over the (already
// materialized) right side is built once at construction, and each
// batch probes it through the same probeRange + joinOutput phases as
// the eager Join, so the streamed output concatenates to exactly
// Join(left, right, …). The right side is the join's build side — in
// the execution pipeline it is a cached base relation — so only the
// probe side streams.
func StreamJoin(ctx context.Context, pool *exec.Pool, budget int, src RowSource, right *Relation, edgeType, leftAttr, rightAttr string) (RowSource, error) {
	hdr := header(src)
	li, ri, err := checkJoin(hdr, right, edgeType, leftAttr, rightAttr, true)
	if err != nil {
		return nil, err
	}
	index := buildJoinIndex(right, ri)
	attrs := make([]Attr, 0, len(hdr.Attrs)+len(right.Attrs))
	attrs = append(append(attrs, hdr.Attrs...), right.Attrs...)
	return &stageSource{
		src: src, g: src.Graph(), attrs: attrs,
		ctx: ctx, pool: pool, budget: budget,
		apply: func(b *Relation) (*Relation, error) {
			lrows, rrows := probeRange(b.g, b.cols[li], index, edgeType, 0, b.n)
			if len(lrows) == 0 {
				return nil, nil
			}
			return joinOutput(b, right, lrows, rrows), nil
		},
	}, nil
}

// StreamRetain streams Retain over src: each batch is restricted to the
// named attributes zero-copy (columns are re-sliced, never copied). No
// duplicate elimination is performed — like Retain, not Project; Π's
// dedup is a pipeline breaker and belongs to the consumer.
func StreamRetain(src RowSource, attrNames ...string) (RowSource, error) {
	hdr, err := header(src).Retain(attrNames...)
	if err != nil {
		return nil, err
	}
	return &stageSource{
		src: src, g: src.Graph(), attrs: hdr.Attrs,
		apply: func(b *Relation) (*Relation, error) {
			return b.Retain(attrNames...)
		},
	}, nil
}

// StreamLimit truncates src to at most n rows. Once satisfied it
// Closes the upstream, which is the early-termination path: a LIMIT or
// a first-page fetch stops every producer above it instead of letting
// the pipeline compute rows nobody will read. The final batch is
// trimmed zero-copy, so the limited stream is row-identical to the
// first n rows of src.
func StreamLimit(src RowSource, n int) RowSource {
	return &limitSource{src: src, remaining: n}
}

type limitSource struct {
	src       RowSource
	remaining int
	err       error
}

func (l *limitSource) Graph() *tgm.InstanceGraph { return l.src.Graph() }
func (l *limitSource) Attrs() []Attr             { return l.src.Attrs() }
func (l *limitSource) Close()                    { l.src.Close() }

func (l *limitSource) Next() (*Relation, error) {
	if l.err != nil {
		return nil, l.err
	}
	if l.remaining <= 0 {
		return nil, nil
	}
	b, err := l.src.Next()
	if err != nil {
		l.err = err
		return nil, err
	}
	if b == nil {
		l.remaining = 0
		return nil, nil
	}
	if b.n >= l.remaining {
		b = b.slice(0, l.remaining)
		l.remaining = 0
		l.src.Close() // satisfied: stop upstream production
		return b, nil
	}
	l.remaining -= b.n
	return b, nil
}

// RowLimitError reports a streamed materialization that exceeded the
// caller's row cap (MaterializeMax, or the execution layer's MaxRows
// guard). The pipeline is terminated early — the guard exists so a
// pathological result fails fast and bounded instead of allocating
// without limit.
type RowLimitError struct {
	// Limit is the row cap that was exceeded.
	Limit int
	// Rows is the row count observed when the cap tripped (0 when the
	// producing layer does not track it). It is a lower bound on the
	// result's true size: every enforcement point stops producing as
	// soon as the cap is exceeded.
	Rows int
}

func (e *RowLimitError) Error() string {
	if e.Rows > 0 {
		return fmt.Sprintf("graphrel: result exceeds %d rows (observed %d)", e.Limit, e.Rows)
	}
	return fmt.Sprintf("graphrel: result exceeds %d rows", e.Limit)
}

// LimitExceeded builds the row-cap error every enforcement point —
// the streamed per-batch check, the spill byte budget, and the
// session's pre-window check — routes through, so the surfaced payload
// (cap, observed rows) is identical no matter which layer tripped.
func LimitExceeded(limit, rows int) *RowLimitError {
	return &RowLimitError{Limit: limit, Rows: rows}
}

// Materialize drains src and concatenates its batches into one
// arena-backed relation — the lazy-materialization point where a
// streamed pipeline becomes a shareable, cacheable Relation. Batches
// are spliced in stream order, so the result is row-identical to the
// eager pipeline's output. The source is Closed before returning,
// success or not.
func Materialize(src RowSource) (*Relation, error) {
	return materialize(src, 0)
}

// MaterializeMax is Materialize with a row cap: as soon as the drained
// row count exceeds max, the source is Closed (terminating upstream
// production) and a *RowLimitError is returned. max <= 0 means no cap.
func MaterializeMax(src RowSource, max int) (*Relation, error) {
	return materialize(src, max)
}

func materialize(src RowSource, max int) (*Relation, error) {
	defer src.Close()
	var parts []*Relation
	total := 0
	for {
		b, err := src.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		total += b.n
		if max > 0 && total > max {
			return nil, LimitExceeded(max, total)
		}
		parts = append(parts, b)
	}
	return ConcatAll(src.Graph(), src.Attrs(), parts)
}

// ConcatAll is Concat generalized to the streaming consumers' needs: no
// parts yield an empty relation with the given attribute list (a
// drained stream that produced nothing still has a well-formed result),
// and a single part is returned as-is (zero copy — safe under the
// immutability contract, like Retain's column sharing).
func ConcatAll(g *tgm.InstanceGraph, attrs []Attr, parts []*Relation) (*Relation, error) {
	switch len(parts) {
	case 0:
		return newRelation(g, attrs, 0), nil
	case 1:
		return parts[0], nil
	}
	return Concat(parts...)
}

// AppendGroupPairs folds r's (groupAttr, valueAttr) co-occurrence pairs
// into dst — the incremental form of GroupNeighbors' collection pass,
// for consumers folding a streamed pipeline batch by batch. Appending
// batches in stream order accumulates exactly the pair lists the eager
// pass collects over the concatenated relation; finish with
// SortDedupGroups to obtain GroupNeighbors' canonical result.
func AppendGroupPairs(dst map[tgm.NodeID][]tgm.NodeID, r *Relation, groupAttr, valueAttr string) error {
	gi := r.AttrIndex(groupAttr)
	if gi < 0 {
		return fmt.Errorf("graphrel: no attribute %q", groupAttr)
	}
	vi := r.AttrIndex(valueAttr)
	if vi < 0 {
		return fmt.Errorf("graphrel: no attribute %q", valueAttr)
	}
	gcol, vcol := r.cols[gi], r.cols[vi]
	for i := 0; i < r.n; i++ {
		dst[gcol[i]] = append(dst[gcol[i]], vcol[i])
	}
	return nil
}

// SortDedupGroups sorts every group ascending by node ID and removes
// duplicates in place — GroupNeighbors' finishing pass, exported for
// streamed folds. The per-group passes fan out over the pool when a
// budget is granted; the result is a pure function of the accumulated
// pair multiset either way.
func SortDedupGroups(ctx context.Context, pool *exec.Pool, budget int, groups map[tgm.NodeID][]tgm.NodeID) error {
	if pool == nil || budget <= 1 || len(groups) == 0 {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		for g, ids := range groups {
			groups[g] = sortDedup(ids)
		}
		return nil
	}
	// Workers write into a slice aligned with keys — never into the map,
	// whose internals are not safe for concurrent writes — and a serial
	// pass stores the compacted groups back (same discipline as
	// GroupNeighborsPar phase 3).
	keys := make([]tgm.NodeID, 0, len(groups))
	for g := range groups {
		keys = append(keys, g)
	}
	vals := make([][]tgm.NodeID, len(keys))
	for i, g := range keys {
		vals[i] = groups[g]
	}
	if err := pool.MapRanges(ctx, len(keys), 64, budget, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			vals[i] = sortDedup(vals[i])
		}
		return nil
	}); err != nil {
		return err
	}
	for i, g := range keys {
		groups[g] = vals[i]
	}
	return nil
}
