// Package etable implements the paper's primary contribution: the ETable
// presentation data model. It defines the query pattern Q = (τa, T, P, C)
// (Definition 3), the primitive operators Initiate/Select/Add/Shift that
// incrementally build patterns (§5.3), and query execution as instance
// matching over the typed graph model followed by format transformation
// into an enriched table (§5.4).
//
// # One execution pipeline
//
// The matching core m(Q) has exactly one pipeline: resolve the plan
// (PlanFor), select the bases through its compiled predicates, and
// compose the join chain as pull-based morsel iterators
// (graphrel.RowSource). No intermediate ever exists in full; memory is
// proportional to the in-flight batches, and a window or LIMIT consumer
// terminates upstream production after O(window) driving-side work
// (MatchSource, PrepareFromSource). Every entry point is a thin wrapper
// over it: MatchOpts, Match, and Executor.MatchWithOpts drain it;
// Executor.PrepareWithOpts folds the presentation off it on a cache
// miss; ExecuteOpts drains and transforms. MatchNaive, the plan-free
// declaration-order matcher, stays as the equivalence oracle.
//
// The drained relation is a deterministic splice of batches consumed
// in order, so cache and pin semantics are preserved by materializing
// lazily: the first full consumption splices the retained batches into
// the one relation that gets cached. A joinless pattern's match is its
// already-resident selected base, used as-is: it is cached without a
// copy and is exempt from ExecOptions.MaxRows, which bounds what joins
// produce. With a spill policy, a join result crossing MaxRows
// overflows to disk instead (PrepareFromSource).
//
// # Adaptive planning
//
// The pipeline, the parallel kernels, and EstimatePattern consume the
// same prepared plan, resolved through PlanFor: a per-frozen-graph LRU
// cache keyed by the memoized pattern signature. A cached Plan carries
// everything planning produces — compiled node predicates, the start
// relation key, the ordered join steps with cardinality estimates, and
// the parallelism gate's peak estimate — so a repeat pattern (every
// page fetch, every history revert, every session running the same
// query) skips planning entirely; a warm lookup costs a pointer load
// and one map probe (BenchmarkPlanCache).
//
// The ordering policy is adaptive (resolvePlannerMode): below
// adaptiveStatsMinNodes the greedy no-statistics ordering is used —
// the measured ablation (PERFORMANCE.md §8) shows the cost model and
// greedy ordering within noise of each other on small corpora, so the
// cheaper policy wins — and above it the statistics-backed cost model,
// where skewed fan-out can compound across multi-hop joins.
// ExecOptions.Planner forces either policy; ExecOptions.NoPlanCache
// builds a fresh uncached plan per execution (the benchmarks'
// plan-every-time arm). PlannerStatsFor exposes hits, misses,
// evictions, and the greedy/cost split; the server surfaces them at
// /api/v1/stats.
//
// # Windowing and recycling
//
// Presentation windows (Presentation.Window) draw their row/cell/ref
// storage from a sync.Pool-backed arena (windowStore). Callers that can
// guarantee sole ownership — the serving layer deep-copies windows into
// response structs before releasing them — return the storage with
// Result.Recycle, making steady-state paging allocation-free. Recycling
// is strictly opt-in; a Result that is never recycled is garbage
// collected like any other value.
package etable
