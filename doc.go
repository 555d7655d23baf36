// Package repro is a from-scratch Go reproduction of "Interactive
// Browsing and Navigation in Relational Databases" (Kahng, Navathe,
// Stasko, Chau; PVLDB 9(12), 2016) — the ETable presentation data model,
// the typed graph model it executes over, the incremental query
// operators and user-level actions, the three-tier system architecture,
// and the full evaluation harness that regenerates every table and
// figure of the paper. See README.md for a tour and DESIGN.md for the
// system inventory and experiment index.
//
// # Concurrent serving core
//
// The paper's §6.2 application server hosts many interactive users over
// one immutable TGDB. The serving stack is concurrent end to end:
//
//   - internal/tgm: the instance graph is frozen after translation
//     (InstanceGraph.Freeze); every read accessor is lock-free and safe
//     for unsynchronized concurrent use because nothing mutates.
//   - internal/graphrel: relations are immutable once built and shared
//     without copying (the package documents the sharing contract).
//   - internal/etable: one etable.Cache — sharded, mutex-per-shard,
//     true LRU, with singleflight deduplication — is shared by every
//     session, so N users executing the same pattern signature compute
//     it once. Executor is a thin per-session view over the cache.
//   - internal/session: each Session has its own mutex and a small
//     presentation memo (sorted/hidden results), so concurrent requests
//     on one session serialize per session, not per server.
//   - internal/server: an RWMutex guards only the session map; sessions
//     are bounded by TTL and max-session LRU eviction; responses are
//     paginated (offset/limit) so a request encodes a row window, not
//     the whole table.
//
// Lock ordering is strictly server.mu → server entry.mu (per-session
// request serialization) → session.mu → cache shard mu
// (each released before the next is taken where possible, and never
// acquired in reverse), which makes deadlock impossible by
// construction. PERFORMANCE.md records the measured effect versus the
// previous global-mutex serving core.
//
// # Operation protocol
//
// The paper's user-level actions (§6.1) have a first-class, serializable
// representation: internal/ops defines a JSON tagged-union algebra
// (Open/Filter/FilterByNeighbor/Pivot/Single/Seeall/Sort/Hide/Show/
// Revert, plus ops.Pipeline for ordered batches) with Validate(schema)
// and Compile, so malformed operations are rejected — with the stable
// code invalid_op — before they touch any session. The op algebra is the
// single source of truth for session mutation:
//
//   - internal/session: Session.Apply executes one op, ApplyPipeline
//     executes a batch atomically (all-or-nothing with rollback), and
//     the imperative methods are thin wrappers. Every history entry
//     records its originating op, so Session.Export serializes a
//     session to a replayable operation log and Session.Replay
//     deterministically rebuilds identical state over the same graph —
//     which is also how sessions survive server-side eviction.
//   - internal/server: the versioned /api/v1 surface speaks ops
//     natively — POST .../ops applies a single op or an atomic batch
//     with one response snapshot, GET .../history exports the op log,
//     POST .../replay restores it, and errors use structured
//     {code, message, op_index} envelopes with proper 400/404/410
//     statuses. Results page by offset/limit or by opaque cursors that
//     detect staleness across state changes. The legacy unversioned
//     routes remain as deprecated aliases over the same core.
//   - pkg/client: the typed Go SDK (the first public package) with
//     per-op builders, retry/backoff, pagination iterators, and
//     history export/replay. docs/API.md documents every route.
//
// # Parallel execution
//
// PR 2 made sessions concurrent; this layer makes a single query
// concurrent, following the morsel-driven parallelism design of modern
// analytical engines:
//
//   - internal/exec: a bounded worker Pool shared process-wide. Pool
//     admission is try-acquire, never blocking: a query that finds the
//     pool busy degrades to serial on its own goroutine, so the pool
//     capacity (Options.MaxWorkers, default GOMAXPROCS) is a hard
//     server-wide bound on helper goroutines — 100 concurrent sessions
//     cannot spawn 100×Ncores workers. Each query additionally carries
//     a per-request parallelism budget.
//   - internal/graphrel: relations chunk into fixed 2048-row morsels
//     (Relation.Partitions / Concat); SelectPar, JoinPar, and
//     ProjectPar fan morsels out to the pool and splice per-morsel
//     outputs into one arena through disjoint windows — no locks on the
//     hot path, and output row-for-row identical to the serial kernels
//     (property-tested under -race).
//   - internal/stats: per-edge-type out-degree histograms and
//     per-node-type attribute NDV estimates, collected once at
//     translate time and frozen with the graph (stats.For). They
//     replace the single AvgOutDegree scalar in the planner's cost
//     model and drive condition-selectivity estimates.
//   - internal/etable: planJoinsSized is a cost-based planner propagating
//     estimated cardinalities (JoinStep.EstIn/EstOut) through the join
//     tree; Execute takes an ExecOptions{Ctx, Pool, Parallelism}
//     struct, and EstimatePattern gates tiny queries onto the serial
//     path so interactive clicks never pay fan-out overhead.
//   - internal/session + internal/server: the per-request budget and
//     the request context thread through ApplyCtx/ApplyPipelineCtx/
//     StateCtx down to the kernels. Clients override the budget with
//     ?parallelism=N; a disconnected client cancels its context and the
//     query stops between morsels (HTTP 499 in logs). /api/v1/stats
//     reports the pool and the per-edge planner statistics.
//
// PERFORMANCE.md §5 records the scaling measurements
// (BenchmarkParallelScaling).
//
// # Adaptive planning
//
// Instance matching has one pipeline: every entry point (Match,
// MatchOpts, Execute, the caching Executor's match and prepare)
// resolves its plan through etable.PlanFor and runs the plan's joins
// as pull-based morsel iterators, drained or folded straight into the
// presentation. PlanFor is a per-frozen-graph, signature-keyed cache
// of fully prepared plans (compiled predicates, start relation,
// ordered join steps with cardinality estimates, the parallelism
// gate's peak estimate). Pattern signatures are memoized on the
// immutable Pattern, so a warm lookup is a pointer load plus one map
// probe. The planner is adaptive: below a corpus-size threshold it
// uses greedy no-statistics ordering, above it the statistics-backed
// cost model (ExecOptions.Planner forces either). /api/v1/stats
// exposes hits/misses/evictions and the greedy/cost split;
// PERFORMANCE.md §8 records the cache effect and the greedy-vs-cost
// ablation that justifies the threshold.
//
// # Windowed presentation
//
// The format transformation (§5.4.2) is prepared and windowed rather
// than monolithic: etable.Prepare computes the row set, column layout,
// and per-column neighbor groupings without materializing a single
// cell, and etable.Presentation.Window (or the one-shot
// etable.TransformWindow) materializes any [offset, offset+limit) row
// range on demand. Row materialization partitions cleanly by row
// range, so Window fans the transformRange kernel out over the shared
// worker pool with the same disjoint-window splice discipline as the
// matching kernels — row- and cell-identical to the serial transform,
// equivalence-tested under -race.
//
// Pinning semantics: the session layer prepares one Presentation per
// pattern and pins the matched relation in the shared execution cache
// (etable.Cache.Pin via Executor.PrepareWithOpts). A pinned relation
// is exempt from LRU eviction, so every page of a result addresses the
// same relation — a page fetch costs O(window), never a re-match or a
// full re-render. Sort variants of one pattern share that single
// prepared presentation: Presentation.SortedView reorders only the row
// IDs (O(rows·log rows)) while sharing the column layout and neighbor
// groupings, so toggling sort direction never re-prepares. Sorting
// happens on the row order (no cells), so sort-then-page equals
// full-render-then-slice by construction.
//
// Cursor invalidation: HTTP cursors fingerprint the presentation state
// they were issued against; any op that changes the table invalidates
// them (409 stale_cursor), and the client re-pages the new state.
//
// Memory bound: pins are released when the per-session presentation
// memo (8 entries) evicts an entry, so at most sessions × 8 relations
// are pinned beyond the cache capacity; /api/v1/stats reports the
// current count as pinnedRelations.
//
// Allocation discipline in the transform: all cells of a window share
// one backing array, entity references are carved from one per-range
// arena (empty lists share a single slice), per-(group,value) hash
// dedup was replaced by sort-side compaction and a dense-ID bitmap
// (graphrel.Bitset), and non-string labels are interned per range so N
// rows referencing one node share one rendered string. PERFORMANCE.md
// §6 records the page-fetch measurements (BenchmarkFigure7Pipeline).
//
// # Persistence and datasets
//
// internal/snapshot serializes a frozen TGDB — schema, node columns,
// both adjacency directions, and the planner statistics — into a
// versioned columnar file (.etsnap) with per-section CRC-32C
// checksums; Load rebuilds a frozen graph that serves byte-identical
// query results without re-running translation (corrupt or
// version-skewed files fail with typed errors, never panics; see
// docs/SNAPSHOT.md for the format). internal/registry names many such
// datasets in one server process: each owns its own execution cache,
// plan cache, and statistics, lazy snapshot datasets load on first
// request (singleflight), and sessions bind to one dataset at
// creation. The HTTP surface grows /api/v1/datasets (list/inspect) and
// /api/v1/datasets/{name}/sessions/... routing, with the legacy
// unscoped routes serving the registry's default dataset unchanged.
// etable-translate -o writes a snapshot; etable-server -snapshot
// boots from one (3.8× faster than regenerate+translate at the
// 5k-paper default, PERFORMANCE.md §9) and repeatable -dataset
// name=path flags register more.
//
// # Out-of-core snapshots
//
// The snapshot tier also loads without materializing: snapshot.LazyLoad
// (etable-server -lazy) opens an .etsnap file by validating the header,
// section table, and skeleton sections only — O(section table), not
// O(corpus) — leaving every attribute column as an unresolved handle
// and every edge type's CSR arrays as a deferred conversion. Columns
// fault in through internal/pager, a bounded buffer pool (budget
// -pager-sections, default 64) with CRC verification on first fault,
// LRU eviction of unpinned sections, singleflight fault collapsing, and
// pin/unpin tied to the window-materialization discipline, so
// steady-state memory is the skeleton plus the pool budget regardless
// of corpus size. Damaged columns surface as typed *CorruptError values
// from the faulting query — never a panic, never poisoning the pool
// (repairing the file heals the next fault in place). The registry
// chooses eager or lazy boot per dataset (registry.SnapshotOptions),
// GET /api/v1/datasets describes snapshot files from their headers
// alone (fileBytes, fileSections), and /api/v1/stats exports per-
// dataset pager telemetry. PERFORMANCE.md §10 records the boot-latency
// and cold-window measurements (BenchmarkLazyBoot,
// BenchmarkColdWindowFault); a lazy-vs-eager fuzz and a GOMEMLIMIT
// smoke job in CI hold the equivalence and memory-bound claims.
//
// # Spill-to-disk execution
//
// The out-of-core tier bounds memory on the way *in* (base columns page
// from disk); the spill tier bounds it on the way *out*: a query whose
// result crosses the row cap (ExecOptions.MaxRows, etable-server
// -max-rows) no longer fails with 413 result_too_large — it
// materializes through internal/spill into temporary run files
// (snapshot NCOL column encoding, per-run CRC-32C, anonymous
// O_TMPFILE/unlink-on-open so a crash leaks nothing) and pages back
// through the same internal/pager buffer pool as lazy columns.
// internal/graphrel provides the external operator forms: RunSink
// accumulates streamed batches into fixed-size runs and exposes the
// window-addressable SpilledRelation; ExternalGroupFold and
// ExternalDistinct run sort-merge folds whose sorted-run flushes merge
// with cross-run deduplication, so grouping and distinct results far
// past the cap compute in bounded memory. Policy is per-dataset
// (graphrel.SpillPolicy via server Options{SpillDir, MaxSpillBytes};
// flags -spill-dir and -max-spill-bytes; "off" restores strict 413s),
// the byte budget rejects with the same unified
// {code, limit, rows} envelope as every other cap layer, damaged runs
// surface as typed *spill.CorruptError values with the session
// surviving, and files are reaped on session close, LRU eviction, and
// a boot-time sweep of named spill directories. /api/v1/stats reports
// a per-dataset spill block (spills, runBytes, mergePasses, faults);
// PERFORMANCE.md §11 records the first-page cost of a spilled result
// (≤1.6× in-memory at 53k and 313k rows, BenchmarkSpilledFirstPage),
// and CI's spill-smoke job browses a capped pivot end to end under
// GOMEMLIMIT=32MiB. A randomized spilled≡in-memory fuzz under -race
// holds the equivalence claim.
package repro
