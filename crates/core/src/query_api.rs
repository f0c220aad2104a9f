//! The unified query surface: [`QueryRequest`] in, [`QueryResponse`] out.
//!
//! Every consumer of the appliance — examples, benches, the figure
//! harness — asks questions the same way: build a request, call
//! [`crate::Impliance::query`], inspect the response. The response
//! carries not just rows/documents but the plan that was run, the
//! execution metrics, whether the plan came from the cache, and the
//! observability span id under which the execution was traced — enough
//! to correlate any answer with the metrics snapshot.

use impliance_obs::SpanId;
use impliance_query::{parse_sql, ExecMetrics, LogicalPlan, Priority, QueryOutput};
use impliance_virt::TenantId;

use crate::appliance::ApplianceError;
use crate::error::Error;

/// A text-match clause attached to a request: the keyword half of a
/// hybrid query. Compiled into an `IndexScan` operator that produces
/// BM25-scored tuples (exposed to projections as the `_score`
/// pseudo-path).
#[derive(Debug, Clone, PartialEq)]
pub struct MatchClause {
    /// Structural path the match is confined to (`None` = whole document).
    pub path: Option<String>,
    /// The query text.
    pub query: String,
    /// Match any term (disjunctive) instead of every term (conjunctive).
    pub any_term: bool,
    /// Positional exact-phrase match instead of bag-of-terms.
    pub phrase: bool,
}

/// Reciprocal-rank-fusion weights for hybrid ranking: each row's fused
/// score is `text_weight / (rrf_k + text_rank) + struct_weight /
/// (rrf_k + struct_rank)`, where the text rank orders by BM25 score and
/// the structured rank orders by the query's sort keys (or recency when
/// it has none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionSpec {
    /// Weight of the text (BM25) ranking.
    pub text_weight: f64,
    /// Weight of the structured ranking.
    pub struct_weight: f64,
    /// The RRF dampening constant (60.0 is the literature default).
    pub rrf_k: f64,
}

impl Default for FusionSpec {
    fn default() -> FusionSpec {
        FusionSpec {
            text_weight: 1.0,
            struct_weight: 1.0,
            rrf_k: 60.0,
        }
    }
}

/// A query against the appliance. Build with [`QueryRequest::builder`].
#[derive(Debug, Clone)]
pub struct QueryRequest {
    statement: String,
    match_clause: Option<MatchClause>,
    top_k: Option<usize>,
    fusion: Option<FusionSpec>,
    plan_cache: bool,
    batch_size: Option<usize>,
    limit: Option<usize>,
    deadline_ms: Option<u64>,
    parallelism: Option<usize>,
    snapshot: Option<u64>,
    tenant: TenantId,
    priority: Priority,
}

impl QueryRequest {
    /// Start building a request for a mini-SQL statement.
    pub fn builder(statement: impl Into<String>) -> QueryRequestBuilder {
        QueryRequestBuilder {
            request: QueryRequest {
                statement: statement.into(),
                match_clause: None,
                top_k: None,
                fusion: None,
                plan_cache: true,
                batch_size: None,
                limit: None,
                deadline_ms: None,
                parallelism: None,
                snapshot: None,
                tenant: TenantId::default(),
                priority: Priority::default(),
            },
        }
    }

    /// The SQL text (may be empty for pure text-match requests).
    pub fn statement(&self) -> &str {
        &self.statement
    }

    /// The text-match clause, if any (see
    /// [`QueryRequestBuilder::match_text`]).
    pub fn match_clause(&self) -> Option<&MatchClause> {
        self.match_clause.as_ref()
    }

    /// The scored-result cap, if any (see [`QueryRequestBuilder::top_k`]).
    pub fn top_k(&self) -> Option<usize> {
        self.top_k
    }

    /// The rank-fusion spec, if any (see [`QueryRequestBuilder::fusion`]).
    pub fn fusion_spec(&self) -> Option<FusionSpec> {
        self.fusion
    }

    /// The plan-cache key for this request. The cached plan embeds the
    /// match clause, top-k bound, and fusion spec, so requests that
    /// differ in any of them must key separately even when the SQL text
    /// is identical.
    pub fn cache_key(&self) -> String {
        match (&self.match_clause, self.top_k, self.fusion) {
            (None, None, None) => self.statement.clone(),
            (m, k, f) => format!(
                "{}\u{1}match={:?};k={:?};limit={:?};fusion={:?}",
                self.statement, m, k, self.limit, f
            ),
        }
    }

    /// Whether the plan cache may serve/store this statement's plan.
    pub fn plan_cache_enabled(&self) -> bool {
        self.plan_cache
    }

    /// The per-request pipeline batch size, if any (defaults to the
    /// appliance configuration when `None`).
    pub fn batch_size(&self) -> Option<usize> {
        self.batch_size
    }

    /// The request-level output cap, if any. Enforced as a pipeline
    /// `Limit`, so upstream operators terminate early.
    pub fn limit(&self) -> Option<usize> {
        self.limit
    }

    /// The wall-clock budget for this query in milliseconds, if any.
    /// When it expires the pipeline stops between batches and the
    /// response comes back with `degraded = true` and the rows produced
    /// so far — a partial answer, never an error or a silent short
    /// count.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// The per-request worker-thread override, if any (defaults to
    /// `ApplianceConfig::worker_threads` when `None`; `1` forces the
    /// serial pipeline).
    pub fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// The explicit snapshot epoch to execute at, if any. `None` pins the
    /// storage engine's current epoch at query start (the default: a
    /// fresh, internally consistent snapshot).
    pub fn snapshot(&self) -> Option<u64> {
        self.snapshot
    }

    /// The tenant this query is billed against (tenant `0`, the default,
    /// is the shared tenant for callers that never declared one).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The scheduling class for this query (see
    /// [`QueryRequestBuilder::priority`]).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Build the unoptimized logical plan for this request: parse the SQL,
    /// then graft the match clause and fusion spec onto it.
    ///
    /// * No match clause: the statement parses as-is.
    /// * Match clause + empty statement: a pure keyword search — a
    ///   bounded scored `IndexScan` projected to `(id, score)` rows.
    /// * Match clause + statement: the statement's base scan is replaced
    ///   by an unbounded scored `IndexScan` over the same collection
    ///   (its predicate re-applied as a filter above), so structured
    ///   conditions intersect text relevance and rows carry `_score`.
    /// * A fusion spec re-ranks by RRF of the text ranking with the
    ///   statement's `ORDER BY` (or recency when it has none).
    pub(crate) fn build_plan(&self) -> Result<LogicalPlan, Error> {
        let Some(m) = self.match_clause() else {
            let parsed =
                parse_sql(self.statement()).map_err(|e| ApplianceError::Sql(e.to_string()))?;
            return Ok(parsed);
        };
        let k = self.top_k().or(self.limit());
        if self.statement().trim().is_empty() {
            let scan = LogicalPlan::IndexScan {
                query: m.query.clone(),
                path: m.path.clone(),
                k: Some(k.unwrap_or(10)),
                alias: "d".into(),
                any_term: m.any_term,
                phrase: m.phrase,
                collection: None,
            };
            return Ok(LogicalPlan::Project {
                input: Box::new(scan),
                columns: vec![
                    ("d".into(), "_id".into(), "id".into()),
                    ("d".into(), "_score".into(), "score".into()),
                ],
            });
        }
        let parsed = parse_sql(self.statement()).map_err(|e| ApplianceError::Sql(e.to_string()))?;
        let (mut plan, replaced) = inject_index_scan(parsed, m);
        if !replaced {
            return Err(ApplianceError::Sql(
                "match clause needs a base table scan to attach to".into(),
            )
            .into());
        }
        if let Some(f) = self.fusion_spec() {
            plan = inject_fusion(plan, k.unwrap_or(10), f);
        }
        Ok(plan)
    }
}

/// Replace the leftmost base `Scan` with a scored `IndexScan` over
/// the same collection and alias; the scan's predicate (if any)
/// becomes a filter above it. Returns whether a scan was found.
fn inject_index_scan(plan: LogicalPlan, m: &MatchClause) -> (LogicalPlan, bool) {
    match plan {
        LogicalPlan::Scan {
            collection,
            predicate,
            alias,
            ..
        } => {
            let scan = LogicalPlan::IndexScan {
                query: m.query.clone(),
                path: m.path.clone(),
                k: None, // unbounded: structured predicates still apply
                alias: alias.clone(),
                any_term: m.any_term,
                phrase: m.phrase,
                collection,
            };
            let plan = match predicate {
                Some(predicate) => LogicalPlan::Filter {
                    input: Box::new(scan),
                    alias,
                    predicate,
                },
                None => scan,
            };
            (plan, true)
        }
        LogicalPlan::Filter {
            input,
            alias,
            predicate,
        } => {
            let (input, replaced) = inject_index_scan(*input, m);
            (
                LogicalPlan::Filter {
                    input: Box::new(input),
                    alias,
                    predicate,
                },
                replaced,
            )
        }
        LogicalPlan::Project { input, columns } => {
            let (input, replaced) = inject_index_scan(*input, m);
            (
                LogicalPlan::Project {
                    input: Box::new(input),
                    columns,
                },
                replaced,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let (input, replaced) = inject_index_scan(*input, m);
            (
                LogicalPlan::Sort {
                    input: Box::new(input),
                    keys,
                },
                replaced,
            )
        }
        LogicalPlan::Limit { input, n } => {
            let (input, replaced) = inject_index_scan(*input, m);
            (
                LogicalPlan::Limit {
                    input: Box::new(input),
                    n,
                },
                replaced,
            )
        }
        LogicalPlan::GroupAgg {
            input,
            group_by,
            aggs,
        } => {
            let (input, replaced) = inject_index_scan(*input, m);
            (
                LogicalPlan::GroupAgg {
                    input: Box::new(input),
                    group_by,
                    aggs,
                },
                replaced,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            algo,
        } => {
            // the leftmost scan drives the text ranking; the right
            // side stays a plain (index-probed) scan
            let (left, replaced) = inject_index_scan(*left, m);
            (
                LogicalPlan::Join {
                    left: Box::new(left),
                    right,
                    left_key,
                    right_key,
                    algo,
                },
                replaced,
            )
        }
        other => (other, false),
    }
}

/// Insert a `Fusion` node at the tuple layer: below projections and
/// limits, swallowing an `ORDER BY` as the structured ranking (rows
/// keep flowing in fused order), or over the bare tuple stream with
/// recency as the structured signal when the query has no sort.
fn inject_fusion(plan: LogicalPlan, k: usize, f: FusionSpec) -> LogicalPlan {
    match plan {
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(inject_fusion(*input, k, f)),
            n,
        },
        LogicalPlan::Project { input, columns } => LogicalPlan::Project {
            input: Box::new(inject_fusion(*input, k, f)),
            columns,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Fusion {
            input,
            k,
            text_weight: f.text_weight,
            struct_weight: f.struct_weight,
            rrf_k: f.rrf_k,
            keys,
        },
        other => LogicalPlan::Fusion {
            input: Box::new(other),
            k,
            text_weight: f.text_weight,
            struct_weight: f.struct_weight,
            rrf_k: f.rrf_k,
            keys: Vec::new(),
        },
    }
}

/// Builder for [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryRequestBuilder {
    request: QueryRequest,
}

impl QueryRequestBuilder {
    /// Attach a text-match clause: score documents by BM25 relevance to
    /// `query`, confined to structural path `field` (`""` or `"*"` =
    /// whole document). With an empty statement this is a pure keyword
    /// search; combined with SQL it turns the statement's base scan into
    /// a scored index scan whose rows expose `_score`.
    pub fn match_text(mut self, field: &str, query: impl Into<String>) -> QueryRequestBuilder {
        let path = match field {
            "" | "*" => None,
            f => Some(f.to_string()),
        };
        self.request.match_clause = Some(MatchClause {
            path,
            query: query.into(),
            any_term: false,
            phrase: false,
        });
        self
    }

    /// Relax the match clause to disjunctive (any-term) semantics.
    /// No-op unless [`QueryRequestBuilder::match_text`] was called.
    pub fn any_term(mut self) -> QueryRequestBuilder {
        if let Some(m) = self.request.match_clause.as_mut() {
            m.any_term = true;
        }
        self
    }

    /// Tighten the match clause to positional exact-phrase semantics.
    /// No-op unless [`QueryRequestBuilder::match_text`] was called.
    pub fn phrase(mut self) -> QueryRequestBuilder {
        if let Some(m) = self.request.match_clause.as_mut() {
            m.phrase = true;
        }
        self
    }

    /// Keep only the `k` best-scored rows. Drives top-k early
    /// termination inside the index scan (clamped to ≥ 1).
    pub fn top_k(mut self, k: usize) -> QueryRequestBuilder {
        self.request.top_k = Some(k.max(1));
        self
    }

    /// Re-rank results by reciprocal-rank fusion of the text (BM25)
    /// ranking with the structured ranking (the query's sort keys, or
    /// recency when it has none). See [`FusionSpec`].
    pub fn fusion(mut self, spec: FusionSpec) -> QueryRequestBuilder {
        self.request.fusion = Some(spec);
        self
    }

    /// Enable or disable the plan cache for this request (on by default;
    /// disable when benchmarking the planner itself).
    pub fn plan_cache(mut self, enabled: bool) -> QueryRequestBuilder {
        self.request.plan_cache = enabled;
        self
    }

    /// Override the pipeline batch size for this request only.
    pub fn batch_size(mut self, size: usize) -> QueryRequestBuilder {
        self.request.batch_size = Some(size.max(1));
        self
    }

    /// Cap the number of output rows/documents. Applied as a pipeline
    /// `Limit` at the root of the plan.
    pub fn limit(mut self, n: usize) -> QueryRequestBuilder {
        self.request.limit = Some(n);
        self
    }

    /// Give the query a wall-clock budget in milliseconds. An expired
    /// budget returns the rows produced so far with
    /// `QueryResponse::degraded` set instead of failing.
    pub fn deadline_ms(mut self, ms: u64) -> QueryRequestBuilder {
        self.request.deadline_ms = Some(ms);
        self
    }

    /// Set the worker-thread count for morsel-driven parallel execution
    /// (clamped to ≥ 1; `1` forces the serial pipeline). Plans without a
    /// parallel form run serially regardless.
    pub fn parallelism(mut self, workers: usize) -> QueryRequestBuilder {
        self.request.parallelism = Some(workers.max(1));
        self
    }

    /// Execute at an explicit snapshot epoch (e.g. one obtained from
    /// `StorageEngine::pin` or a previous response's `snapshot_epoch`)
    /// instead of pinning the current epoch. Commits after that epoch are
    /// invisible to the query.
    pub fn at_epoch(mut self, epoch: u64) -> QueryRequestBuilder {
        self.request.snapshot = Some(epoch);
        self
    }

    /// Bill this query to a tenant. The tenant's admission quota, queue
    /// bound, and plan-cache partition apply; unset requests run as the
    /// shared tenant `0`.
    pub fn tenant(mut self, id: u64) -> QueryRequestBuilder {
        self.request.tenant = TenantId(id);
        self
    }

    /// Set the scheduling class. `High` is admitted even under overload
    /// and preempts lower-priority morsel workers; `Low` is the first
    /// class shed when the appliance saturates. Results are identical at
    /// every priority — this only changes *when* (and whether) the query
    /// runs under load.
    pub fn priority(mut self, priority: Priority) -> QueryRequestBuilder {
        self.request.priority = priority;
        self
    }

    /// Finish the request.
    pub fn build(self) -> QueryRequest {
        self.request
    }
}

/// How the workload manager handled an answered query. A shed query
/// never produces a response at all — it comes back as a typed
/// `ErrorKind::Overloaded` error with a retry-after hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionOutcome {
    /// No workload policy was in the path (the default permissive
    /// configuration): the query ran unmanaged.
    #[default]
    Unmanaged,
    /// Admitted at full fidelity.
    Admitted,
    /// Admitted under overload with a tightened execution budget; the
    /// response may be an honest partial answer (`degraded`).
    Degraded,
}

/// Everything the appliance knows about one answered query.
#[derive(Debug)]
pub struct QueryResponse {
    /// The rows or documents produced by the root operator.
    pub output: QueryOutput,
    /// Execution-side metrics (scan accounting, rows out, index lookups).
    pub metrics: ExecMetrics,
    /// The physical plan that was executed.
    pub plan: LogicalPlan,
    /// The tracing span under which execution was recorded; look it up in
    /// the observability snapshot to get wall time and child spans.
    pub span_id: SpanId,
    /// Whether the plan was served from the appliance plan cache.
    pub plan_cache_hit: bool,
    /// True when the query's deadline expired and `output` is a partial
    /// prefix of the full answer (see `QueryRequest::deadline_ms`).
    pub degraded: bool,
    /// The pinned epoch this query executed at: every commit at or below
    /// it was visible, everything after it was not.
    pub snapshot_epoch: u64,
    /// The background annotation watermark at query time: every ingest
    /// commit at or below it had its annotation set committed. When this
    /// is below `snapshot_epoch`, recently ingested documents may not
    /// have annotations yet (they are never *partially* annotated).
    pub annotation_epoch: u64,
    /// The text-index maintenance watermark at query time: every commit
    /// at or below it is reflected in the full-text index. When this is
    /// below `snapshot_epoch`, a match clause may miss recently ingested
    /// documents (stale but never torn: a document's terms are indexed
    /// all-or-nothing).
    pub index_epoch: u64,
    /// Microseconds this query waited for admission before execution
    /// started (0 when no workload policy was in the path).
    pub queue_wait_us: u64,
    /// How the workload manager handled this query.
    pub admission: AdmissionOutcome,
}

/// Typed execution statistics for one answered query — the structured
/// replacement for picking through raw `ExecMetrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Rows/documents produced by the root operator.
    pub rows: u64,
    /// Batches drained at the root of an operator tree — the query's one
    /// tree on the serial path, summed over every morsel's tree on the
    /// parallel path.
    pub batches: u64,
    /// Mean rows per drained batch (0.0 when nothing was drained).
    pub rows_per_batch: f64,
    /// Worker threads that executed the query (1 = serial pipeline).
    pub workers_used: u64,
    /// Times a `Limit` stopped pulling (or the parallel merge truncated)
    /// before its input was exhausted.
    pub early_terminations: u64,
    /// Index lookups performed.
    pub index_lookups: u64,
    /// Text-search candidates actually scored by BM25 across the
    /// query's index scans.
    pub candidates_scored: u64,
    /// Text-search candidates skipped by MaxScore upper-bound pruning
    /// before scoring.
    pub candidates_pruned: u64,
    /// Encoded bytes read at the storage nodes.
    pub bytes_scanned: u64,
    /// Encoded bytes returned across the (simulated) network.
    pub bytes_returned: u64,
    /// Segments skipped entirely via zone maps before decompression.
    pub segments_skipped: u64,
    /// Segments actually decoded during the scan.
    pub segments_scanned: u64,
    /// True when any part of the query ran on the columnar (vectorized)
    /// decode path rather than row-at-a-time document iteration.
    pub columnar: bool,
    /// True when the deadline expired and `rows` is a partial prefix.
    pub degraded: bool,
    /// The pinned epoch the query executed at.
    pub snapshot_epoch: u64,
    /// The annotation watermark at query time (see
    /// `QueryResponse::annotation_epoch`).
    pub annotation_epoch: u64,
    /// The text-index maintenance watermark at query time (see
    /// `QueryResponse::index_epoch`).
    pub index_epoch: u64,
    /// Annotation freshness in `[0, 1]`: the fraction of the snapshot's
    /// epochs whose annotation sets were committed (`1.0` = discovery
    /// fully caught up with ingest at this snapshot).
    pub freshness: f64,
    /// Microseconds spent waiting for admission before execution
    /// started (0 when no workload policy was in the path).
    pub queue_wait_us: u64,
    /// How the workload manager handled this query (shed queries never
    /// reach a response — they fail typed as `Overloaded`).
    pub admission: AdmissionOutcome,
}

impl QueryResponse {
    /// Row view of the output (empty for non-row outputs).
    pub fn rows(&self) -> &[impliance_query::Row] {
        self.output.rows()
    }

    /// Typed execution statistics for this response.
    pub fn exec_stats(&self) -> ExecStats {
        let m = &self.metrics;
        ExecStats {
            rows: m.rows_out,
            batches: m.batches,
            rows_per_batch: if m.batches == 0 {
                0.0
            } else {
                m.rows_out as f64 / m.batches as f64
            },
            workers_used: m.workers_used,
            early_terminations: m.early_terminations,
            index_lookups: m.index_lookups,
            candidates_scored: m.search_candidates_scored,
            candidates_pruned: m.search_candidates_pruned,
            bytes_scanned: m.scan.bytes_scanned,
            bytes_returned: m.scan.bytes_returned,
            segments_skipped: m.scan.segments_skipped,
            segments_scanned: m.scan.segments_scanned,
            columnar: m.columnar_batches > 0,
            degraded: self.degraded,
            snapshot_epoch: self.snapshot_epoch,
            annotation_epoch: self.annotation_epoch,
            index_epoch: self.index_epoch,
            freshness: self.freshness(),
            queue_wait_us: self.queue_wait_us,
            admission: self.admission,
        }
    }

    /// Annotation freshness in `[0, 1]`: 1.0 when background discovery
    /// had annotated every commit visible to this query's snapshot.
    pub fn freshness(&self) -> f64 {
        if self.snapshot_epoch == 0 {
            1.0
        } else {
            (self.annotation_epoch.min(self.snapshot_epoch)) as f64 / self.snapshot_epoch as f64
        }
    }

    /// Document view of the output (empty for non-doc outputs).
    pub fn docs(&self) -> &[std::sync::Arc<impliance_docmodel::Document>] {
        self.output.docs()
    }

    /// Number of rows/docs produced.
    pub fn len(&self) -> usize {
        self.output.len()
    }

    /// True when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.output.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let req = QueryRequest::builder("SELECT * FROM docs").build();
        assert_eq!(req.statement(), "SELECT * FROM docs");
        assert!(req.plan_cache_enabled());

        let req = QueryRequest::builder("SELECT * FROM docs")
            .plan_cache(false)
            .build();
        assert!(!req.plan_cache_enabled());
    }

    #[test]
    fn builder_batch_size_and_limit() {
        let req = QueryRequest::builder("SELECT * FROM docs").build();
        assert_eq!(req.batch_size(), None);
        assert_eq!(req.limit(), None);
        assert_eq!(req.deadline_ms(), None);

        let req = QueryRequest::builder("SELECT * FROM docs")
            .batch_size(0)
            .limit(10)
            .deadline_ms(250)
            .build();
        assert_eq!(req.batch_size(), Some(1), "batch size clamps to >= 1");
        assert_eq!(req.limit(), Some(10));
        assert_eq!(req.deadline_ms(), Some(250));
    }

    #[test]
    fn builder_parallelism_clamps_to_one() {
        let req = QueryRequest::builder("SELECT * FROM docs").build();
        assert_eq!(req.parallelism(), None);

        let req = QueryRequest::builder("SELECT * FROM docs")
            .parallelism(0)
            .build();
        assert_eq!(req.parallelism(), Some(1), "parallelism clamps to >= 1");

        let req = QueryRequest::builder("SELECT * FROM docs")
            .parallelism(8)
            .build();
        assert_eq!(req.parallelism(), Some(8));
    }

    #[test]
    fn builder_match_topk_and_fusion() {
        let req = QueryRequest::builder("SELECT * FROM docs").build();
        assert!(req.match_clause().is_none());
        assert_eq!(req.top_k(), None);
        assert!(req.fusion_spec().is_none());
        assert_eq!(req.cache_key(), "SELECT * FROM docs");

        let req = QueryRequest::builder("")
            .match_text("*", "bumper damage")
            .any_term()
            .top_k(0)
            .build();
        let m = req.match_clause().expect("match clause set");
        assert_eq!(m.path, None, "'*' means the whole document");
        assert_eq!(m.query, "bumper damage");
        assert!(m.any_term);
        assert!(!m.phrase);
        assert_eq!(req.top_k(), Some(1), "top_k clamps to >= 1");

        let req = QueryRequest::builder("SELECT * FROM docs")
            .match_text("notes", "bumper")
            .phrase()
            .fusion(FusionSpec::default())
            .build();
        let m = req.match_clause().unwrap();
        assert_eq!(m.path.as_deref(), Some("notes"));
        assert!(m.phrase);
        let f = req.fusion_spec().unwrap();
        assert_eq!(f.rrf_k, 60.0);
        assert_ne!(
            req.cache_key(),
            QueryRequest::builder("SELECT * FROM docs")
                .match_text("notes", "bumper")
                .build()
                .cache_key(),
            "phrase/fusion variants must key separately"
        );
    }

    #[test]
    fn builder_tenant_and_priority() {
        let req = QueryRequest::builder("SELECT * FROM docs").build();
        assert_eq!(req.tenant(), TenantId(0), "default is the shared tenant");
        assert_eq!(req.priority(), Priority::Normal);

        let req = QueryRequest::builder("SELECT * FROM docs")
            .tenant(42)
            .priority(Priority::High)
            .build();
        assert_eq!(req.tenant(), TenantId(42));
        assert_eq!(req.priority(), Priority::High);
    }
}
