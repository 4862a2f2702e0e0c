//! A query service over an [`IndexCatalog`]: heterogeneous requests
//! (range and top-k, each naming its index) executed on the crate's one
//! worker pool, plus sustained throughput and tail-latency accounting.
//!
//! The pool is the concurrency contract of [`ProbIndex`] put to work:
//! queries take `&self`, so `workers` scoped threads share the catalog,
//! pull requests off a shared cursor and each hold one [`QueryCtx`] across
//! *all* the requests they execute; with one worker (or one request) the
//! loop runs on the calling thread. Requests name their index; lookup
//! failures, query errors **and panics** become [`ServiceReply::Error`]
//! for that request alone, never a torn batch.
//!
//! Replies come back in submission order. The accompanying
//! [`ServiceReport`] records per-request latency from the *start of
//! `serve`* to completion (so time spent behind other requests counts, as
//! it does for a real client) and derives sustained qps plus nearest-rank
//! percentiles (p50/p99).

use crate::api::{ProbIndex, Query, QueryOutcome, RankOutcome, RankQuery};
use crate::catalog_store::IndexCatalog;
use crate::query::QueryCtx;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One request to the service: which named index to hit, and with what.
#[derive(Debug, Clone)]
pub enum ServiceRequest<const D: usize> {
    /// A probabilistic range query against the named index.
    Range {
        /// Catalog name of the target index.
        index: String,
        /// The validated query.
        query: Query<D>,
    },
    /// A probabilistic top-k ranking query against the named index.
    TopK {
        /// Catalog name of the target index.
        index: String,
        /// The validated query.
        query: RankQuery<D>,
    },
}

/// The per-request answer, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// Range answer.
    Range(QueryOutcome),
    /// Ranking answer.
    TopK(RankOutcome),
    /// This request failed (unknown index, invalid query, storage error,
    /// or a panic — reported with the panic's own message); the rest of
    /// the batch is unaffected.
    Error(String),
}

/// Throughput and latency accounting for one [`QueryService::serve`] run.
///
/// Latency is measured per request from the start of `serve` to
/// completion, so time spent behind other requests counts. Percentiles use
/// the nearest-rank method on the sorted latencies.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Requests executed (successes and per-request errors alike).
    pub served: usize,
    /// Wall-clock duration of the whole run.
    pub wall_nanos: u64,
    /// Per-request latencies, sorted ascending.
    latencies: Vec<u64>,
}

impl ServiceReport {
    /// Sustained queries per second over the run's wall clock. `NAN` when
    /// nothing was served — an empty run has no meaningful rate, and `0.0`
    /// would read as a collapse to a qps floor. The wall clock is clamped
    /// to ≥ 1 ns, so the rate is finite exactly when a request was served.
    pub fn queries_per_sec(&self) -> f64 {
        if self.served == 0 {
            return f64::NAN;
        }
        self.served as f64 * 1e9 / self.wall_nanos.max(1) as f64
    }

    /// Nearest-rank latency percentile for `p` in `(0, 100]`. `None` when
    /// nothing was served, and `None` for any `p` outside that range, NaN
    /// included.
    pub fn percentile_nanos(&self, p: f64) -> Option<u64> {
        let in_range = p > 0.0 && p <= 100.0;
        if self.latencies.is_empty() || !in_range {
            return None;
        }
        let rank = (p / 100.0 * self.latencies.len() as f64).ceil() as usize;
        Some(self.latencies[rank.clamp(1, self.latencies.len()) - 1])
    }

    /// Median request latency.
    pub fn p50_nanos(&self) -> Option<u64> {
        self.percentile_nanos(50.0)
    }

    /// 99th-percentile (tail) request latency.
    pub fn p99_nanos(&self) -> Option<u64> {
        self.percentile_nanos(99.0)
    }
}

/// Heterogeneous query traffic against an [`IndexCatalog`] on the crate's
/// worker pool — see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct QueryService {
    workers: usize,
}

impl QueryService {
    /// A service running each [`serve`](Self::serve) call on at most
    /// `workers` threads.
    ///
    /// `max_batch` is accepted for source compatibility and has **no
    /// effect**: requests are claimed one at a time off a shared cursor,
    /// so there is no admission batch to cap.
    ///
    /// # Panics
    ///
    /// If `workers` is zero.
    pub fn new(workers: usize, _max_batch: usize) -> Self {
        assert!(workers > 0, "a service needs at least one worker");
        Self { workers }
    }

    /// Upper bound on the threads one `serve` call uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `requests` against `catalog` on `min(workers, n)` threads
    /// and returns the replies **in submission order** plus the run's
    /// report. A request that panics costs exactly its own reply: it
    /// becomes a [`ServiceReply::Error`] carrying the panic message, and
    /// its worker carries on with a fresh [`QueryCtx`].
    pub fn serve<const D: usize>(
        &self,
        catalog: &IndexCatalog<D>,
        requests: Vec<ServiceRequest<D>>,
    ) -> (Vec<ServiceReply>, ServiceReport) {
        let start = Instant::now();
        let nanos = || start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let served = fan_out(
            self.workers.min(requests.len()),
            &requests,
            |request, ctx| {
                let reply = catch_unwind(AssertUnwindSafe(|| execute(catalog, request, ctx)))
                    .unwrap_or_else(|payload| {
                        // The context may hold half-built query state.
                        *ctx = QueryCtx::new();
                        ServiceReply::Error(panic_text(&*payload))
                    });
                (reply, nanos())
            },
        );
        let (replies, mut latencies): (Vec<_>, Vec<_>) = served.into_iter().unzip();
        latencies.sort_unstable();
        let report = ServiceReport {
            served: replies.len(),
            wall_nanos: nanos(),
            latencies,
        };
        (replies, report)
    }
}

/// The crate's one worker pool: `workers` scoped threads pull `items` off
/// a shared cursor, each with one reused [`QueryCtx`], and the outputs
/// come back in input order. With at most one worker the loop runs on the
/// calling thread and nothing is spawned.
///
/// `f` is expected not to unwind — [`QueryService::serve`] catches a panic
/// per request. A worker that unwinds anyway re-raises its own payload at
/// join.
fn fan_out<Q, T, F>(workers: usize, items: &[Q], f: F) -> Vec<T>
where
    Q: Sync,
    T: Send,
    F: Fn(&Q, &mut QueryCtx) -> T + Sync,
{
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut ctx = QueryCtx::new();
        let mut local = Vec::new();
        loop {
            // ordering: Relaxed suffices — the fetch_add itself hands out
            // each index exactly once, and the scope join publishes the
            // results.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            local.push((i, f(item, &mut ctx)));
        }
        local
    };
    let mut outputs = if workers <= 1 {
        drain()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    // The cursor hands out each index exactly once, so sorting by index
    // restores input order.
    outputs.sort_unstable_by_key(|&(i, _)| i);
    outputs.into_iter().map(|(_, out)| out).collect()
}

/// The message a panic was raised with, for an error reply. Takes the
/// payload itself (`&*boxed`): a `&Box<dyn Any>` is itself `Any` and would
/// downcast to neither string type.
fn panic_text(payload: &(dyn Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    match text {
        Some(text) => format!("query panicked: {text}"),
        None => "query panicked (non-string payload)".to_string(),
    }
}

fn execute<const D: usize>(
    catalog: &IndexCatalog<D>,
    request: &ServiceRequest<D>,
    ctx: &mut QueryCtx,
) -> ServiceReply {
    let (ServiceRequest::Range { index, .. } | ServiceRequest::TopK { index, .. }) = request;
    let Some(idx) = catalog.get(index) else {
        return ServiceReply::Error(format!("no index named {index:?} in the catalog"));
    };
    let reply = match request {
        ServiceRequest::Range { query, .. } => {
            idx.try_execute_with(query, ctx).map(ServiceReply::Range)
        }
        ServiceRequest::TopK { query, .. } => {
            idx.try_rank_topk_with(query, ctx).map(ServiceReply::TopK)
        }
    };
    reply.unwrap_or_else(|e| ServiceReply::Error(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Query;
    use crate::catalog::UCatalog;
    use crate::query::Refine;
    use rstar_base::TreeConfig;
    use uncertain_geom::{Point, Rect};
    use uncertain_pdf::{ObjectPdf, UncertainObject};

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("utree-service-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn object(id: u64, x: f64, y: f64) -> UncertainObject<2> {
        UncertainObject::new(
            id,
            ObjectPdf::UniformBall {
                center: Point::new([x, y]),
                radius: 6.0,
            },
        )
    }

    fn serving_catalog(name: &str) -> IndexCatalog<2> {
        let dir = temp_dir(name);
        let mut cat = IndexCatalog::create(&dir, 64).unwrap();
        cat.create_index("hot", UCatalog::uniform(10), TreeConfig::default(), 3)
            .unwrap();
        cat.create_index("cold", UCatalog::uniform(10), TreeConfig::default(), 2)
            .unwrap();
        for i in 0..120u64 {
            let obj = object(i, (i % 25) as f64 * 4.0, (i / 25) as f64 * 18.0);
            cat.get_mut("hot").unwrap().insert(&obj);
            cat.get_mut("cold").unwrap().insert(&object(
                1_000 + i,
                (i % 20) as f64 * 5.0,
                (i / 20) as f64 * 15.0,
            ));
        }
        cat.commit().unwrap();
        cat
    }

    fn range_req(index: &str, lo: f64, hi: f64, p: f64) -> ServiceRequest<2> {
        ServiceRequest::Range {
            index: index.to_string(),
            query: Query::range(Rect::new([lo, lo], [hi, hi]))
                .threshold(p)
                .refine(Refine::reference(1e-8))
                .build()
                .unwrap(),
        }
    }

    fn topk_req(index: &str, lo: f64, hi: f64, k: usize) -> ServiceRequest<2> {
        ServiceRequest::TopK {
            index: index.to_string(),
            query: Query::range(Rect::new([lo, lo], [hi, hi]))
                .top(k)
                .refine(Refine::monte_carlo(2_000, 7))
                .build()
                .unwrap(),
        }
    }

    /// Wall-clock stats (`*_nanos`) legitimately differ run to run;
    /// everything else must be byte-identical to a direct call.
    fn normalize(mut reply: ServiceReply) -> ServiceReply {
        match &mut reply {
            ServiceReply::Range(out) => {
                out.stats.filter_nanos = 0;
                out.stats.refine_nanos = 0;
            }
            ServiceReply::TopK(out) => {
                out.stats.filter_nanos = 0;
                out.stats.refine_nanos = 0;
            }
            ServiceReply::Error(_) => {}
        }
        reply
    }

    /// The request executed on the index itself, no service in between.
    fn direct(
        cat: &IndexCatalog<2>,
        request: &ServiceRequest<2>,
        ctx: &mut QueryCtx,
    ) -> ServiceReply {
        match request {
            ServiceRequest::Range { index, query } => ServiceReply::Range(
                cat.get(index)
                    .unwrap()
                    .try_execute_with(query, ctx)
                    .unwrap(),
            ),
            ServiceRequest::TopK { index, query } => ServiceReply::TopK(
                cat.get(index)
                    .unwrap()
                    .try_rank_topk_with(query, ctx)
                    .unwrap(),
            ),
        }
    }

    #[test]
    fn replies_match_direct_execution_in_submission_order() {
        let cat = serving_catalog("direct");
        let mut requests = Vec::new();
        for i in 0..40 {
            let lo = (i % 10) as f64 * 3.0;
            if i % 3 == 0 {
                requests.push(topk_req(
                    if i % 2 == 0 { "hot" } else { "cold" },
                    lo,
                    lo + 40.0,
                    5,
                ));
            } else {
                requests.push(range_req(
                    if i % 2 == 0 { "hot" } else { "cold" },
                    lo,
                    lo + 40.0,
                    0.3,
                ));
            }
        }

        let service = QueryService::new(4, 8);
        let (replies, report) = service.serve(&cat, requests.clone());
        assert_eq!(replies.len(), requests.len());
        assert_eq!(report.served, requests.len());

        let mut ctx = QueryCtx::new();
        for (request, reply) in requests.iter().zip(&replies) {
            let expected = direct(&cat, request, &mut ctx);
            assert_eq!(normalize(reply.clone()), normalize(expected));
        }
    }

    #[test]
    fn every_pool_shape_replies_like_direct_execution() {
        let cat = serving_catalog("shapes");
        let requests = [
            range_req("hot", 0.0, 40.0, 0.3),
            topk_req("cold", 5.0, 45.0, 4),
            range_req("cold", 10.0, 50.0, 0.3),
        ];
        let mut ctx = QueryCtx::new();
        // More workers than requests (capped at n), exactly one request
        // (inline, nothing spawned), one worker (inline, in order).
        for (workers, n) in [(8, 3), (8, 1), (1, 3)] {
            let requests = &requests[..n];
            let (replies, report) = QueryService::new(workers, 1).serve(&cat, requests.to_vec());
            assert_eq!((replies.len(), report.served), (n, n));
            for (request, reply) in requests.iter().zip(replies) {
                let expected = direct(&cat, request, &mut ctx);
                assert_eq!(normalize(reply), normalize(expected), "{workers} workers");
            }
        }
    }

    #[test]
    fn panic_text_carries_the_message_of_either_string_payload() {
        let caught = |f: fn()| std::panic::catch_unwind(f).unwrap_err();
        let text = panic_text(&*caught(|| panic!("static message")));
        assert!(text.contains("static message"), "{text}");
        let text = panic_text(&*caught(|| panic!("formatted {}", 7)));
        assert!(text.contains("formatted 7"), "{text}");
        let text = panic_text(&*caught(|| std::panic::panic_any(7u32)));
        assert!(!text.is_empty());
    }

    #[test]
    fn an_unknown_index_fails_alone_not_the_batch() {
        let cat = serving_catalog("unknown");
        let requests = vec![
            range_req("hot", 0.0, 60.0, 0.3),
            range_req("missing", 0.0, 60.0, 0.3),
            topk_req("cold", 0.0, 60.0, 3),
        ];
        let (replies, report) = QueryService::new(2, 2).serve(&cat, requests);
        assert!(matches!(replies[0], ServiceReply::Range(_)));
        let ServiceReply::Error(msg) = &replies[1] else {
            panic!("expected an error reply, got {:?}", replies[1]);
        };
        assert!(msg.contains("missing"), "unhelpful error: {msg}");
        assert!(matches!(replies[2], ServiceReply::TopK(_)));
        assert_eq!(report.served, 3);
    }

    #[test]
    fn the_report_accounts_for_every_request() {
        let cat = serving_catalog("report");
        let requests: Vec<_> = (0..30).map(|_| range_req("hot", 0.0, 50.0, 0.2)).collect();
        let (_, report) = QueryService::new(3, 7).serve(&cat, requests);
        assert_eq!(report.served, 30);
        assert!(report.queries_per_sec().is_finite());
        assert!(report.queries_per_sec() > 0.0);
        let p50 = report.p50_nanos().unwrap();
        let p99 = report.p99_nanos().unwrap();
        assert!(p50 <= p99, "p50 {p50} above p99 {p99}");
        assert!(report.percentile_nanos(100.0).unwrap() >= p99);
        for p in [f64::NAN, 0.0, 100.5] {
            assert_eq!(report.percentile_nanos(p), None, "percentile {p}");
        }
    }

    #[test]
    fn queries_per_sec_is_nan_on_empty_and_finite_otherwise() {
        let report = |served: usize, wall_nanos: u64| ServiceReport {
            served,
            wall_nanos,
            latencies: vec![wall_nanos; served],
        };
        assert!(report(0, 0).queries_per_sec().is_nan());
        assert!(report(0, 5_000).queries_per_sec().is_nan());
        // A sub-nanosecond wall reading must clamp, not divide to inf.
        assert_eq!(report(1, 0).queries_per_sec(), 1e9);
        assert_eq!(report(4, 2_000).queries_per_sec(), 2e6);
    }

    #[test]
    fn an_empty_run_reports_nan_qps_and_no_percentiles() {
        let cat = serving_catalog("empty");
        let (replies, report) = QueryService::new(2, 4).serve(&cat, Vec::new());
        assert!(replies.is_empty());
        assert_eq!(report.served, 0);
        assert!(report.queries_per_sec().is_nan());
        assert!(report.p50_nanos().is_none());
        assert!(report.p99_nanos().is_none());
    }
}
