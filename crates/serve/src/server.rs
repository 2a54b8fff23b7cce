//! What every replica of the serving loop shares: the request and
//! backend types, the per-replica [`ServerConfig`], the `serve.*`
//! metrics, and the helpers that turn a request's accounting timeline
//! into its span tree.
//!
//! The serving loop itself is [`crate::Fleet`]. A single server is a
//! one-replica fleet, `FleetConfig { server, replicas: 1, ..FleetConfig::default() }`:
//! one admission queue, one breaker, one health monitor, at most one
//! request on the backend at a time, with every decision a pure
//! function of the trace, the configuration and the armed fault plan.

use std::sync::{Arc, OnceLock};

use sc_health::HealthConfig;
use sc_telemetry::metrics::{counter, histogram, log2_bounds, Counter, Histogram};
use sc_telemetry::{BackendProfile, CycleCategory, SpanId, SpanTree, TraceId};

use crate::degrade::DegradePolicy;
use crate::queue::{Queued, ShedPolicy};
use crate::report::Segment;
use crate::retry::RetryPolicy;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Unique id; ties in every scheduling decision break on it.
    pub id: u64,
    /// Arrival tick on the virtual clock.
    pub arrival: u64,
    /// Absolute deadline tick; at `deadline` the request is dead.
    pub deadline: u64,
    /// Index of the payload (workload item) the backend should serve.
    pub payload: usize,
}

/// What a backend returns for one served request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendReply {
    /// The inference outputs (layer outputs or a predicted class).
    pub outputs: Vec<i64>,
    /// Data-dependent SC cycle count — the request's service time.
    pub cycles: u64,
    /// Where the cycles went, per layer and tile. When its total equals
    /// `cycles` the server grafts it into the request's span tree.
    pub profile: BackendProfile,
}

/// An inference backend the server fronts.
pub trait Backend {
    /// Number of distinct payloads this backend can serve
    /// (`Request::payload` must be below this).
    fn payloads(&self) -> usize;

    /// Serves one payload, optionally at a degraded precision
    /// (`effective_bits` = top `s` weight bits for the truncated-stream
    /// run; `None` = full precision).
    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error>;
}

/// Serving-layer tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Who gets shed when the queue is full.
    pub shed_policy: ShedPolicy,
    /// Retry/backoff policy.
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning.
    pub breaker: crate::breaker::BreakerConfig,
    /// Overload degradation ladder.
    pub degrade: DegradePolicy,
    /// Virtual ticks a failed backend call burns before the failure is
    /// detected (fault-detection latency).
    pub failure_ticks: u64,
    /// Seed mixed into every [`TraceId`] minted at admission; two runs
    /// with the same seed produce bitwise-identical trace ids.
    pub trace_seed: u64,
    /// Live health monitoring: windowed SLO evaluation whose verdict
    /// drives a degradation-tier *floor* on top of the occupancy ladder
    /// (disabled by default).
    pub health: HealthConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            shed_policy: ShedPolicy::RejectNewest,
            retry: RetryPolicy::default(),
            breaker: crate::breaker::BreakerConfig::default(),
            degrade: DegradePolicy::none(),
            failure_ticks: 64,
            trace_seed: 0,
            health: HealthConfig::disabled(),
        }
    }
}

pub(crate) struct ServeMetrics {
    pub(crate) admitted: Counter,
    pub(crate) shed: Counter,
    pub(crate) timeout: Counter,
    pub(crate) retry: Counter,
    pub(crate) completed: Counter,
    pub(crate) degraded: Counter,
    pub(crate) failed: Counter,
    pub(crate) breaker_final: Counter,
    pub(crate) latency: Arc<Histogram>,
    pub(crate) health_windows: Counter,
    pub(crate) health_breach: Counter,
    pub(crate) health_recover: Counter,
    pub(crate) health_incident: Counter,
    pub(crate) health_floor_raise: Counter,
}

pub(crate) fn metrics() -> &'static ServeMetrics {
    static M: OnceLock<ServeMetrics> = OnceLock::new();
    M.get_or_init(|| ServeMetrics {
        admitted: counter("serve.admitted"),
        shed: counter("serve.shed"),
        timeout: counter("serve.timeout"),
        retry: counter("serve.retry"),
        completed: counter("serve.completed"),
        degraded: counter("serve.degraded"),
        failed: counter("serve.failed"),
        breaker_final: counter("serve.breaker_open"),
        // Power-of-two buckets so the histogram supports nearest-rank
        // quantiles (p50/p90/p99) within a 2× bound.
        latency: histogram("serve.latency", &log2_bounds(24)),
        health_windows: counter("health.windows"),
        health_breach: counter("health.breach"),
        health_recover: counter("health.recover"),
        health_incident: counter("health.incident"),
        health_floor_raise: counter("health.floor_raise"),
    })
}

/// Closes the open wait interval `[marker, now)` on `entry` as a
/// [`Segment::Wait`], split at the backoff-gate expiry: the portion
/// before `not_before` was backoff, the rest dispatchable queue wait.
pub(crate) fn settle_wait(entry: &mut Queued, now: u64) {
    let start = entry.acct.marker;
    if now <= start {
        return;
    }
    let boundary = entry.not_before.clamp(start, now);
    entry.acct.segments.push(Segment::Wait { start, boundary, end: now });
    entry.acct.marker = now;
}

/// Replays a finalized request's accounting timeline into its causal
/// span tree. Segments are contiguous on the virtual clock by
/// construction, so the tree satisfies [`SpanTree::validate`]'s tiling
/// invariant and its attribution sums exactly to the request's latency.
pub(crate) fn build_trace(trace_seed: u64, entry: &Queued, now: u64) -> SpanTree {
    let trace = TraceId::derive(trace_seed, entry.req.id);
    let mut tree = SpanTree::new(
        trace,
        format!("request {}", entry.req.id),
        CycleCategory::Request,
        entry.req.arrival,
        now,
    );
    let root = tree.root().id;
    for seg in &entry.acct.segments {
        match seg {
            Segment::Wait { start, boundary, end } => {
                if boundary > start {
                    tree.add(root, "backoff", CycleCategory::BackoffWait, *start, *boundary);
                }
                if end > boundary {
                    tree.add(root, "queue wait", CycleCategory::QueueWait, *boundary, *end);
                }
            }
            Segment::Breaker { at } => {
                tree.add(root, "breaker reject", CycleCategory::Breaker, *at, *at);
            }
            Segment::Attempt { start, end, ok: false, .. } => {
                tree.add(root, "failed attempt", CycleCategory::FailureDetect, *start, *end);
            }
            Segment::Attempt { start, end, ok: true, profile } => {
                let svc = tree.add(root, "service", CycleCategory::Service, *start, *end);
                graft_profile(&mut tree, svc, profile.as_ref(), *start, *end);
            }
        }
    }
    tree
}

/// Lays the backend's layer/tile breakdown out contiguously inside the
/// service window when its total matches the window exactly; otherwise
/// (mock backends, the `.max(1)` service floor) bills the whole window
/// as one MAC-stream leaf so the tiling invariant still holds.
fn graft_profile(
    tree: &mut SpanTree,
    svc: SpanId,
    profile: Option<&BackendProfile>,
    start: u64,
    end: u64,
) {
    let matching = profile.filter(|p| p.cycles() == end - start && p.cycles() > 0);
    let Some(p) = matching else {
        if end > start {
            tree.add(svc, "mac stream", CycleCategory::MacStream, start, end);
        }
        return;
    };
    let mut cursor = start;
    for layer in &p.layers {
        let layer_end = cursor + layer.cycles();
        let lid = tree.add(svc, layer.name.clone(), CycleCategory::Layer, cursor, layer_end);
        let mut tile_cursor = cursor;
        for (i, t) in layer.tiles.iter().enumerate() {
            let tile_end = tile_cursor + t.cycles();
            let tid =
                tree.add(lid, format!("tile {i}"), CycleCategory::Tile, tile_cursor, tile_end);
            let mut c = tile_cursor;
            if t.compute > 0 {
                tree.add(tid, "mac stream", CycleCategory::MacStream, c, c + t.compute);
                c += t.compute;
            }
            if t.verify > 0 {
                tree.add(tid, "dmr verify", CycleCategory::DmrVerify, c, c + t.verify);
                c += t.verify;
            }
            if t.recompute > 0 {
                tree.add(tid, "edt recompute", CycleCategory::EdtRecompute, c, c + t.recompute);
            }
            tile_cursor = tile_end;
        }
        cursor = layer_end;
    }
}

#[cfg(test)]
mod tests {
    //! The single-server workloads, served by a one-replica
    //! [`Fleet`]. Each test also asserts [`digest`] against the value the
    //! dedicated single-server loop produced on the same workload before
    //! it was folded into the fleet, so these are the bitwise evidence
    //! that a one-replica fleet *is* that server.

    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::degrade::DegradeTier;
    use crate::fleet::{Fleet, FleetConfig, FleetReport};
    use crate::report::Outcome;
    use sc_fault::{scoped, FaultPlan};

    /// Fixed-service-time backend that fails its first `fail_first`
    /// calls, and serves degraded requests proportionally faster.
    struct MockBackend {
        cycles: u64,
        fail_first: u32,
        calls: u32,
    }

    impl MockBackend {
        fn healthy(cycles: u64) -> Self {
            MockBackend { cycles, fail_first: 0, calls: 0 }
        }
    }

    impl Backend for MockBackend {
        fn payloads(&self) -> usize {
            4
        }

        fn serve(
            &mut self,
            payload: usize,
            effective_bits: Option<u32>,
        ) -> Result<BackendReply, sc_core::Error> {
            self.calls += 1;
            if self.calls <= self.fail_first {
                return Err(sc_core::Error::RetryExhausted {
                    what: format!("payload {payload}"),
                    attempts: 1,
                });
            }
            let cycles = match effective_bits {
                Some(s) => self.cycles >> (8 - s.min(8)),
                None => self.cycles,
            };
            Ok(BackendReply {
                outputs: vec![payload as i64],
                cycles,
                profile: BackendProfile::default(),
            })
        }
    }

    fn trace(n: u64, spacing: u64, deadline: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: i,
                arrival: i * spacing,
                deadline: i * spacing + deadline,
                payload: (i % 4) as usize,
            })
            .collect()
    }

    /// Serves `requests` through a one-replica fleet under an empty
    /// scoped fault plan (concurrent chaos tests cannot leak in).
    fn serve(config: ServerConfig, backend: MockBackend, requests: Vec<Request>) -> FleetReport {
        let _guard = scoped(FaultPlan::parse("").unwrap());
        let fleet =
            Fleet::new(FleetConfig { server: config, replicas: 1, ..FleetConfig::default() });
        fleet.run(&mut [Box::new(backend) as Box<dyn Backend>], requests)
    }

    /// FNV digest over a one-replica report's aggregates, every response
    /// and every span tree, in the word order the single-server report
    /// fingerprinted them (health excluded).
    fn digest(r: &FleetReport) -> u64 {
        let mut fp = vec![
            r.shed,
            r.timed_out,
            r.breaker_rejected,
            r.failed,
            r.retries,
            r.shards[0].breaker_trips,
            r.max_queue_depth as u64,
            r.horizon,
        ];
        fp.extend(&r.completed_by_tier);
        for resp in &r.responses {
            let tier = match resp.outcome {
                Outcome::Completed { tier } => tier as u64,
                _ => u64::MAX,
            };
            fp.extend([
                resp.id,
                resp.outcome.code(),
                tier,
                resp.attempts as u64,
                resp.finished_at,
                resp.latency,
            ]);
            fp.extend(resp.attribution.fingerprint());
        }
        for t in &r.traces {
            fp.extend(t.fingerprint());
        }
        sc_health::slo::digest(&fp)
    }

    #[test]
    fn underloaded_server_completes_everything_at_full_precision() {
        let report =
            serve(ServerConfig::default(), MockBackend::healthy(100), trace(10, 200, 1_000));
        assert_eq!(digest(&report), 0xd6cc8620a13ad893);
        assert_eq!(report.completed(), 10);
        assert_eq!(report.degraded(), 0);
        assert_eq!(report.shed + report.timed_out + report.failed, 0);
        // Service is 100 ticks and arrivals are 200 apart: zero queueing.
        assert_eq!(report.latency_percentile(100.0), 100);
        assert_eq!(report.max_queue_depth, 1);
    }

    #[test]
    fn run_is_bitwise_reproducible() {
        let config = ServerConfig {
            queue_capacity: 4,
            shed_policy: ShedPolicy::ShedByDeadline,
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.5, effective_bits: 4 }]),
            ..ServerConfig::default()
        };
        let a = serve(config.clone(), MockBackend::healthy(300), trace(40, 50, 900));
        let b = serve(config, MockBackend::healthy(300), trace(40, 50, 900));
        assert_eq!(digest(&a), 0xd2e6bddd669aa3aa);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.responses.len(), 40, "every request finalized exactly once");
    }

    #[test]
    fn overload_sheds_and_degrades_instead_of_queueing_unboundedly() {
        let config = ServerConfig {
            queue_capacity: 8,
            shed_policy: ShedPolicy::RejectNewest,
            degrade: DegradePolicy::new(vec![
                DegradeTier { occupancy: 0.5, effective_bits: 6 },
                DegradeTier { occupancy: 0.875, effective_bits: 4 },
            ]),
            ..ServerConfig::default()
        };
        // Service 400 ≫ inter-arrival 20: heavy overload.
        let report = serve(config, MockBackend::healthy(400), trace(100, 20, 4_000));
        assert_eq!(digest(&report), 0xcec0e75a6dc273ef);
        assert_eq!(report.responses.len(), 100);
        assert!(report.shed > 0, "full queue must shed");
        assert!(report.degraded() > 0, "deep queue must downshift quality");
        assert!(report.max_queue_depth <= 8, "queue growth is bounded");
    }

    #[test]
    fn transient_backend_failures_are_retried_to_success() {
        let config = ServerConfig {
            retry: RetryPolicy { max_attempts: 4, base: 32, cap: 128, seed: 9 },
            failure_ticks: 8,
            ..ServerConfig::default()
        };
        let backend = MockBackend { cycles: 50, fail_first: 2, calls: 0 };
        let report = serve(
            config,
            backend,
            vec![Request { id: 0, arrival: 0, deadline: 5_000, payload: 0 }],
        );
        assert_eq!(digest(&report), 0x70ee1479581c4775);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.retries, 2);
        assert_eq!(report.responses[0].attempts, 3);
        assert_eq!(report.shards[0].breaker_trips, 0, "two failures stay under the threshold");
    }

    #[test]
    fn dead_backend_trips_the_breaker_and_fails_fast() {
        let config = ServerConfig {
            retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 1 },
            breaker: BreakerConfig { failure_threshold: 3, cooldown: 10_000 },
            failure_ticks: 8,
            ..ServerConfig::default()
        };
        let backend = MockBackend { cycles: 50, fail_first: u32::MAX, calls: 0 };
        let report = serve(config, backend, trace(20, 10, 50_000));
        assert_eq!(digest(&report), 0xdddc3741b8b5aec0);
        assert_eq!(report.completed(), 0);
        assert!(report.shards[0].breaker_trips >= 1);
        assert!(
            report.breaker_rejected > 0,
            "after the trip, requests fail fast without touching the backend"
        );
        // The breaker bounds backend calls: without it every request
        // would burn its whole retry budget against the dead backend.
        // With no fault site armed, every dispatch is one backend call.
        let calls = report.shards[0].dispatched;
        assert!(calls < 3 * 20, "breaker saved backend calls: {calls}");
        assert_eq!(report.responses.len(), 20);
    }

    #[test]
    fn every_response_carries_an_exactly_attributed_span_tree() {
        let config = ServerConfig {
            queue_capacity: 4,
            shed_policy: ShedPolicy::ShedByDeadline,
            retry: RetryPolicy { max_attempts: 3, base: 16, cap: 64, seed: 5 },
            failure_ticks: 8,
            trace_seed: 42,
            ..ServerConfig::default()
        };
        // Overloaded + flaky: the trees must cover queue wait, backoff,
        // failed attempts, and service windows.
        let backend = MockBackend { cycles: 300, fail_first: 3, calls: 0 };
        let report = serve(config, backend, trace(30, 40, 2_000));
        assert_eq!(digest(&report), 0x86568ad66fb26752);
        assert_eq!(report.traces.len(), report.responses.len());
        for (r, t) in report.responses.iter().zip(&report.traces) {
            t.validate().expect("well-formed span tree");
            assert_eq!(t.trace_id(), TraceId::derive(42, r.id), "trace ids are pure functions");
            assert_eq!(t.attribution(), r.attribution);
            assert_eq!(
                r.attribution.total(),
                r.latency,
                "request {}: every latency cycle must be attributed exactly once",
                r.id
            );
        }
        assert!(report.retries > 0, "the workload must exercise the retry path");
    }

    #[test]
    fn slow_service_past_the_deadline_times_out() {
        let report = serve(
            ServerConfig::default(),
            MockBackend::healthy(500),
            vec![Request { id: 0, arrival: 0, deadline: 100, payload: 0 }],
        );
        assert_eq!(digest(&report), 0x7a4aa90ce3815051);
        assert_eq!(report.timed_out, 1);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.responses[0].finished_at, 500);
    }

    #[test]
    fn health_monitoring_reports_green_on_a_healthy_run() {
        let config = ServerConfig {
            health: sc_health::HealthConfig::with_objectives(
                1_000,
                vec![
                    sc_health::Objective::goodput("goodput", 0.9).with_spans(2, 4),
                    sc_health::Objective::error_rate("errors", 0.05).with_spans(2, 4),
                ],
            ),
            ..ServerConfig::default()
        };
        let report = serve(config, MockBackend::healthy(100), trace(20, 200, 2_000));
        assert_eq!(digest(&report), 0x27e4d986028cb2c3);
        let health = report.shards[0].health.as_ref().expect("monitoring was enabled");
        assert_eq!(health.digest(), 0xcd44138b498e73f0);
        assert_eq!(health.breaches(), 0);
        assert_eq!(health.incidents.len(), 0);
        assert_eq!(health.verdict(), sc_health::Verdict::Green);
        assert!(health.closed_windows() >= 3, "the run spans several windows");
        assert!(health.transitions.is_empty(), "no verdict-driven tier moves on a green run");
        // Every completion landed in some window.
        assert_eq!(health.series.iter().map(|w| w.completed).sum::<u64>(), 20);
        assert_eq!(health.time_in_tier.iter().sum::<u64>(), health.horizon);
    }

    #[test]
    fn slo_breach_floors_the_degradation_tier_until_recovery() {
        // Dead-then-healed backend: errors breach the SLO early, and the
        // verdict-driven floor must degrade dispatches even though the
        // queue never crosses the 90% occupancy threshold.
        let config = ServerConfig {
            queue_capacity: 64,
            retry: RetryPolicy { max_attempts: 1, base: 16, cap: 64, seed: 3 },
            breaker: BreakerConfig { failure_threshold: 1_000, cooldown: 1_000 },
            degrade: DegradePolicy::new(vec![DegradeTier { occupancy: 0.9, effective_bits: 4 }]),
            failure_ticks: 40,
            health: sc_health::HealthConfig::with_objectives(
                500,
                vec![sc_health::Objective::error_rate("errors", 0.05)
                    .with_spans(1, 2)
                    .with_recovery(2)],
            ),
            ..ServerConfig::default()
        };
        let backend = MockBackend { cycles: 100, fail_first: 25, calls: 0 };
        let report = serve(config, backend, trace(60, 50, 20_000));
        assert_eq!(digest(&report), 0x081ca3d875b4b22e);
        let health = report.shards[0].health.as_ref().expect("monitoring was enabled");
        assert_eq!(health.digest(), 0x87845e1d7dcefc85);
        assert!(health.breaches() >= 1, "the failure storm must breach the error SLO");
        assert_eq!(health.incidents.len() as u64, health.breaches().min(8));
        let first = &health.transitions[0];
        assert_eq!((first.from, first.to), (0, 1), "breach raises the floor");
        assert!(
            health.transitions.iter().any(|t| t.to < t.from),
            "sustained green clears the floor again"
        );
        assert!(
            report.degraded() > 0,
            "floored dispatches are served at tier 1 despite a shallow queue"
        );
        assert!(report.max_queue_depth < 58, "occupancy alone never reaches the 90% tier");
        // The incident captures the serving-side state at breach time.
        let inc = &health.incidents[0];
        assert_eq!(inc.objective, "errors");
        assert!(!inc.windows.is_empty() && !inc.spans.is_empty());
    }

    #[test]
    fn health_reports_are_bitwise_reproducible() {
        let run = || {
            let config = ServerConfig {
                retry: RetryPolicy { max_attempts: 2, base: 16, cap: 64, seed: 7 },
                failure_ticks: 32,
                health: sc_health::HealthConfig::with_objectives(
                    750,
                    vec![
                        sc_health::Objective::goodput("goodput", 0.7).with_spans(1, 3),
                        sc_health::Objective::p99("latency", 4_000).with_spans(2, 4),
                    ],
                ),
                ..ServerConfig::default()
            };
            let backend = MockBackend { cycles: 150, fail_first: 10, calls: 0 };
            serve(config, backend, trace(50, 60, 5_000))
        };
        let (a, b) = (run(), run());
        assert_eq!(digest(&a), 0xbbb683ec1f4e93b6);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let (ha, hb) = (a.shards[0].health.as_ref().unwrap(), b.shards[0].health.as_ref().unwrap());
        assert_eq!(ha.digest(), hb.digest());
        // Pinned from the single-server loop with its breaker-trip
        // flight-recorder note relabelled `trips=N` -> `replica=0 trips=N`,
        // the only difference a one-replica fleet makes to this report.
        assert_eq!(ha.digest(), 0x3d1ef9d7006dc833);
        assert_eq!(ha.fingerprint(), hb.fingerprint());
    }

    #[test]
    fn fingerprint_covers_responses() {
        let request = Request { id: 1, arrival: 0, deadline: 100, payload: 0 };
        let mut report = serve(ServerConfig::default(), MockBackend::healthy(10), vec![request]);
        let fp = report.fingerprint();
        report.responses[0].latency = 11;
        assert_ne!(fp, report.fingerprint());
    }

    #[test]
    fn queued_requests_past_their_deadline_expire_on_time() {
        // Request 1 arrives while 0 occupies the backend and its
        // deadline passes before the backend frees up.
        let report = serve(
            ServerConfig::default(),
            MockBackend::healthy(1_000),
            vec![
                Request { id: 0, arrival: 0, deadline: 10_000, payload: 0 },
                Request { id: 1, arrival: 10, deadline: 400, payload: 1 },
            ],
        );
        assert_eq!(digest(&report), 0xdbd76085ec7c2d44);
        let r1 = report.responses.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(r1.outcome, Outcome::TimedOut);
        assert_eq!(r1.finished_at, 400, "expiry fires at the deadline tick, not later");
        assert_eq!(report.completed(), 1);
    }
}
