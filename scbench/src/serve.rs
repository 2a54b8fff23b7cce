//! `serve-storm`: a seed-generated open-loop trace with periodic flash
//! crowds replayed through serving fleets on the virtual clock, in five
//! segments — 4 replicas at rates below, at and above their capacity
//! (hedging, shard and fleet health monitors on), 1 replica, and 4
//! replicas under rolling restarts. Every report's event records are
//! ingested into an observability log.
//!
//! The traffic has the shape of the repository's observability storm
//! (`obs_storms` in `crates/bench/src/bin/serve_storm.rs`): the same
//! 64-payload heavy-tailed cost table and the same flash crowds, 40
//! requests on one tick opening every block of 250. The backend costs
//! nanoseconds, so almost all host time is spent in sc-serve, sc-health
//! and sc-telemetry.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use sc_health::HealthReport;
use sc_serve::{
    Backend, BackendReply, BreakerConfig, DegradePolicy, DegradeTier, Fleet, FleetConfig,
    FleetReport, HealthConfig, HedgePolicy, Objective, PlannedRestart, RecoveryPolicy, Request,
    RetryPolicy, ServerConfig, ShedPolicy,
};
use sc_telemetry::{BackendProfile, ObsConfig, ObsLog, TileProfile, TraceId};

use crate::metrics::digest;
use crate::trace::Tracer;
use crate::Round;

/// Round size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Requests per segment.
    pub requests: usize,
}

/// The benchmark's size.
pub const FULL: Size = Size { requests: 30_000 };
/// The self-tests' size.
pub const SMALL: Size = Size { requests: 600 };

const N_BITS: u32 = 8;
const REPLICAS: usize = 4;
const TRACE_SEED: u64 = 0xACE5;
/// The observability storm's seed, which draws its cost table.
const OBS_SEED: u64 = 0x0B5_EED;
/// Cost table of the observability storm: `BASE << k` cycles, `k` the
/// trailing zeros of a draw capped at `MAX_SHIFT`, so a few payloads cost
/// 256× the cheap ones.
const PAYLOADS: u64 = 64;
const BASE: u64 = 64;
const MAX_SHIFT: u32 = 8;
/// Request deadline, in ticks: twice the costliest payload of the table
/// (8192 cycles), so a request that finds its replica idle meets it.
const DEADLINE: u64 = 16_384;
/// Flash crowd: every `BLOCK` requests, the first `CROWD` arrive on one
/// tick.
const BLOCK: usize = 250;
const CROWD: usize = 40;

/// The segments: name, replicas, arrival rate as a fraction
/// (`num / den`) of the 4-replica capacity — below, at and above it —
/// rolling restarts on or off.
const SEGMENTS: [(&str, usize, u64, u64, bool); 5] = [
    ("rate-lo", REPLICAS, 1, 2, false),
    ("rate-mid", REPLICAS, 1, 1, false),
    ("rate-hi", REPLICAS, 3, 2, false),
    ("x1", 1, 1, 2, false),
    ("restart", REPLICAS, 1, 2, true),
];
const GOODPUT: [&str; 5] = [
    "serve.rate-lo.goodput",
    "serve.rate-mid.goodput",
    "serve.rate-hi.goodput",
    "serve.x1.goodput",
    "serve.restart.goodput",
];
const P99: [&str; 5] = [
    "serve.rate-lo.p99_cycles",
    "serve.rate-mid.p99_cycles",
    "serve.rate-hi.p99_cycles",
    "serve.x1.p99_cycles",
    "serve.restart.p99_cycles",
];

/// Full-precision cycles of each payload, as the observability storm's
/// `HeavyTailBackend::new(OBS_SEED, 64, 64)` draws them.
fn payload_costs() -> Vec<u64> {
    (0..PAYLOADS)
        .map(|i| BASE << TraceId::derive(OBS_SEED, i).0.trailing_zeros().min(MAX_SHIFT))
        .collect()
}

/// Open-loop arrivals at `rate` of the fleet's capacity, with a flash
/// crowd opening every block. Each run of 64 requests asks for every
/// payload once, so every seed sees the table's cost mix; the seed draws
/// the order and the gaps between arrivals.
fn arrivals(seed: u64, size: &Size, mean_cost: f64, rate: f64) -> Vec<Request> {
    let spacing = mean_cost / (REPLICAS as f64 * rate);
    // The crowd's share of each block arrives at once, so the rest are
    // spread to keep the block's mean rate.
    let spread = spacing * BLOCK as f64 / (BLOCK - CROWD) as f64;
    let mut t = 0.0f64;
    let mut order: Vec<usize> = (0..PAYLOADS as usize).collect();
    (0..size.requests as u64)
        .map(|id| {
            let draw = TraceId::derive(seed, id).0;
            let in_run = (id % PAYLOADS) as usize;
            if in_run == 0 {
                // Fisher-Yates over the next run of payloads.
                for i in (1..order.len()).rev() {
                    let j =
                        (TraceId::derive(seed ^ 0x5F1E, id + i as u64).0 % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
            }
            let in_block = id as usize % BLOCK;
            if in_block == 0 || in_block >= CROWD {
                t += spread * (0.5 + (draw >> 11) as f64 / (1u64 << 53) as f64);
            }
            let arrival = t as u64;
            Request { id, arrival, deadline: arrival + DEADLINE, payload: order[in_run] }
        })
        .collect()
}

/// The synthetic backend: a payload costs its full-precision cycles,
/// scaled by `effective_bits / N` on degraded tiers — the observability
/// storm's `HeavyTailBackend`, which lives in a binary and so cannot be
/// imported.
#[derive(Clone)]
struct CostBackend {
    costs: Rc<[u64]>,
}

impl Backend for CostBackend {
    fn payloads(&self) -> usize {
        self.costs.len()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let full = self.costs[payload];
        let bits = u64::from(effective_bits.unwrap_or(N_BITS).min(N_BITS));
        let cycles = (full * bits / u64::from(N_BITS)).max(1);
        let profile = BackendProfile::single_layer(
            "synth",
            vec![TileProfile {
                compute: cycles,
                verify: 0,
                recompute: 0,
                edt_saved: full - cycles,
            }],
        );
        Ok(BackendReply { outputs: vec![payload as i64, cycles as i64], cycles, profile })
    }
}

/// A timing wrapper around the backend for traced rounds: each call's
/// start and end, in ns against the round's tracer clock.
struct TimedBackend {
    inner: CostBackend,
    origin: Instant,
    calls: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl Backend for TimedBackend {
    fn payloads(&self) -> usize {
        self.inner.payloads()
    }

    fn serve(
        &mut self,
        payload: usize,
        effective_bits: Option<u32>,
    ) -> Result<BackendReply, sc_core::Error> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let reply = self.inner.serve(payload, effective_bits);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls.borrow_mut().push((start, end));
        reply
    }
}

/// Everything one segment needs, built at set-up.
struct Segment {
    fleet: Fleet,
    backends: Vec<Box<dyn Backend>>,
    /// Moved into `Fleet::run`.
    requests: Vec<Request>,
    /// Kept to derive the event records.
    trace: Vec<Request>,
    obs: usize,
}

fn fleet_config(
    replicas: usize,
    costs: &[u64],
    mean_cost: u64,
    recovery: Option<RecoveryPolicy>,
) -> FleetConfig {
    let window = 16 * mean_cost;
    let shard_slos = vec![
        Objective::error_rate("error-rate", 0.02).with_spans(2, 6).with_recovery(3),
        Objective::p99("p99", DEADLINE).with_spans(2, 6).with_recovery(3),
    ];
    let fleet_slos = vec![
        Objective::goodput("fleet-goodput", 0.9).with_spans(2, 6).with_recovery(3),
        Objective::p99("fleet-p99", DEADLINE).with_spans(2, 6).with_recovery(3),
    ];
    FleetConfig {
        server: ServerConfig {
            queue_capacity: 64,
            shed_policy: ShedPolicy::ShedByDeadline,
            retry: RetryPolicy { max_attempts: 3, base: 256, cap: 4096, seed: 0x5EED },
            breaker: BreakerConfig { failure_threshold: 4, cooldown: 8192 },
            degrade: DegradePolicy::new(vec![
                DegradeTier { occupancy: 0.5, effective_bits: 6 },
                DegradeTier { occupancy: 0.75, effective_bits: 4 },
                DegradeTier { occupancy: 0.9, effective_bits: 2 },
            ]),
            failure_ticks: 64,
            trace_seed: TRACE_SEED,
            health: HealthConfig::with_objectives(window, shard_slos),
        },
        replicas,
        placement_seed: 0xF1EE7,
        hedge: Some(HedgePolicy { numerator: 3, denominator: 2, min_delay: mean_cost / 4 }),
        estimates: costs.to_vec(),
        fleet_health: HealthConfig::with_objectives(window, fleet_slos),
        flap_epoch: window,
        brownout_factor: 4,
        recovery,
        keep_traces: false,
    }
}

/// One `serve-storm` round.
pub fn round(seed: u64, size: &Size, traced: bool) -> Round {
    let mut tr = Tracer::new(traced);

    // Set-up: cost table, arrival traces, fleets and backends.
    let t0 = Instant::now();
    let setup = tr.enter("setup", 0);
    let open = tr.enter("serve.fleet_setup", 0);
    let costs: Rc<[u64]> = payload_costs().into();
    let mean_cost = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
    let calls = Rc::new(RefCell::new(Vec::new()));
    let mut obs = ObsLog::new("scbench", ObsConfig::new(16 * mean_cost as u64, seed));
    let mut segments: Vec<Segment> = SEGMENTS
        .iter()
        .map(|&(name, replicas, num, den, restarts)| {
            let trace = arrivals(seed, size, mean_cost, num as f64 / den as f64);
            let recovery = restarts.then(|| {
                let horizon = trace.last().map_or(1, |r| r.arrival);
                let step = horizon / (REPLICAS as u64 + 1);
                RecoveryPolicy {
                    base: (mean_cost as u64 / 4).max(1),
                    cap: 2 * mean_cost as u64,
                    probation_window: 16 * mean_cost as u64,
                    probation_buckets: vec![5, 11],
                    probation_tier: 1,
                    restarts: (0..REPLICAS)
                        .map(|r| PlannedRestart { at: (r as u64 + 1) * step, replica: r })
                        .collect(),
                    ..RecoveryPolicy::default()
                }
            });
            let config = fleet_config(replicas, &costs, mean_cost as u64, recovery);
            let backends = (0..replicas)
                .map(|_| {
                    let inner = CostBackend { costs: Rc::clone(&costs) };
                    if traced {
                        Box::new(TimedBackend {
                            inner,
                            origin: tr.origin(),
                            calls: Rc::clone(&calls),
                        }) as Box<dyn Backend>
                    } else {
                        Box::new(inner) as Box<dyn Backend>
                    }
                })
                .collect();
            Segment {
                fleet: Fleet::try_new(config).expect("valid fleet config"),
                backends,
                requests: trace.clone(),
                trace,
                obs: obs.scenario(name, "", replicas as u64),
            }
        })
        .collect();
    tr.exit(open);
    tr.exit(setup);
    let setup_s = t0.elapsed().as_secs_f64();

    // Work: replay every segment and stream its events into the log.
    let t1 = Instant::now();
    let work = tr.enter("work", 0);
    let mut reports = Vec::with_capacity(segments.len());
    for (i, seg) in segments.iter_mut().enumerate() {
        let open = tr.enter("serve.fleet_run", i as u64);
        let report = seg.fleet.run(&mut seg.backends, std::mem::take(&mut seg.requests));
        for (j, (start, end)) in calls.borrow_mut().drain(..).enumerate() {
            tr.record("serve.backend", start, end, (i as u64) << 32 | j as u64);
        }
        tr.exit(open);
        let open = tr.enter("telemetry.event_records", i as u64);
        let records = report.event_records(TRACE_SEED, &seg.trace);
        tr.exit(open);
        let open = tr.enter("telemetry.obs_ingest", i as u64);
        obs.ingest(seg.obs, &records);
        obs.fold(seg.obs, &report.folded);
        tr.exit(open);
        reports.push(report);
    }
    tr.exit(work);
    let work_s = t1.elapsed().as_secs_f64();

    // Untimed: checks and metrics.
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (seg, report) in segments.iter().zip(&reports) {
        let (a, f) = check(report, &seg.trace);
        attempted += a;
        failed += f;
    }
    let requests: u64 = reports.iter().map(|r| r.responses.len() as u64).sum();
    let completed: u64 = reports.iter().map(FleetReport::completed).sum();
    let latency: u64 = reports
        .iter()
        .flat_map(|r| &r.responses)
        .filter(|r| matches!(r.outcome, sc_serve::Outcome::Completed { .. }))
        .map(|r| r.latency)
        .sum();
    let sum = |f: fn(&FleetReport) -> u64| reports.iter().map(f).sum::<u64>();
    let not_served = sum(|r| r.shed + r.timed_out + r.breaker_rejected + r.failed);
    let goodput = |r: &FleetReport| r.completed() as f64 / r.responses.len() as f64;
    let p99 = |r: &FleetReport| r.latency_percentile(99.0);
    // The highest of the three 4-replica rates that keeps p99 within the
    // deadline slack and fails at most 1% of requests.
    let max_rate = SEGMENTS[..3]
        .iter()
        .zip(&reports)
        .filter(|(_, r)| 1.0 - goodput(r) <= 0.01 && p99(r) <= DEADLINE)
        .map(|(s, _)| s.2 as f64 / s.3 as f64)
        .fold(0.0, f64::max);
    let healths: Vec<&HealthReport> = reports
        .iter()
        .flat_map(|r| r.shards.iter().filter_map(|s| s.health.as_ref()).chain(r.health.as_ref()))
        .collect();
    let restart = &reports[4].recovery;

    let mut layers: Vec<(&'static str, f64)> = vec![
        ("serve.attempts_per_request", {
            let attempts: u64 =
                reports.iter().flat_map(|r| &r.responses).map(|r| u64::from(r.attempts)).sum();
            attempts as f64 / requests as f64
        }),
        (
            "serve.hedge_win_ratio",
            sum(|r| r.hedges_won) as f64 / sum(|r| r.hedges_launched).max(1) as f64,
        ),
        ("serve.retries", sum(|r| r.retries) as f64),
        ("serve.failovers", sum(|r| r.failovers) as f64),
        ("serve.shed", sum(|r| r.shed) as f64),
        ("serve.timed_out", sum(|r| r.timed_out) as f64),
        ("serve.degraded_frac", sum(FleetReport::degraded) as f64 / completed.max(1) as f64),
        (
            "serve.max_queue_depth",
            reports.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        ),
        ("serve.recovery.rejoins", restart.rejoins as f64),
        ("serve.recovery.replays", (restart.replayed_inflight + restart.replayed_queued) as f64),
        ("serve.failed_frac", not_served as f64 / requests as f64),
        ("serve.sim_max_rate", max_rate),
        ("health.windows", healths.iter().map(|h| h.closed_windows()).sum::<u64>() as f64),
        ("health.breaches", healths.iter().map(|h| h.breaches()).sum::<u64>() as f64),
    ];
    for (i, r) in reports.iter().enumerate() {
        layers.push((GOODPUT[i], goodput(r)));
        layers.push((P99[i], p99(r) as f64));
    }
    if traced {
        let run_ns = tr.total_ns("serve.fleet_run");
        let backend_ns = tr.total_ns("serve.backend");
        let backend_calls = tr.spans().iter().filter(|s| s.name == "serve.backend").count();
        let per_request = |ns: u64| ns as f64 / requests as f64;
        layers.push(("serve.fleet_self_ns_per_request", per_request(run_ns - backend_ns)));
        layers.push(("serve.backend_ns_per_call", backend_ns as f64 / backend_calls.max(1) as f64));
        layers.push((
            "telemetry.event_records_ns_per_request",
            per_request(tr.total_ns("telemetry.event_records")),
        ));
        layers.push((
            "telemetry.obs_ingest_ns_per_request",
            per_request(tr.total_ns("telemetry.obs_ingest")),
        ));
    }

    let mut fingerprint: Vec<u64> = reports.iter().map(|r| digest(r.fingerprint())).collect();
    for seg in &segments {
        let s = obs.summary(seg.obs);
        fingerprint.extend([
            s.requests,
            s.completed,
            s.goodput.to_bits(),
            s.p99,
            s.max_latency,
            s.windows,
        ]);
    }
    Round {
        setup_s,
        work_s,
        items: requests,
        exact: vec![
            ("quality", completed as f64 / requests as f64),
            ("sim_cycles", latency as f64 / completed.max(1) as f64),
            ("sim_p99_cycles", p99(&reports[1]) as f64),
        ],
        fingerprint,
        attempted,
        failed,
        layers,
        tracer: tr,
    }
}

/// Every request is finalized exactly once, and every response's cycle
/// attribution satisfies `total == latency + concurrent_total`. Returns
/// (checks made, checks failed).
fn check(report: &FleetReport, trace: &[Request]) -> (u64, u64) {
    let mut seen = vec![0u32; trace.len()];
    let mut failed = u64::from(report.responses.len() != trace.len());
    for r in &report.responses {
        match seen.get_mut(r.id as usize) {
            Some(n) => *n += 1,
            None => failed += 1,
        }
        let a = &r.attribution;
        failed += u64::from(a.total() != r.latency + a.concurrent_total());
    }
    failed += seen.iter().filter(|&&n| n != 1).count() as u64;
    (1 + report.responses.len() as u64 + trace.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cost table is the observability storm's: mean 400 cycles,
    /// a 128× range, and the deadline twice its costliest payload.
    #[test]
    fn cost_table_and_deadline() {
        let costs = payload_costs();
        assert_eq!(costs.iter().sum::<u64>(), 400 * PAYLOADS);
        assert_eq!(costs.iter().min(), Some(&BASE));
        assert_eq!(costs.iter().max().map(|m| 2 * m), Some(DEADLINE));
    }
}
