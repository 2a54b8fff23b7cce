//! Per-request outcome accounting shared by every replica.
//!
//! The serving loop ([`crate::Fleet`]) finalizes every request exactly
//! once into a [`Response`]: its terminal [`Outcome`], attempts, virtual
//! latency and [`CycleAttribution`]. The attribution is derived from the
//! [`RequestAcct`] timeline of [`Segment`]s the loop keeps per request,
//! replayed into the request's [`sc_telemetry::SpanTree`] at
//! finalization. [`crate::FleetReport`] aggregates the responses.

use sc_telemetry::{BackendProfile, CycleAttribution};

/// One accounted slice of a request's lifetime, recorded by the serving
/// loop as events happen and replayed into a [`sc_telemetry::SpanTree`]
/// at finalization. Segments are contiguous on the virtual clock by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Time spent waiting in the admission queue: backoff gate first
    /// (`[start, boundary)`), then dispatchable queue wait
    /// (`[boundary, end)`). Either half may be empty.
    Wait {
        /// First waiting tick.
        start: u64,
        /// Backoff-gate expiry, clamped into `[start, end]`.
        boundary: u64,
        /// Tick the wait ended (dispatch, expiry, or shed).
        end: u64,
    },
    /// One backend occupation window: a successful service window
    /// (`ok`) or a failed attempt burning its fault-detection latency.
    Attempt {
        /// Dispatch tick.
        start: u64,
        /// Completion / failure-detection tick.
        end: u64,
        /// Whether the backend call succeeded.
        ok: bool,
        /// The backend's cycle breakdown, when the call produced one.
        profile: Option<BackendProfile>,
    },
    /// A circuit-breaker fail-fast decision (instantaneous).
    Breaker {
        /// The decision tick.
        at: u64,
    },
}

/// The per-request timeline the serving loop accumulates while a request is
/// alive: the last accounted tick plus the closed segments so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAcct {
    /// First tick not yet covered by a segment (starts at arrival).
    pub marker: u64,
    /// Closed, contiguous segments.
    pub segments: Vec<Segment>,
}

impl RequestAcct {
    /// An empty timeline starting at `arrival`.
    pub fn new(arrival: u64) -> Self {
        RequestAcct { marker: arrival, segments: Vec::new() }
    }
}

/// Terminal outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully at the given degradation tier (0 = full
    /// precision).
    Completed {
        /// Degradation tier the response was served at.
        tier: usize,
    },
    /// Dropped by admission control (queue full).
    Shed,
    /// Deadline expired — while queued, waiting out a backoff, or
    /// mid-service.
    TimedOut,
    /// Retry budget exhausted against an open breaker (failed fast).
    BreakerOpen,
    /// Backend kept failing until the retry budget ran out.
    Failed,
}

impl Outcome {
    /// Stable small code for fingerprints and JSON.
    pub fn code(&self) -> u64 {
        match self {
            Outcome::Completed { .. } => 0,
            Outcome::Shed => 1,
            Outcome::TimedOut => 2,
            Outcome::BreakerOpen => 3,
            Outcome::Failed => 4,
        }
    }

    /// Short name used in tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Completed { .. } => "completed",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed-out",
            Outcome::BreakerOpen => "breaker-open",
            Outcome::Failed => "failed",
        }
    }
}

/// One finalized request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Request id.
    pub id: u64,
    /// Payload index the request named.
    pub payload: usize,
    /// Terminal outcome.
    pub outcome: Outcome,
    /// Attempts made (0 if the request never reached a dispatch).
    pub attempts: u32,
    /// Virtual tick at which the request was finalized.
    pub finished_at: u64,
    /// `finished_at − arrival`: sojourn time in ticks (for completed
    /// requests, the serving latency).
    pub latency: u64,
    /// Where every cycle of `latency` went, bucketed by
    /// [`sc_telemetry::CycleCategory`]. The non-structural buckets sum
    /// exactly to `latency` (the span-tree tiling invariant).
    pub attribution: CycleAttribution,
}

/// Nearest-rank percentile (0 < p ≤ 100) over completed responses'
/// latencies; 0 when nothing completed.
pub(crate) fn latency_percentile_of(responses: &[Response], p: f64) -> u64 {
    let mut lat: Vec<u64> = responses
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Completed { .. }))
        .map(|r| r.latency)
        .collect();
    if lat.is_empty() {
        return 0;
    }
    lat.sort_unstable();
    let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
    lat[rank.clamp(1, lat.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(id: u64, latency: u64) -> Response {
        Response {
            id,
            payload: 0,
            outcome: Outcome::Completed { tier: 0 },
            attempts: 1,
            finished_at: latency,
            latency,
            attribution: CycleAttribution::new(),
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut responses: Vec<Response> = (1..=100).map(|i| completed(i, i * 10)).collect();
        // Non-completions never count toward the latency percentiles.
        responses.push(Response { outcome: Outcome::Shed, ..completed(101, 99_999) });
        assert_eq!(latency_percentile_of(&responses, 50.0), 500);
        assert_eq!(latency_percentile_of(&responses, 99.0), 990);
        assert_eq!(latency_percentile_of(&responses, 100.0), 1000);
    }

    #[test]
    fn empty_report_percentile_is_zero() {
        assert_eq!(latency_percentile_of(&[], 99.0), 0);
        assert_eq!(
            latency_percentile_of(
                &[Response { outcome: Outcome::TimedOut, ..completed(1, 7) }],
                99.0
            ),
            0
        );
    }
}
