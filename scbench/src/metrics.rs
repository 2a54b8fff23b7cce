//! The metrics the benchmark prints, with their units — the same lists
//! `BENCHMARK.json` declares (a self-test keeps the two equal).

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("items_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("quality", "fraction"),
    m("sim_cycles", "cycles"),
    m("sim_p99_cycles", "cycles"),
];

/// Printed by traced runs (`--trace 1`). A workload that never calls a
/// layer prints 0 for that layer's metrics.
pub const PER_LAYER: &[Metric] = &[
    m("datasets.generate_s", "s"),
    m("neural.lut_build_s", "s"),
    m("neural.conv.fwd_us.float", "us"),
    m("neural.conv.fwd_us.fixed", "us"),
    m("neural.conv.fwd_us.lfsr", "us"),
    m("neural.conv.fwd_us.proposed", "us"),
    m("neural.conv.bwd_us", "us"),
    m("neural.dense_us", "us"),
    m("neural.other_us", "us"),
    m("neural.step_us", "us"),
    m("neural.conv.macs_per_us.float", "MAC/us"),
    m("neural.conv.macs_per_us.proposed", "MAC/us"),
    m("par.regions_per_image", "count"),
    m("par.steals_per_region", "count"),
    m("par.utilization", "fraction"),
    m("accel.run_layer_us.conv1", "us"),
    m("accel.run_layer_us.conv2", "us"),
    m("accel.run_layer_us.conv3", "us"),
    m("accel.host_ns_per_mac", "ns"),
    m("accel.host_ns_per_sim_cycle", "ns"),
    m("accel.tiles_per_image", "count"),
    m("accel.bitplane_words_per_image", "count"),
    m("accel.sim_cycles.conv1", "cycles"),
    m("accel.sim_cycles.conv2", "cycles"),
    m("accel.sim_cycles.conv3", "cycles"),
    m("serve.fleet_self_ns_per_request", "ns"),
    m("serve.backend_ns_per_call", "ns"),
    m("serve.attempts_per_request", "count"),
    m("serve.hedge_win_ratio", "fraction"),
    m("serve.retries", "count"),
    m("serve.failovers", "count"),
    m("serve.shed", "count"),
    m("serve.timed_out", "count"),
    m("serve.degraded_frac", "fraction"),
    m("serve.max_queue_depth", "count"),
    m("serve.recovery.rejoins", "count"),
    m("serve.recovery.replays", "count"),
    m("serve.rate-lo.goodput", "fraction"),
    m("serve.rate-lo.p99_cycles", "cycles"),
    m("serve.rate-mid.goodput", "fraction"),
    m("serve.rate-mid.p99_cycles", "cycles"),
    m("serve.rate-hi.goodput", "fraction"),
    m("serve.rate-hi.p99_cycles", "cycles"),
    m("serve.x1.goodput", "fraction"),
    m("serve.x1.p99_cycles", "cycles"),
    m("serve.restart.goodput", "fraction"),
    m("serve.restart.p99_cycles", "cycles"),
    m("serve.failed_frac", "fraction"),
    m("serve.sim_max_rate", "fraction"),
    m("health.windows", "count"),
    m("health.breaches", "count"),
    m("telemetry.event_records_ns_per_request", "ns"),
    m("telemetry.obs_ingest_ns_per_request", "ns"),
    m("trace.overhead_frac", "fraction"),
    m("host.speed", "ratio"),
    m("host.measured_items_per_s", "1/s"),
    m("setup.first_round_s", "s"),
    m("first_round_items_per_s", "1/s"),
];

/// Median of a sample (mean of the middle two for even sizes; NaN when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of integer samples (0 when empty).
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Order-sensitive 64-bit digest (SplitMix64 over FNV-style chaining)
/// for fingerprints of large outputs.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use sc_telemetry::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} for {}", m.unit, m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is declared twice");
    }

    /// `BENCHMARK.json` declares exactly these metrics, with these units,
    /// and exactly these workloads.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let json = Json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
        assert_ne!(digest([1, 2]), digest([2, 1]));
    }
}
