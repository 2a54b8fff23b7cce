//! The repository's benchmark: three workloads built from one `--seed`,
//! each run in rounds for `--seconds` seconds.
//!
//! ```text
//! scbench --workload <cnn-train|accel-infer|serve-storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every round rebuilds the same inputs from the seed (timed as set-up),
//! runs the workload (timed as work) and checks its outputs. Host-time
//! metrics are medians over the rounds after the first, each round scaled
//! to a nominal host speed measured by a fixed kernel around it
//! ([`host`]); simulated metrics are exact and must repeat bit for bit in
//! every round. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `README.md` beside this crate.

mod accel;
mod cnn;
mod host;
mod metrics;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sc_telemetry::json::Json;
use sc_telemetry::FoldedStacks;

use metrics::{median, Metric, END_TO_END, PER_LAYER};
use trace::Tracer;

/// Rounds every run makes at least, whatever `--seconds` says: the first
/// (reported on its own) and enough after it for a median.
const MIN_ROUNDS: usize = 4;

/// Seed of the networks' initial weights. The networks are the program
/// under test, not its input, so they do not change with `--seed`; the
/// workload seed generates the images, training order and traces.
pub const MODEL_SEED: u64 = 42;

/// Where traced runs write their spans and wall-time folded stacks.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Float SGD, proposed-SC fine-tuning and three-arithmetic
    /// evaluation of the MNIST-like net, at two threads.
    CnnTrain,
    /// CIFAR-like inference in float and proposed SC, with every conv
    /// layer also run through the tiled accelerator simulator.
    AccelInfer,
    /// An open-loop trace replayed through serving fleets on the
    /// virtual clock.
    ServeStorm,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::CnnTrain, Workload::AccelInfer, Workload::ServeStorm];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnTrain => "cnn-train",
            Workload::AccelInfer => "accel-infer",
            Workload::ServeStorm => "serve-storm",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of the `sc-par` pool for this workload.
    fn threads(self) -> usize {
        match self {
            Workload::CnnTrain => 2,
            Workload::AccelInfer | Workload::ServeStorm => 1,
        }
    }

    /// Runs one round at the benchmark's size (or the small size the
    /// self-tests use).
    fn round(self, seed: u64, small: bool, traced: bool) -> Round {
        match self {
            Workload::CnnTrain => {
                cnn::round(seed, if small { &cnn::SMALL } else { &cnn::FULL }, traced)
            }
            Workload::AccelInfer => {
                accel::round(seed, if small { &accel::SMALL } else { &accel::FULL }, traced)
            }
            Workload::ServeStorm => {
                serve::round(seed, if small { &serve::SMALL } else { &serve::FULL }, traced)
            }
        }
    }
}

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    /// Host time building the round's inputs from the seed, s.
    pub setup_s: f64,
    /// Host time of the workload itself, s.
    pub work_s: f64,
    /// Images or requests processed.
    pub items: u64,
    /// End-to-end simulated metrics (`quality`, `sim_*`): exact.
    pub exact: Vec<(&'static str, f64)>,
    /// Everything the round produced, flattened; must repeat exactly.
    pub fingerprint: Vec<u64>,
    /// Output checks made.
    pub attempted: u64,
    /// Output checks failed.
    pub failed: u64,
    /// Per-layer metrics this workload measures (host-time ones only in
    /// traced rounds).
    pub layers: Vec<(&'static str, f64)>,
    /// The round's spans (empty unless traced).
    pub tracer: Tracer,
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (cnn-train, accel-infer, serve-storm)")
                })?)
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value:?}: {e}"))?)
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && (0.0..=3600.0).contains(&s)) {
                    return Err(format!("--seconds {value:?} must be within 0..=3600"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The library reads these at run time; set, they would change what is
/// simulated (`SC_FAULTS`) or which engine runs it (`SC_ENGINE`), so the
/// benchmark refuses to run rather than report other work.
fn check_env() -> Result<(), String> {
    for var in ["SC_ENGINE", "SC_FAULTS"] {
        if std::env::var_os(var).is_some_and(|v| !v.is_empty()) {
            return Err(format!("{var} must be unset for the benchmark"));
        }
    }
    Ok(())
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The whole run: rounds until `seconds` have passed, then the result.
#[derive(Debug, Default)]
struct Run {
    rounds: usize,
    attempted: u64,
    failed: u64,
    /// Untraced rounds after the first: (setup_s, items_per_s), at the
    /// nominal host speed.
    plain: Vec<(f64, f64)>,
    /// Untraced rounds after the first: measured items_per_s and host
    /// speed (nominal / measured reference time), for the log.
    raw: Vec<(f64, f64)>,
    /// Traced rounds: items_per_s.
    traced_rates: Vec<f64>,
    /// Per-layer values of each traced round.
    layers: BTreeMap<&'static str, Vec<f64>>,
    first: Option<(f64, f64)>,
    exact: Vec<(&'static str, f64)>,
    fingerprint: Vec<u64>,
    problems: Vec<String>,
}

impl Run {
    /// Adds a round whose host ran at `speed` times the nominal speed:
    /// its host times are multiplied by `speed` and its rates divided.
    fn add(&mut self, r: &Round, traced: bool, speed: f64) {
        self.rounds += 1;
        self.attempted += r.attempted + 1;
        self.failed += r.failed;
        let measured = r.items as f64 / r.work_s;
        let (setup_s, rate) = (r.setup_s * speed, measured / speed);
        if self.first.is_none() {
            self.first = Some((setup_s, rate));
            self.exact = r.exact.clone();
            self.fingerprint = r.fingerprint.clone();
        } else if traced {
            self.traced_rates.push(rate);
        } else {
            self.plain.push((setup_s, rate));
            self.raw.push((measured, speed));
        }
        // Every round does identical work, so everything it simulated
        // must repeat bit for bit — traced rounds included.
        let same_exact = r.exact.len() == self.exact.len()
            && r.exact
                .iter()
                .zip(&self.exact)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same_exact || r.fingerprint != self.fingerprint {
            self.failed += 1;
            self.problems.push(format!(
                "round {} did not reproduce round 1 (exact {:?} vs {:?})",
                self.rounds, r.exact, self.exact
            ));
        }
        if r.failed > 0 {
            self.problems.push(format!("round {}: {} checks failed", self.rounds, r.failed));
        }
        if traced {
            for &(name, v) in &r.layers {
                self.layers.entry(name).or_default().push(v * speed.powi(host_exponent(name)));
            }
        }
    }
}

/// How a per-layer metric scales with host time: 1 for times, −1 for
/// rates, 0 for counts, cycles and fractions.
fn host_exponent(name: &str) -> i32 {
    match PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit) {
        Some("s" | "us" | "ns") => 1,
        Some("1/s" | "MAC/us") => -1,
        _ => 0,
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.to_string()))])
}

/// Builds the value of every declared metric of one mode, in declaration
/// order; a metric the run did not produce is an error.
fn collect(decl: &[Metric], values: &BTreeMap<&str, f64>) -> Result<Json, String> {
    let mut out = Vec::with_capacity(decl.len());
    for m in decl {
        let v = values.get(m.name).ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        out.push((m.name.to_string(), metric_json(*v, m.unit)));
    }
    Ok(Json::Obj(out))
}

/// A finished run: the result line and, for traced runs, the spans of
/// the first traced round and the wall-time profile of all of them.
struct Measured {
    result: Json,
    correct: bool,
    spans_jsonl: String,
    folded: FoldedStacks,
}

/// Makes rounds until `args.seconds` have passed (and at least
/// [`MIN_ROUNDS`]), then assembles the result line.
fn measure(args: &Args, small: bool) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut run = Run::default();
    let mut folded = FoldedStacks::new();
    let mut spans_jsonl = String::new();
    // Length of the host speed windows around the next round.
    let mut window = host::MIN_WINDOW_S;
    loop {
        let i = run.rounds;
        // In a traced run, rounds alternate untraced/traced after the
        // first, so both rates come from the same minutes of host time.
        let traced = args.trace && i % 2 == 1;
        let threads = args.workload.threads();
        let before = host::reference_s(threads, window / 2.0);
        sc_telemetry::metrics::set_enabled(traced);
        let round = args.workload.round(args.seed, small, traced);
        sc_telemetry::metrics::set_enabled(false);
        let after = host::reference_s(threads, window / 2.0);
        let speed = host::NOMINAL_S / ((before + after) / 2.0);
        window = (host::SHARE * (round.setup_s + round.work_s))
            .clamp(host::MIN_WINDOW_S, host::MAX_WINDOW_S);
        if traced {
            round.tracer.validate().map_err(|e| format!("round {}: bad spans: {e}", i + 1))?;
            round.tracer.fold_into(&mut folded);
            if spans_jsonl.is_empty() {
                spans_jsonl = round.tracer.render_jsonl(i + 1);
            }
        }
        if let Some((name, _)) =
            round.layers.iter().find(|(n, _)| !PER_LAYER.iter().any(|m| m.name == *n))
        {
            return Err(format!("{} measured undeclared metric {name}", args.workload.name()));
        }
        run.add(&round, traced, speed);
        drop(round);
        if run.rounds >= MIN_ROUNDS && start.elapsed() >= budget {
            break;
        }
    }

    let first = run.first.expect("at least one round");
    let setup: Vec<f64> = run.plain.iter().map(|p| p.0).collect();
    let rates: Vec<f64> = run.plain.iter().map(|p| p.1).collect();
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    eprintln!(
        "scbench: {} seed {}: {} rounds in {:.1} s; round 1: setup {:.4} s, {:.2} items/s",
        args.workload.name(),
        args.seed,
        run.rounds,
        start.elapsed().as_secs_f64(),
        first.0,
        first.1,
    );
    eprintln!("scbench: untraced rounds after the first: setup_s {}", list(&setup));
    eprintln!("scbench: untraced rounds after the first: items_per_s {}", list(&rates));
    let measured: Vec<f64> = run.raw.iter().map(|p| p.0).collect();
    let speeds: Vec<f64> = run.raw.iter().map(|p| p.1).collect();
    eprintln!("scbench: untraced rounds after the first: measured items_per_s {}", list(&measured));
    eprintln!("scbench: untraced rounds after the first: host speed {}", list(&speeds));
    for p in &run.problems {
        eprintln!("scbench: FAILED: {p}");
    }

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let metrics = if args.trace {
        for (name, v) in &run.layers {
            values.insert(name, median(v));
        }
        for m in PER_LAYER {
            values.entry(m.name).or_insert(0.0);
        }
        values.insert("trace.overhead_frac", 1.0 - median(&run.traced_rates) / median(&rates));
        values.insert("host.speed", median(&speeds));
        values.insert("host.measured_items_per_s", median(&measured));
        values.insert("setup.first_round_s", first.0);
        values.insert("first_round_items_per_s", first.1);
        collect(PER_LAYER, &values)?
    } else {
        values.insert("setup_s", median(&setup));
        values.insert("items_per_s", median(&rates));
        values.insert("peak_rss_mb", peak_rss_mb()?);
        values.extend(run.exact.iter().copied());
        collect(END_TO_END, &values)?
    };
    let correct = run.failed == 0;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(run.attempted)),
        ("failed", Json::UInt(run.failed)),
        ("metrics", metrics),
    ]);
    Ok(Measured { result, correct, spans_jsonl, folded })
}

fn run(args: &Args) -> Result<(Json, bool), String> {
    check_env()?;
    sc_par::set_threads(args.workload.threads());
    let m = measure(args, false)?;
    if args.trace {
        let dir = Path::new(OUT_DIR);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        for (ext, text) in [("spans.jsonl", m.spans_jsonl), ("wall.folded", m.folded.render())] {
            let path = dir.join(format!("{}.{ext}", args.workload.name()));
            std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok((m.result, m.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scbench: {e}");
            eprintln!(
                "usage: scbench --workload <cnn-train|accel-infer|serve-storm> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((result, correct)) => {
            println!("{}", result.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("scbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload serve-storm --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(a, Args { workload: Workload::ServeStorm, seed: 7, seconds: 10.0, trace: true });
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload cnn-train --seed -1 --seconds 1 --trace 0",
            "--workload cnn-train --seed 1 --seconds nan --trace 0",
            "--workload cnn-train --seed 1 --seconds 1 --trace 2",
            "--workload cnn-train --seed 1 --seconds 1 --bogus 2",
            "--workload cnn-train --seed",
            "--seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} must be rejected");
        }
    }

    /// Every workload, untraced and traced, prints every declared metric
    /// with its unit and a finite value, passes its checks and keeps its
    /// spans well nested (checked inside `measure`).
    #[test]
    fn each_workload_prints_every_declared_metric() {
        for workload in Workload::ALL {
            sc_par::set_threads(workload.threads());
            for trace in [false, true] {
                let args = Args { workload, seed: 3, seconds: 0.0, trace };
                let m = measure(&args, true).expect("small run");
                assert!(m.correct, "{} trace={trace}: checks failed", workload.name());
                let metrics = m.result.get("metrics").expect("metrics");
                let decl = if trace { PER_LAYER } else { END_TO_END };
                let Json::Obj(pairs) = metrics else { panic!("metrics is an object") };
                assert_eq!(pairs.len(), decl.len());
                for d in decl {
                    let v = metrics.get(d.name).unwrap_or_else(|| panic!("{} missing", d.name));
                    assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit));
                    assert!(v.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite));
                }
                assert_eq!(m.spans_jsonl.is_empty(), !trace);
                assert_eq!(m.folded.total() == 0, !trace);
            }
        }
        sc_par::set_threads(0);
    }

    #[test]
    fn reads_peak_rss() {
        let mb = peak_rss_mb().expect("linux /proc");
        assert!(mb > 0.0);
    }
}
