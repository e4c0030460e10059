//! End-to-end and per-layer benchmark of the Q3DE stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first checks the workload's outputs against a recorded
//! reference at a pinned seed, then either measures the end-to-end metrics
//! for `--seconds` seconds with no tracing, timing its set-up again and
//! again along the way (`--trace 0`), or repeats a fixed, seed-determined amount of work
//! with a span around every public call into a layer (`--trace 1`).  The
//! last line of standard output is one JSON object; the process exits 1
//! when any correctness check fails.  See `perfbench/README.md` for the
//! workloads and what each metric should move.

mod explode;
mod harness;
mod mc;
mod pipeline;
mod plane;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Per-layer metrics of the traced run, with their units.  Every traced
/// run reports all of them; a layer a workload does not load reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("sample.us_per_shot", "us"),
    ("syndrome.events_per_shot", "count"),
    ("match.calls", "count"),
    ("match.defects_mean", "count"),
    ("match.defects_max", "count"),
    ("match.us_p50", "us"),
    ("match.us_p99", "us"),
    ("graph.builds", "count"),
    ("graph.reweights", "count"),
    ("graph.build_us", "us"),
    ("graph.reweight_us", "us"),
    ("decode.self_us", "us"),
    ("rollback.second_passes", "count"),
    ("rollback.second_pass_us", "us"),
    ("packed.sample_us_per_group", "us"),
    ("packed.fold_us_per_group", "us"),
    ("packed.run_us_per_group", "us"),
    ("packed.eventful_frac", "fraction"),
    ("packed.distinct_sig_frac", "fraction"),
    ("engine.overhead_frac", "fraction"),
    ("anomaly.us_per_layer", "us"),
    ("anomaly.detections", "count"),
    ("anomaly.latency_cycles", "cycles"),
    ("pipeline.detect_frac", "fraction"),
    ("pipeline.rollback_windows", "count"),
    ("service.decode_us_quiet", "us"),
    ("service.decode_us_struck", "us"),
    ("service.overhead_frac", "fraction"),
    ("service.max_depth", "count"),
    ("plane.us_per_step", "us"),
    ("plane.sim_cycles", "count"),
    ("plane.idle_step_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One correctness check and what it saw.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// At most this many timings are kept per input; a 20-second run times
/// each input 6 to 17 times.
const MAX_REPS: usize = 32;

/// Every timing of each of a fixed number of distinct inputs, in one
/// table allocated up front, so the benchmark's own bookkeeping adds the
/// same memory to `peak_rss_mb` however many repetitions a run gets.
#[derive(Debug, Default)]
pub struct Timings {
    /// CPU nanoseconds of each repetition, `MAX_REPS` slots per input.
    ns: Vec<u32>,
    /// Repetitions recorded per input.
    reps: Vec<usize>,
    /// Code cycles each input stands for.
    cycles: Vec<f64>,
}

impl Timings {
    fn new(inputs: usize) -> Self {
        Self {
            ns: vec![0; inputs * MAX_REPS],
            reps: vec![0; inputs],
            cycles: vec![0.0; inputs],
        }
    }

    fn record(&mut self, id: usize, ns: u64, cycles: f64) {
        let reps = &mut self.reps[id];
        if *reps < MAX_REPS {
            self.ns[id * MAX_REPS + *reps] = u32::try_from(ns).unwrap_or(u32::MAX);
            *reps += 1;
        }
        self.cycles[id] = cycles;
    }

    /// The timings, in the order they ran, and the code cycles of every
    /// input that was timed at least once.
    pub fn seen(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        self.reps
            .iter()
            .enumerate()
            .filter(|&(_, &reps)| reps > 0)
            .map(|(id, &reps)| {
                let start = id * MAX_REPS;
                (&self.ns[start..start + reps], self.cycles[id])
            })
    }
}

/// End-to-end measurements of an untraced run.  Every workload cycles
/// through a fixed, seed-determined set of inputs for the whole run, so
/// each input is timed several times, at different moments of the run.
#[derive(Debug, Default)]
pub struct Measured {
    /// What one operation is, for the printout.
    pub op: &'static str,
    /// Timings of each distinct operation, by input index.
    pub ops: Timings,
    /// Timings of each distinct unit of throughput (a whole sweep point for
    /// the `mc_*` workloads; `None` when the operation is the unit).
    pub units: Option<Timings>,
    /// Operations run, repetitions included.
    pub runs: u64,
    /// Process CPU time of each set-up repeated during the run, in seconds.
    pub setup_s: Vec<f64>,
}

impl Measured {
    /// Measurements of `ops` distinct operations, grouped into `units`
    /// distinct units of throughput when that is `Some`.
    pub fn new(op: &'static str, ops: usize, units: Option<usize>) -> Self {
        Self {
            op,
            ops: Timings::new(ops),
            units: units.map(Timings::new),
            runs: 0,
            setup_s: Vec::new(),
        }
    }

    /// Records one timed operation on input `id`.
    pub fn op(&mut self, id: usize, ns: u64, cycles: f64) {
        self.runs += 1;
        self.ops.record(id, ns, cycles);
    }

    /// Records one timed unit of throughput on input `id`.
    pub fn unit(&mut self, id: usize, ns: u64, cycles: f64) {
        self.units
            .as_mut()
            .expect("measurements without units")
            .record(id, ns, cycles);
    }

    /// The timings the throughput rate is taken over.
    pub fn rate_units(&self) -> &Timings {
        self.units.as_ref().unwrap_or(&self.ops)
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<Check>,
    /// Operations attempted and failed (panicked, refused, shed or never
    /// completed) in the measured or traced work.
    pub attempted: u64,
    pub failed: u64,
    pub measured: Option<Measured>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<(&'static str, f64)>,
    /// Spans of the traced run, written out at the end.
    pub tracer: Option<trace::Tracer>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "mc_burst" => mc::burst(&args),
        "mc_packed" => mc::packed(&args),
        "q3de_loop" => pipeline::run(&args),
        "service_mix" => service::run(&args),
        "plane_fig10" => plane::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    println!(
        "host: {} CPUs available",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let correct = report.checks.iter().all(|c| c.ok);
    for check in &report.checks {
        let verdict = if check.ok { "ok  " } else { "FAIL" };
        println!("check {verdict} {}: {}", check.name, check.detail);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "ops attempted {} failed {} failed_frac {failed_frac}",
        report.attempted, report.failed
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for &(name, unit) in LAYER_METRICS {
            let value = report
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name.to_string(), value, unit));
        }
        if let Some(tracer) = &report.tracer {
            for (name, (count, total, own)) in tracer.summary() {
                println!(
                    "span {name:<16} count {count:>8} total_ms {:>10.3} self_ms {:>10.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                );
            }
            let path = PathBuf::from("perfbench/out")
                .join(format!("trace_{}_seed{}.csv", args.workload, args.seed));
            if let Err(err) = tracer.write_csv(&path) {
                eprintln!("perfbench: could not write {}: {err}", path.display());
            }
        }
    } else {
        let measured = report.measured.unwrap_or_default();
        let summary = stats::summarize(&measured);
        println!(
            "measured {} ops (op = {}) on {} distinct inputs, each timed {} to {} times",
            measured.runs, measured.op, summary.distinct_ops, summary.min_reps, summary.max_reps,
        );
        let rates: Vec<String> = stats::rates_by_timing(&measured)
            .iter()
            .map(|(timing, rate)| format!("{timing} {rate:.1}"))
            .collect();
        println!("cycles/s by timing of each input: {}", rates.join(", "));
        let mut setup = measured.setup_s.clone();
        setup.sort_by(f64::total_cmp);
        println!(
            "setup: {} reps, min {:.6} median {:.6} max {:.6} s",
            setup.len(),
            setup.first().copied().unwrap_or(f64::NAN),
            stats::median(&setup),
            setup.last().copied().unwrap_or(f64::NAN),
        );
        metrics.push(("setup_s".into(), stats::median(&setup), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push(("cycles_per_s".into(), summary.cycles_per_s, "1/s"));
        metrics.push(("op_p50_us".into(), summary.p50_ns / 1e3, "us"));
        metrics.push(("op_p99_us".into(), summary.p99_ns / 1e3, "us"));
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
