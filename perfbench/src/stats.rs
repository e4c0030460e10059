//! Small statistics helpers and the tally checks of the correctness gate.

use crate::{Check, Measured};
use q3de::scaling::wilson_interval;

/// `z` of a two-sided 99% interval.
const Z_99: f64 = 2.5758;
/// `z` for the consistency check of a measured tally against a reference:
/// wide enough that a correct program fails it about once in 10^4 runs.
const Z_CONSISTENT: f64 = 4.0;

/// Median of the values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank quantile of sorted samples (NaN when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Nearest-rank quantile of unsorted nanosecond samples, in microseconds.
pub fn quantile_us(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, q) / 1e3
}

/// Mean of nanosecond samples, in microseconds (0 when empty).
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

/// The gate on a fixed-seed tally: it must equal the recorded reference
/// exactly, or — for a change that legitimately alters tie-breaking — land
/// inside the reference's 99% Wilson interval.  The detail says which held.
pub fn reference_tally(name: &str, failures: u64, shots: u64, reference: (u64, u64)) -> Check {
    let (ref_failures, ref_shots) = reference;
    if shots == ref_shots && failures == ref_failures {
        return Check::new(
            name,
            true,
            format!("exact: {failures}/{shots} equals the reference"),
        );
    }
    let (lo, hi) = wilson_interval(ref_failures as usize, ref_shots as usize, Z_99);
    let rate = failures as f64 / shots.max(1) as f64;
    let inside = shots > 0 && (lo..=hi).contains(&rate);
    let held = if inside { "wilson99" } else { "neither" };
    Check::new(
        name,
        inside,
        format!(
            "{held}: {failures}/{shots} vs reference {ref_failures}/{ref_shots} \
             (99% interval {lo:.6}..{hi:.6})"
        ),
    )
}

/// A measured tally at an arbitrary seed must be statistically consistent
/// with the reference: their wide Wilson intervals overlap.
pub fn consistent_tally(name: &str, failures: u64, shots: u64, reference: (u64, u64)) -> Check {
    let (lo, hi) = wilson_interval(failures as usize, shots as usize, Z_CONSISTENT);
    let (ref_lo, ref_hi) =
        wilson_interval(reference.0 as usize, reference.1 as usize, Z_CONSISTENT);
    let ok = shots > 0 && lo <= ref_hi && ref_lo <= hi;
    Check::new(
        name,
        ok,
        format!(
            "{failures}/{shots} = {:.6} vs reference {}/{} (z=4 intervals {lo:.6}..{hi:.6} and {ref_lo:.6}..{ref_hi:.6})",
            failures as f64 / shots.max(1) as f64,
            reference.0,
            reference.1
        ),
    )
}

/// End-to-end figures of a run, from the median timing of each distinct
/// input.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub distinct_ops: usize,
    pub min_reps: usize,
    pub max_reps: usize,
    pub cycles_per_s: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Median of an input's timings, in nanoseconds.
fn median_ns(ns: &[u32]) -> f64 {
    median(&ns.iter().map(|&ns| f64::from(ns)).collect::<Vec<_>>())
}

/// Code cycles per CPU second of the throughput units, each timed by
/// `pick`.
fn rate(measured: &Measured, pick: impl Fn(&[u32]) -> f64) -> f64 {
    let (cycles, ns) = measured
        .rate_units()
        .seen()
        .fold((0.0, 0.0), |(c, t), (ns, cycles)| {
            (c + cycles, t + pick(ns))
        });
    cycles / (ns / 1e9)
}

/// The throughput rate when each input is timed by its fastest, its median
/// and its first timing, for the printout.
pub fn rates_by_timing(measured: &Measured) -> [(&'static str, f64); 3] {
    let fastest = |ns: &[u32]| f64::from(ns.iter().copied().min().unwrap_or(0));
    let first = |ns: &[u32]| f64::from(ns[0]);
    [
        ("fastest", rate(measured, fastest)),
        ("median", rate(measured, median_ns)),
        ("first", rate(measured, first)),
    ]
}

/// Summarises a run from the median timing of every input.  On a shared
/// host the same code runs up to a third slower or faster for seconds at a
/// time while co-tenants load or leave the core, so one timing of an input
/// says little.  Each input is timed several times spread over the whole
/// run, and its median timing is its cost at the host's typical speed
/// over that run.  Every run times the same number of inputs of the same
/// kind, so a change of seed changes the inputs but hardly their total.
/// `cycles_per_s` is the code cycles of all units over the sum of their
/// median timings; the latency quantiles are taken over the median timing
/// of every operation.
pub fn summarize(measured: &Measured) -> Summary {
    let reps: Vec<usize> = measured.ops.seen().map(|(ns, _)| ns.len()).collect();
    let mut sorted: Vec<u64> = measured
        .ops
        .seen()
        .map(|(ns, _)| median_ns(ns).round() as u64)
        .collect();
    sorted.sort_unstable();
    Summary {
        distinct_ops: reps.len(),
        min_reps: reps.iter().copied().min().unwrap_or(0),
        max_reps: reps.iter().copied().max().unwrap_or(0),
        cycles_per_s: rate(measured, median_ns),
        p50_ns: quantile_sorted(&sorted, 0.50),
        p99_ns: quantile_sorted(&sorted, 0.99),
    }
}

/// A check that two counts are equal.
pub fn equal<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Check {
    let ok = got == want;
    Check::new(name, ok, format!("{got:?} (expected {want:?})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_uses_each_inputs_median_timing() {
        let mut measured = Measured::new("op", 3, None);
        for ns in [1000, 5000, 1200] {
            measured.op(0, ns, 10.0);
        }
        for ns in [3000, 2800] {
            measured.op(2, ns, 10.0);
        }
        let summary = summarize(&measured);
        assert_eq!(
            (summary.distinct_ops, summary.min_reps, summary.max_reps),
            (2, 2, 3)
        );
        let want = 20.0 / (1200.0 + 2900.0) * 1e9;
        assert!((summary.cycles_per_s - want).abs() < 1e-9 * want);
        assert_eq!(summary.p50_ns, 1200.0);
        assert_eq!(summary.p99_ns, 2900.0);
    }

    #[test]
    fn reference_tally_reports_which_check_held() {
        assert!(reference_tally("t", 50, 1000, (50, 1000))
            .detail
            .starts_with("exact"));
        let near = reference_tally("t", 52, 1000, (50, 1000));
        assert!(near.ok && near.detail.starts_with("wilson99"));
        assert!(!reference_tally("t", 200, 1000, (50, 1000)).ok);
    }
}
