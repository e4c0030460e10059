//! Criterion bench for the random-number layer every Monte-Carlo kernel
//! draws from: the vendored `ChaCha8Rng` and the `rand` samplers on top.
//!
//! Each iteration makes 1000 draws, so the harness's µs/iter reads directly
//! as ns per draw.  The routines cover the draws the hot loops make:
//! `next_u64` (the raw keystream), `gen_range(0..61)` (instruction-stream
//! building in the Fig. 10 simulator), `gen::<f64>()` (per-block strike
//! draws), `PackedBernoulli::sample_u64` at p = 1e-3 (64 packed shots of
//! one noise location) and `seed_from_u64` plus the first draw (the set-up
//! cost of the short-lived per-shot, per-strike and per-window generators).
//! `-- --test` runs each routine once as a smoke pass.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{PackedBernoulli, Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const DRAWS_PER_ITER: u64 = 1000;

fn bench_rng_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng_throughput");
    group.sample_size(2000);
    let mut rng = ChaCha8Rng::seed_from_u64(0x03DE);
    group.bench_function("next_u64", |b| {
        b.iter(|| (0..DRAWS_PER_ITER).fold(0u64, |acc, _| acc ^ rng.next_u64()))
    });
    group.bench_function("gen_range_0_61", |b| {
        b.iter(|| (0..DRAWS_PER_ITER).fold(0usize, |acc, _| acc ^ rng.gen_range(0usize..61)))
    });
    group.bench_function("gen_f64", |b| {
        b.iter(|| (0..DRAWS_PER_ITER).fold(0.0f64, |acc, _| acc + rng.gen::<f64>()))
    });
    let bernoulli = PackedBernoulli::new(1e-3);
    group.bench_function("packed_bernoulli_1e-3", |b| {
        b.iter(|| (0..DRAWS_PER_ITER).fold(0u64, |acc, _| acc ^ bernoulli.sample_u64(&mut rng)))
    });
    let mut seed = 0u64;
    group.bench_function("seed_from_u64_first_draw", |b| {
        b.iter(|| {
            (0..DRAWS_PER_ITER).fold(0u64, |acc, _| {
                seed = seed.wrapping_add(1);
                acc ^ ChaCha8Rng::seed_from_u64(black_box(seed)).next_u64()
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rng_throughput);
criterion_main!(benches);
