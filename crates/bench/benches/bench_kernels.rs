//! `bench-kernels` — fissioned kernels raced against their scalar references.
//!
//! The kernel layer (`sparcs_ilp::kernels`, the batch kernels in
//! `sparcs::casestudy`) keeps the original fused scalar loops around as
//! executable specifications; this microbench runs both forms on the same
//! data so a `cargo bench bench_kernels` prints the fission speedup in
//! isolation, away from the solver's reinversion/FTRAN costs that dominate
//! end-to-end `BENCH_ilp.json` numbers.
//!
//! Three races:
//!
//! - **pricing** — `dual_price_scan` + `dual_price_argmax` (fissioned)
//!   vs. `reference::dual_price` (fused) on synthetic rows shaped like the
//!   DCT `N = 4` basis (~564 rows, a handful primal-infeasible).
//! - **ratio** — `dual_ratio_scan` over the maintained nonbasic list
//!   vs. `reference::dual_ratio`'s dense every-column walk.
//! - **rtr compute** — each paper configuration's lane-parallel
//!   `BatchKernel` over 64 lanes vs. the scalar `Kernel` called
//!   slot-at-a-time 64 times, i.e. exactly the compute-all phase of
//!   `execute_batch` before and after fission.
//!
//! The CI floor lives in `crates/bench/tests/kernel_regression.rs`; this
//! file is the human-readable version of the same comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use sparcs_bench::experiment;
use sparcs_estimate::splitmix64;
use sparcs_ilp::kernels::{self, reference, ColStatus};
use sparcs_rtr::MAX_BATCH_LANES;
use std::hint::black_box;

/// Deterministic splitmix64 — same generator as the kernel proptests, so
/// the benched distribution is the tested distribution.
fn prand(state: &mut u64) -> u64 {
    let z = splitmix64(*state);
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    z
}

fn unit(state: &mut u64) -> f64 {
    (prand(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Rows shaped like the pinned DCT `N = 4` basis: most rows comfortably
/// inside their bounds, ~6% violating one side — the mix the pricing loop
/// sees mid-solve.
fn pricing_rows(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut s = 0x5eed_u64;
    let mut xb = Vec::with_capacity(m);
    let mut lo = Vec::with_capacity(m);
    let mut hi = Vec::with_capacity(m);
    let mut dse = Vec::with_capacity(m);
    for _ in 0..m {
        let l = unit(&mut s) * 4.0 - 2.0;
        let h = l + 1.0 + unit(&mut s) * 3.0;
        let v = match prand(&mut s) % 100 {
            0..=2 => l - 0.5 - unit(&mut s),
            3..=5 => h + 0.5 + unit(&mut s),
            _ => l + (h - l) * unit(&mut s),
        };
        xb.push(v);
        lo.push(l);
        hi.push(h);
        dse.push(0.5 + unit(&mut s) * 8.0);
    }
    (xb, lo, hi, dse)
}

/// Columns shaped like the DCT `N = 4` workspace: structurals mostly at
/// their lower bound, a sprinkle basic/at-upper/free, slacks past `n` with
/// a share fixed to equality (those never enter the nonbasic list).
#[allow(clippy::type_complexity)]
fn ratio_columns(
    n_total: usize,
) -> (
    Vec<u32>,
    Vec<ColStatus>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
    Vec<f64>,
) {
    let mut s = 0xca5e_u64;
    let mut status = Vec::with_capacity(n_total);
    let mut lo = Vec::with_capacity(n_total);
    let mut hi = Vec::with_capacity(n_total);
    let mut d = Vec::with_capacity(n_total);
    let mut alpha = Vec::with_capacity(n_total);
    for _ in 0..n_total {
        let st = match prand(&mut s) % 10 {
            0..=3 => ColStatus::AtLower,
            4..=6 => ColStatus::Basic,
            7..=8 => ColStatus::AtUpper,
            _ => ColStatus::Free,
        };
        status.push(st);
        let l = unit(&mut s) * 2.0 - 1.0;
        // ~15% fixed columns (equality slacks): lo == hi.
        let fixed = prand(&mut s) % 100 < 15;
        lo.push(l);
        hi.push(if fixed { l } else { l + 1.0 + unit(&mut s) });
        d.push(unit(&mut s) * 2.0 - 1.0);
        alpha.push(unit(&mut s) * 2.0 - 1.0);
    }
    let nonbasic: Vec<u32> = (0..n_total)
        .filter(|&j| status[j] != ColStatus::Basic && lo[j] < hi[j])
        .map(|j| j as u32)
        .collect();
    (nonbasic, status, lo, hi, d, alpha)
}

fn bench_pricing(c: &mut Criterion) {
    let m = 564;
    let (xb, lo, hi, dse) = pricing_rows(m);
    let feas_tol = 1e-7;

    let mut viols = vec![0.0_f64; m];
    kernels::dual_price_scan(&xb, &lo, &hi, feas_tol, &mut viols);
    assert_eq!(
        kernels::dual_price_argmax(&viols, &dse),
        reference::dual_price(&xb, &lo, &hi, &dse, feas_tol),
        "fissioned and fused pricing must select the same row"
    );

    c.bench_function("kernels/pricing_fissioned", |b| {
        b.iter(|| {
            kernels::dual_price_scan(
                black_box(&xb),
                black_box(&lo),
                black_box(&hi),
                feas_tol,
                &mut viols,
            );
            black_box(kernels::dual_price_argmax(&viols, black_box(&dse)))
        })
    });
    c.bench_function("kernels/pricing_reference", |b| {
        b.iter(|| {
            black_box(reference::dual_price(
                black_box(&xb),
                black_box(&lo),
                black_box(&hi),
                black_box(&dse),
                feas_tol,
            ))
        })
    });
}

fn bench_ratio(c: &mut Criterion) {
    let n_total = 1292;
    let (nonbasic, status, lo, hi, d, alpha) = ratio_columns(n_total);
    let floor = 1e-9;

    let mut fis = Vec::new();
    let mut fused = Vec::new();
    kernels::dual_ratio_scan(
        &nonbasic, &status, &lo, &hi, &d, &alpha, true, floor, &mut fis,
    );
    reference::dual_ratio(&status, &lo, &hi, &d, &alpha, true, floor, &mut fused);
    assert_eq!(fis, fused, "fissioned and fused ratio scans must agree");

    c.bench_function("kernels/ratio_fissioned", |b| {
        b.iter(|| {
            kernels::dual_ratio_scan(
                black_box(&nonbasic),
                black_box(&status),
                black_box(&lo),
                black_box(&hi),
                black_box(&d),
                black_box(&alpha),
                true,
                floor,
                &mut fis,
            );
            black_box(fis.len())
        })
    });
    c.bench_function("kernels/ratio_reference", |b| {
        b.iter(|| {
            reference::dual_ratio(
                black_box(&status),
                black_box(&lo),
                black_box(&hi),
                black_box(&d),
                black_box(&alpha),
                true,
                floor,
                &mut fused,
            );
            black_box(fused.len())
        })
    });
}

fn bench_rtr_compute(c: &mut Criterion) {
    let design = experiment().rtr_design();
    let lanes = MAX_BATCH_LANES;
    for cfg in &design.configurations {
        let Some(batch) = cfg.batch_kernel.clone() else {
            continue;
        };
        let in_w = cfg.input_selector.len();
        let out_w = cfg.output_words as usize;

        // SoA input: word row r holds that word for all 64 lanes.
        let mut ins = vec![0_i32; in_w * lanes];
        for r in 0..in_w {
            for l in 0..lanes {
                ins[r * lanes + l] = ((r * 31 + l * 13) % 200) as i32 - 100;
            }
        }
        // AoS input for the scalar path: one contiguous slot per lane.
        let slots: Vec<Vec<i32>> = (0..lanes)
            .map(|l| (0..in_w).map(|r| ins[r * lanes + l]).collect())
            .collect();

        let mut outs = vec![0_i32; out_w * lanes];
        let mut scratch = Vec::new();
        let mut slot_out = vec![0_i32; out_w];
        let scalar = cfg.kernel.clone();

        let tag = cfg.name.split(':').next().unwrap_or(&cfg.name).trim();
        c.bench_function(&format!("kernels/rtr_{tag}_batch64"), |b| {
            b.iter(|| {
                batch(lanes, black_box(&ins), &mut outs, &mut scratch);
                black_box(outs[0])
            })
        });
        c.bench_function(&format!("kernels/rtr_{tag}_scalar64"), |b| {
            b.iter(|| {
                for slot in &slots {
                    scalar(black_box(slot), &mut slot_out);
                    black_box(slot_out[0]);
                }
            })
        });
    }
}

criterion_group!(benches, bench_pricing, bench_ratio, bench_rtr_compute);
criterion_main!(benches);
