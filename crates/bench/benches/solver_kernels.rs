//! Micro-benchmarks of the numerical kernels the reconstruction stack
//! is built on: Cholesky factor/solve, the Jacobi eigensolver (the SDP
//! cone projection), and ADMM on reference QP/SDP problems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use domo_linalg::{project_psd, symmetric_eigen, Cholesky, Matrix};
use domo_solver::{solve, QpBuilder, Settings};
use domo_util::rng::Xoshiro256pp;
use std::hint::black_box;

fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = rng.range_f64(-1.0..1.0);
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
    }
    let mut g = &a.transpose() * &a;
    g.shift_diagonal(n as f64 * 0.1);
    g
}

fn kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg");
    for n in [32usize, 96, 192] {
        let spd = random_spd(n, 31);
        group.bench_with_input(BenchmarkId::new("cholesky_factor", n), &spd, |b, m| {
            b.iter(|| Cholesky::factor(black_box(m)).expect("SPD"))
        });
        let chol = Cholesky::factor(&spd).expect("SPD");
        let rhs = vec![1.0; n];
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &chol, |b, f| {
            b.iter(|| f.solve(black_box(&rhs)))
        });
    }
    for n in [16usize, 32, 64] {
        let mut rng = Xoshiro256pp::seed_from_u64(32);
        let mut sym = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.range_f64(-1.0..1.0);
                sym[(i, j)] = v;
                sym[(j, i)] = v;
            }
        }
        group.bench_with_input(BenchmarkId::new("jacobi_eigen", n), &sym, |b, m| {
            b.iter(|| symmetric_eigen(black_box(m)))
        });
        group.bench_with_input(BenchmarkId::new("psd_projection", n), &sym, |b, m| {
            b.iter(|| project_psd(black_box(m)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("admm");
    group.sample_size(10);
    // Box-constrained least squares, 60 variables.
    group.bench_function("qp_box_60", |b| {
        let mut builder = QpBuilder::new(60);
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        for i in 0..60 {
            builder.add_quadratic(i, i, 2.0);
            builder.add_linear(i, rng.range_f64(-5.0..5.0));
            builder.add_row(&[(i, 1.0)], -1.0, 1.0);
        }
        if let Some(problem) = builder.build().ok() {
            b.iter(|| solve(black_box(&problem), &Settings::default()));
        }
    });
    // A lifted SDP block of dimension 9 (8 unknowns + corner).
    group.bench_function("sdp_lifted_dim9", |b| {
        let m = 8usize;
        let lifted = m * (m + 1) / 2;
        let mut builder = QpBuilder::new(m + lifted + 1);
        let corner = m + lifted;
        let uvar = |i: usize, j: usize| m + domo_solver::svec::svec_index(i, j);
        let mut rng = Xoshiro256pp::seed_from_u64(34);
        for i in 0..m {
            builder.add_quadratic(i, i, 2.0);
            builder.add_linear(i, rng.range_f64(-2.0..2.0));
            builder.add_row(&[(i, 1.0)], -2.0, 2.0);
            builder.add_row(&[(uvar(i, i), 1.0)], 0.0, 4.0);
        }
        builder.fix_variable(corner, 1.0);
        builder.add_row(&[(uvar(0, 2), 1.0), (uvar(1, 3), -1.0)], 0.0, f64::INFINITY);
        let mut block = Vec::new();
        for j in 0..=m {
            for i in 0..=j {
                block.push(if j < m {
                    uvar(i, j)
                } else if i < m {
                    i
                } else {
                    corner
                });
            }
        }
        builder.add_psd_block(m + 1, block).expect("valid block");
        let problem = builder.build().expect("valid problem");
        b.iter(|| solve(black_box(&problem), &Settings::default()));
    });
    group.finish();
}


/// Short measurement windows keep the full-workspace bench run in
/// minutes; per-group `sample_size` calls below still apply.
fn fast_criterion() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(800))
        .sample_size(10)
}
criterion_group! {
    name = benches;
    config = fast_criterion();
    targets = kernels
}
criterion_main!(benches);
