//! Property-based tests for the linear-algebra kernels.

use domo_linalg::{project_psd, symmetric_eigen, Cholesky, CsrMatrix, Ldlt, Matrix};
use proptest::prelude::*;

/// Strategy: a random symmetric n×n matrix with entries in [-r, r].
fn symmetric_matrix(n: usize, r: f64) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-r..r, n * (n + 1) / 2).prop_map(move |tri| {
        let mut m = Matrix::zeros(n, n);
        let mut it = tri.into_iter();
        for i in 0..n {
            for j in 0..=i {
                let v = it.next().expect("triangle sized buffer");
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        m
    })
}

/// Strategy: a random SPD matrix built as Bᵀ B + I.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |buf| {
        let b = Matrix::from_vec(n, n, buf);
        let mut g = &b.transpose() * &b;
        g.shift_diagonal(1.0);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eigen_reconstructs(m in symmetric_matrix(6, 10.0)) {
        let e = symmetric_eigen(&m);
        let lam = Matrix::from_diag(&e.values);
        let recon = &(&e.vectors * &lam) * &e.vectors.transpose();
        prop_assert!((&recon - &m).frobenius_norm() < 1e-8 * m.frobenius_norm().max(1.0));
    }

    #[test]
    fn eigen_trace_identity(m in symmetric_matrix(5, 5.0)) {
        let e = symmetric_eigen(&m);
        let sum: f64 = e.values.iter().sum();
        prop_assert!((sum - m.trace()).abs() < 1e-8);
    }

    #[test]
    fn psd_projection_is_psd_and_idempotent(m in symmetric_matrix(5, 5.0)) {
        let p = project_psd(&m);
        let e = symmetric_eigen(&p);
        prop_assert!(e.values.iter().all(|&v| v > -1e-8));
        let p2 = project_psd(&p);
        prop_assert!((&p - &p2).frobenius_norm() < 1e-7 * p.frobenius_norm().max(1.0));
    }

    #[test]
    fn psd_projection_never_increases_frobenius_distance_to_psd_inputs(m in spd_matrix(4)) {
        // Projection of a PSD matrix is itself.
        let p = project_psd(&m);
        prop_assert!((&p - &m).frobenius_norm() < 1e-8 * m.frobenius_norm().max(1.0));
    }

    #[test]
    fn cholesky_solves_spd(m in spd_matrix(5), b in proptest::collection::vec(-10.0f64..10.0, 5)) {
        let c = Cholesky::factor(&m).expect("SPD by construction");
        let x = c.solve(&b);
        let r = m.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn ldlt_matches_cholesky(m in spd_matrix(4), b in proptest::collection::vec(-10.0f64..10.0, 4)) {
        let x1 = Cholesky::factor(&m).expect("SPD").solve(&b);
        let x2 = Ldlt::factor(&m).expect("SPD").solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    #[test]
    fn csr_matvec_matches_dense(
        triplets in proptest::collection::vec((0usize..6, 0usize..6, -5.0f64..5.0), 0..20),
        x in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        let a = CsrMatrix::from_triplets(6, 6, &triplets);
        let d = a.to_dense();
        let ya = a.matvec(&x);
        let yd = d.matvec(&x);
        for (u, v) in ya.iter().zip(&yd) {
            prop_assert!((u - v).abs() < 1e-10);
        }
        let ta = a.matvec_t(&x);
        let td = d.matvec_t(&x);
        for (u, v) in ta.iter().zip(&td) {
            prop_assert!((u - v).abs() < 1e-10);
        }
    }
}
