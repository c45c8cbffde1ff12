//! Property-based tests for the dense LU kernel, driven by the in-repo
//! seeded PRNG: each test draws many random cases from a fixed seed, so
//! runs are deterministic and reproducible offline.

use nsr_linalg::{Lu, Matrix};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

/// A random well-scaled square matrix made diagonally dominant so it is
/// guaranteed nonsingular and well-conditioned.
fn diag_dominant<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let vals: Vec<f64> = (0..n * n)
        .map(|_| rng.random_range_f64(-1.0, 1.0))
        .collect();
    let mut m = Matrix::from_vec(n, n, vals).expect("sized vec");
    for i in 0..n {
        let row_sum: f64 = m.row(i).iter().map(|v| v.abs()).sum();
        m[(i, i)] = row_sum + 1.0;
    }
    m
}

/// An arbitrary square matrix (may be singular).
fn any_square<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Matrix {
    let vals: Vec<f64> = (0..n * n)
        .map(|_| rng.random_range_f64(-10.0, 10.0))
        .collect();
    Matrix::from_vec(n, n, vals).expect("sized vec")
}

fn rand_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.random_range_f64(lo, hi)).collect()
}

#[test]
fn solve_residual_is_small() {
    let mut rng = StdRng::seed_from_u64(0x11ea);
    for _ in 0..256 {
        let n = rng.random_range_usize(1, 9);
        let a = diag_dominant(&mut rng, n);
        let b = rand_vec(&mut rng, n, -5.0, 5.0);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (u, v) in b.iter().zip(&ax) {
            assert!((u - v).abs() < 1e-9 * (1.0 + u.abs()));
        }
    }
}

#[test]
fn det_transpose_invariant() {
    let mut rng = StdRng::seed_from_u64(0x11eb);
    for _ in 0..64 {
        let a = diag_dominant(&mut rng, 5);
        let d1 = Lu::factor(&a).unwrap().det();
        let d2 = Lu::factor(&a.transpose()).unwrap().det();
        assert!((d1 - d2).abs() <= 1e-9 * d1.abs().max(1.0));
    }
}

#[test]
fn det_product_rule() {
    let mut rng = StdRng::seed_from_u64(0x11ec);
    for _ in 0..64 {
        let a = diag_dominant(&mut rng, 4);
        let b = diag_dominant(&mut rng, 4);
        let ab = (&a * &b).unwrap();
        let dab = Lu::factor(&ab).unwrap().det();
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        assert!((dab - da * db).abs() <= 1e-7 * dab.abs().max(1.0));
    }
}

#[test]
fn inverse_is_two_sided() {
    let mut rng = StdRng::seed_from_u64(0x11ed);
    for _ in 0..64 {
        let a = diag_dominant(&mut rng, 6);
        let lu = Lu::factor(&a).unwrap();
        let inv = lu.inverse().unwrap();
        let left = (&inv * &a).unwrap();
        let right = (&a * &inv).unwrap();
        let i = Matrix::identity(6);
        assert!((&left - &i).unwrap().norm_inf() < 1e-9);
        assert!((&right - &i).unwrap().norm_inf() < 1e-9);
    }
}

#[test]
fn transposed_solve_consistent() {
    let mut rng = StdRng::seed_from_u64(0x11ee);
    for _ in 0..64 {
        let a = diag_dominant(&mut rng, 5);
        let b = rand_vec(&mut rng, 5, -3.0, 3.0);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_transposed(&b).unwrap();
        // Check Aᵗ·x = b directly.
        let atx = a.transpose().mul_vec(&x).unwrap();
        for (u, v) in b.iter().zip(&atx) {
            assert!((u - v).abs() < 1e-9 * (1.0 + u.abs()));
        }
    }
}

#[test]
fn factor_never_panics() {
    // Either factors or reports singularity; must not panic or return
    // non-finite determinants on success.
    let mut rng = StdRng::seed_from_u64(0x11ef);
    for _ in 0..128 {
        let a = any_square(&mut rng, 6);
        if let Ok(lu) = Lu::factor(&a) {
            assert!(lu.det().is_finite());
        }
    }
}

#[test]
fn matmul_associative() {
    let mut rng = StdRng::seed_from_u64(0x11f0);
    for _ in 0..64 {
        let a = diag_dominant(&mut rng, 3);
        let b = diag_dominant(&mut rng, 3);
        let c = diag_dominant(&mut rng, 3);
        let left = (&(&a * &b).unwrap() * &c).unwrap();
        let right = (&a * &(&b * &c).unwrap()).unwrap();
        let diff = (&left - &right).unwrap();
        let scale = left.norm_inf().max(1.0);
        assert!(diff.norm_inf() <= 1e-9 * scale);
    }
}
