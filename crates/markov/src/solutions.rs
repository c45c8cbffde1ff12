//! Stationary and transient solutions of a CTMC.

use crate::ctmc::Ctmc;
use crate::matrix::Matrix;
use crate::{Error, Result};

/// Computes the stationary distribution `π` of an irreducible CTMC
/// (`π·Q = 0`, `Σπᵢ = 1`) by GTH state reduction (Grassmann, Taksar &
/// Heyman, *Operations Research* 33(5), 1985).
///
/// States are folded into the lower-numbered ones from the last down.
/// Each folded state's exit rate to the states that remain is recomputed
/// as a sum of rates, never obtained by a subtraction, so every operation
/// is on non-negative quantities: the result is non-negative by
/// construction and carries componentwise relative accuracy however stiff
/// the chain is — the same property [`crate::AbsorbingAnalysis`] relies on.
///
/// # Errors
///
/// * [`Error::NotIrreducible`] if the chain has absorbing states, or a
///   state has no way back to the lower-numbered states once the higher
///   ones are folded in (a zero pivot sum) — the chain is reducible.
/// * [`Error::NotFinite`] if a rate sum overflows.
///
/// # Example
///
/// ```
/// use nsr_markov::{CtmcBuilder, stationary_distribution};
///
/// # fn main() -> Result<(), nsr_markov::Error> {
/// // Two-state machine: fails at rate 1, repairs at rate 9.
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 1.0)?;
/// b.add_transition(down, up, 9.0)?;
/// let pi = stationary_distribution(&b.build()?)?;
/// assert!((pi[0] - 0.9).abs() < 1e-12); // availability
/// # Ok(())
/// # }
/// ```
pub fn stationary_distribution(ctmc: &Ctmc) -> Result<Vec<f64>> {
    if !ctmc.absorbing_states().is_empty() {
        return Err(Error::NotIrreducible);
    }
    let n = ctmc.len();
    // Row-major off-diagonal rates; the diagonal is never read.
    let mut a = vec![0.0; n * n];
    for t in ctmc.transitions() {
        a[t.from.index() * n + t.to.index()] += t.rate;
    }
    for k in (1..n).rev() {
        let (above, rest) = a.split_at_mut(k * n);
        let row_k = &rest[..k];
        let s: f64 = row_k.iter().sum();
        if s == 0.0 {
            return Err(Error::NotIrreducible);
        }
        if !s.is_finite() {
            return Err(Error::NotFinite {
                op: "stationary GTH solve",
            });
        }
        // (i, k) becomes the rate i → k per unit of k's exit rate; k's
        // outflow is rerouted to the states it would next enter.
        for (i, row_i) in above.chunks_exact_mut(n).enumerate() {
            let f = row_i[k] / s;
            row_i[k] = f;
            if f == 0.0 {
                continue;
            }
            for (j, &akj) in row_k.iter().enumerate() {
                if j != i {
                    row_i[j] += f * akj;
                }
            }
        }
    }
    // Back-substitute from π₀ = 1: π_k = Σ_{i<k} π_i·(i, k), then scale.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        pi[k] = (0..k).map(|i| pi[i] * a[i * n + k]).sum();
    }
    let total: f64 = pi.iter().sum();
    if !total.is_finite() {
        return Err(Error::NotFinite {
            op: "stationary GTH solve",
        });
    }
    for p in &mut pi {
        *p /= total;
    }
    Ok(pi)
}

/// Computes the transient state distribution `π(t)` by uniformization:
///
/// ```text
/// π(t) = Σ_k  e^{−Λt} (Λt)^k / k!  ·  π(0)·Pᵏ,     P = I + Q/Λ
/// ```
///
/// with the Poisson series truncated once its remaining mass drops below
/// `tol`. Works for any chain (absorbing or not).
///
/// # Errors
///
/// * [`Error::InvalidArgument`] if `t < 0`, `tol` is not in `(0, 1)`, or
///   `pi0` is not a distribution over the chain's states.
///
/// # Example
///
/// ```
/// use nsr_markov::{CtmcBuilder, transient_distribution};
///
/// # fn main() -> Result<(), nsr_markov::Error> {
/// let mut b = CtmcBuilder::new();
/// let up = b.add_state("up");
/// let down = b.add_state("down");
/// b.add_transition(up, down, 1.0)?;
/// let ctmc = b.build()?;
/// let mut pi0 = vec![1.0, 0.0];
/// let pi = transient_distribution(&ctmc, &pi0, 1.0, 1e-12)?;
/// // P(still up at t=1) = e^{-1}
/// assert!((pi[0] - (-1.0f64).exp()).abs() < 1e-9);
/// # pi0[0] = 1.0;
/// # Ok(())
/// # }
/// ```
pub fn transient_distribution(ctmc: &Ctmc, pi0: &[f64], t: f64, tol: f64) -> Result<Vec<f64>> {
    let n = ctmc.len();
    if pi0.len() != n {
        return Err(Error::InvalidArgument {
            what: "pi0 length must equal state count",
        });
    }
    if !(t >= 0.0 && t.is_finite()) {
        return Err(Error::InvalidArgument {
            what: "t must be finite and >= 0",
        });
    }
    if !(tol > 0.0 && tol < 1.0) {
        return Err(Error::InvalidArgument {
            what: "tol must be in (0, 1)",
        });
    }
    let mass: f64 = pi0.iter().sum();
    if pi0.iter().any(|&p| p < 0.0) || (mass - 1.0).abs() > 1e-9 {
        return Err(Error::InvalidArgument {
            what: "pi0 must be a probability distribution",
        });
    }
    if t == 0.0 {
        return Ok(pi0.to_vec());
    }

    let (p, lambda) = uniformized(ctmc);
    let lt = lambda * t;
    // Poisson(lt) weights computed iteratively in log space for stability.
    let mut result = vec![0.0; n];
    // Double-buffered power iteration: π0·P^k ping-pongs between `v` and
    // `next` so the (possibly thousands of) uniformization steps are
    // allocation-free after setup.
    let mut v = pi0.to_vec(); // π0 · P^k
    let mut next = vec![0.0; n];
    let mut log_w = -lt; // log of Poisson(k=0) weight
    let mut cum = 0.0;
    let mut k: u64 = 0;
    // Hard cap prevents pathological loops; Poisson mass is concentrated
    // around lt with width ~sqrt(lt).
    let cap = (lt + 10.0 * lt.sqrt() + 50.0) as u64;
    loop {
        let w = log_w.exp();
        if w > 0.0 {
            for (r, &x) in result.iter_mut().zip(&v) {
                *r += w * x;
            }
            cum += w;
        }
        if 1.0 - cum < tol || k >= cap {
            break;
        }
        p.vec_mul_into(&v, &mut next)?;
        std::mem::swap(&mut v, &mut next);
        k += 1;
        log_w += (lt / k as f64).ln();
    }
    // Guard against truncation drift.
    let total: f64 = result.iter().sum();
    if total != 0.0 && total.is_finite() {
        for r in &mut result {
            *r /= total;
        }
    }
    Ok(result)
}

/// Returns the uniformized DTMC transition matrix `P = I + Q/Λ` and the
/// uniformization constant `Λ` used (1.02 × max exit rate).
///
/// Useful for callers that want to iterate the embedded uniformized chain
/// themselves (e.g. for repeated transient queries at many horizons).
pub fn uniformized(ctmc: &Ctmc) -> (Matrix, f64) {
    let lambda = ctmc.max_total_rate() * 1.02 + 1e-300;
    let mut p = ctmc.generator().scaled(1.0 / lambda);
    for i in 0..ctmc.len() {
        p[(i, i)] += 1.0;
    }
    (p, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn machine(fail: f64, repair: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up");
        let down = b.add_state("down");
        b.add_transition(up, down, fail).unwrap();
        b.add_transition(down, up, repair).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn stationary_two_state() {
        let c = machine(2.0, 8.0);
        let pi = stationary_distribution(&c).unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stationary_birth_death() {
        // M/M/1-like 3-state birth-death chain; detailed balance gives
        // geometric stationary probabilities.
        let (lam, mu) = (1.0, 2.0);
        let mut b = CtmcBuilder::new();
        let s: Vec<_> = (0..3).map(|i| b.add_state(format!("{i}"))).collect();
        b.add_transition(s[0], s[1], lam).unwrap();
        b.add_transition(s[1], s[2], lam).unwrap();
        b.add_transition(s[1], s[0], mu).unwrap();
        b.add_transition(s[2], s[1], mu).unwrap();
        let pi = stationary_distribution(&b.build().unwrap()).unwrap();
        let rho: f64 = lam / mu;
        let z = 1.0 + rho + rho * rho;
        assert!((pi[0] - 1.0 / z).abs() < 1e-12);
        assert!((pi[1] - rho / z).abs() < 1e-12);
        assert!((pi[2] - rho * rho / z).abs() < 1e-12);
    }

    #[test]
    fn stationary_rejects_absorbing() {
        let mut b = CtmcBuilder::new();
        let x = b.add_state("x");
        let y = b.add_state("y");
        b.add_transition(x, y, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(
            stationary_distribution(&c).unwrap_err(),
            Error::NotIrreducible
        ));
    }

    #[test]
    fn transient_matches_exponential_decay() {
        let c = machine(0.5, 0.0001);
        // Nearly-pure decay from "up": P(up, t) ≈ e^{-0.5 t} for small t.
        let pi = transient_distribution(&c, &[1.0, 0.0], 0.1, 1e-13).unwrap();
        let expected = (-0.05f64).exp();
        assert!((pi[0] - expected).abs() < 1e-4, "{} vs {expected}", pi[0]);
    }

    #[test]
    fn transient_converges_to_stationary() {
        let c = machine(1.0, 3.0);
        let pi_inf = stationary_distribution(&c).unwrap();
        let pi_t = transient_distribution(&c, &[1.0, 0.0], 50.0, 1e-12).unwrap();
        for (a, b) in pi_inf.iter().zip(&pi_t) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let c = machine(1.0, 1.0);
        let pi = transient_distribution(&c, &[0.3, 0.7], 0.0, 1e-12).unwrap();
        assert_eq!(pi, vec![0.3, 0.7]);
    }

    #[test]
    fn transient_validates_arguments() {
        let c = machine(1.0, 1.0);
        assert!(transient_distribution(&c, &[1.0], 1.0, 1e-12).is_err());
        assert!(transient_distribution(&c, &[1.0, 0.0], -1.0, 1e-12).is_err());
        assert!(transient_distribution(&c, &[1.0, 0.0], 1.0, 0.0).is_err());
        assert!(transient_distribution(&c, &[0.6, 0.6], 1.0, 1e-12).is_err());
        assert!(transient_distribution(&c, &[-0.5, 1.5], 1.0, 1e-12).is_err());
    }

    #[test]
    fn uniformized_is_stochastic() {
        let c = machine(2.0, 5.0);
        let (p, lambda) = uniformized(&c);
        assert!(lambda >= 5.0);
        for r in 0..2 {
            let sum: f64 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }
}
