//! Property-based tests for the CTMC toolkit: generator identities, the
//! GTH absorbing analysis against independent oracles, and simulation
//! consistency. Random chains come from the in-repo seeded PRNG.

use nsr_markov::{
    birth_death_mtta, simulate, AbsorbingAnalysis, BatchSolver, Ctmc, CtmcBuilder, StateId,
};
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

/// A random absorbing chain over `n` transient states plus one absorbing
/// state. Every transient state gets a path toward absorption through the
/// "dead" state, so the chain is proper.
fn random_absorbing_chain<R: Rng + ?Sized>(rng: &mut R, n: usize) -> (Ctmc, StateId) {
    let mut b = CtmcBuilder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    for i in 0..n {
        for j in 0..n {
            let r = rng.random_range_f64(0.01, 10.0);
            if i != j && r > 5.0 {
                // Sparse-ish random structure.
                b.add_transition(states[i], states[j], r - 5.0).unwrap();
            }
        }
    }
    for &s in &states {
        // Guaranteed absorption path.
        b.add_transition(s, dead, rng.random_range_f64(0.01, 10.0))
            .unwrap();
    }
    (b.build().unwrap(), states[0])
}

#[test]
fn generator_rows_sum_to_zero() {
    let mut rng = StdRng::seed_from_u64(0xabc_0001);
    for _ in 0..48 {
        let (ctmc, _) = random_absorbing_chain(&mut rng, 5);
        let q = ctmc.generator();
        for r in 0..ctmc.len() {
            let sum: f64 = q.row(r).iter().sum();
            assert!(sum.abs() < 1e-9, "row {r}: {sum}");
        }
    }
}

#[test]
fn mtta_positive_and_bounded_by_slowest_exit() {
    let mut rng = StdRng::seed_from_u64(0xabc_0002);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 5);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let mtta = an.mean_time_to_absorption(root).unwrap();
        assert!(mtta > 0.0 && mtta.is_finite());
        // Lower bound: expected holding time of the root alone.
        assert!(mtta >= 1.0 / ctmc.total_rate(root) - 1e-12);
    }
}

#[test]
fn absorption_probabilities_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(0xabc_0003);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let total: f64 = an
            .absorbing_states()
            .iter()
            .map(|&a| an.absorption_probability(root, a).unwrap())
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }
}

#[test]
fn occupancies_decompose_mtta() {
    let mut rng = StdRng::seed_from_u64(0xabc_0004);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let mtta = an.mean_time_to_absorption(root).unwrap();
        let sum: f64 = an
            .transient_states()
            .iter()
            .map(|&s| an.expected_time_in(root, s).unwrap())
            .sum();
        assert!((sum - mtta).abs() / mtta < 1e-6, "{sum} vs {mtta}");
    }
}

#[test]
fn rate_scaling_scales_time() {
    // Scaling every rate by c divides every expected time by c.
    let mut rng = StdRng::seed_from_u64(0xabc_0005);
    for _ in 0..48 {
        let (ctmc, root) = random_absorbing_chain(&mut rng, 4);
        let scale = rng.random_range_f64(0.1, 10.0);
        let an = AbsorbingAnalysis::new(&ctmc).unwrap();
        let base = an.mean_time_to_absorption(root).unwrap();

        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = ctmc.states().map(|s| b.add_state(ctmc.label(s))).collect();
        for t in ctmc.transitions() {
            b.add_transition(states[t.from.index()], states[t.to.index()], t.rate * scale)
                .unwrap();
        }
        let scaled = b.build().unwrap();
        let an2 = AbsorbingAnalysis::new(&scaled).unwrap();
        let fast = an2.mean_time_to_absorption(states[root.index()]).unwrap();
        assert!((fast * scale - base).abs() / base < 1e-9);
    }
}

#[test]
fn birth_death_oracle_agrees_with_gth() {
    let mut rng = StdRng::seed_from_u64(0xabc_0006);
    for _ in 0..48 {
        let depth = rng.random_range_usize(1, 6);
        // Log-uniform λ over [1e-6, 1e-2); uniform μ over [0.01, 10).
        let lam = 10f64.powf(rng.random_range_f64(-6.0, -2.0));
        let mu = rng.random_range_f64(0.01, 10.0);
        let forward: Vec<f64> = (0..=depth).map(|i| lam * (depth + 1 - i) as f64).collect();
        let backward = vec![mu; depth];
        let oracle = birth_death_mtta(&forward, &backward).unwrap();

        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..=depth {
            let to = if i < depth { states[i + 1] } else { dead };
            b.add_transition(states[i], to, forward[i]).unwrap();
            if i > 0 {
                b.add_transition(states[i], states[i - 1], mu).unwrap();
            }
        }
        let ctmc = b.build().unwrap();
        let gth = AbsorbingAnalysis::new(&ctmc)
            .unwrap()
            .mean_time_to_absorption(states[0])
            .unwrap();
        assert!(
            (oracle - gth).abs() / gth < 1e-9,
            "{oracle:.6e} vs {gth:.6e}"
        );
    }
}

/// A random chain where only *some* transient states can reach absorption
/// directly, some states are isolated feeders, and singular structures
/// (no path to absorption at all) are possible.
fn random_maybe_improper_chain<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Ctmc {
    let mut b = CtmcBuilder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.add_state(format!("{i}"))).collect();
    let dead = b.add_state("dead");
    // Per-chain densities drawn so that both regimes occur: low p_abs
    // chains frequently have no path to absorption at all (singular),
    // while higher ones are proper.
    let p_edge = rng.random_range_f64(0.05, 0.3);
    let p_abs = rng.random_range_f64(0.0, 0.3);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.random_range_f64(0.0, 1.0) < p_edge {
                b.add_transition(states[i], states[j], rng.random_range_f64(0.01, 10.0))
                    .unwrap();
            }
        }
        // Only some states get a direct absorption edge; the rest must
        // route through them (or cannot absorb at all — singular).
        if rng.random_range_f64(0.0, 1.0) < p_abs {
            b.add_transition(states[i], dead, rng.random_range_f64(0.01, 10.0))
                .unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn compiled_program_is_bit_identical_to_the_dense_oracle() {
    // The compiled elimination claims bit-for-bit agreement with the
    // dense reference (same elimination order, same accumulation order,
    // zeros where the reference has none). Pin that with `to_bits`
    // comparisons from every transient root across random chains with
    // fill, including chains with isolated states and absorbing-only
    // corners, where both must agree on singularity too.
    let mut rng = StdRng::seed_from_u64(0xabc_0007);
    let mut proper = 0;
    let mut singular = 0;
    for _ in 0..160 {
        let n = rng.random_range_usize(2, 20);
        let ctmc = random_maybe_improper_chain(&mut rng, n);
        let rates: Vec<f64> = ctmc.transitions().iter().map(|tr| tr.rate).collect();
        let oracle = AbsorbingAnalysis::new(&ctmc);
        for root in ctmc.transient_states() {
            let engine = BatchSolver::new(&ctmc, root).unwrap().solve_mtta(&rates);
            match (&oracle, engine) {
                (Ok(oracle), Ok(mtta)) => assert_eq!(
                    oracle.mean_time_to_absorption(root).unwrap().to_bits(),
                    mtta.to_bits(),
                    "mtta diverged on a {n}-state chain"
                ),
                (Err(_), Err(_)) => {}
                (oracle, engine) => panic!(
                    "disagreed on solvability: oracle {:?} vs engine {engine:?}",
                    oracle.as_ref().map(|_| ())
                ),
            }
        }
        match oracle {
            Ok(_) => proper += 1,
            Err(_) => singular += 1,
        }
    }
    // The generator must actually exercise both regimes.
    assert!(
        proper > 10 && singular > 10,
        "{proper} proper / {singular} singular"
    );
}

#[test]
fn simulation_matches_analysis_on_random_chain() {
    // One deterministic random chain, simulated heavily.
    let mut b = CtmcBuilder::new();
    let s0 = b.add_state("0");
    let s1 = b.add_state("1");
    let s2 = b.add_state("2");
    let dead = b.add_state("dead");
    b.add_transition(s0, s1, 0.8).unwrap();
    b.add_transition(s1, s0, 1.5).unwrap();
    b.add_transition(s1, s2, 0.7).unwrap();
    b.add_transition(s2, s1, 0.9).unwrap();
    b.add_transition(s2, dead, 0.4).unwrap();
    b.add_transition(s0, dead, 0.05).unwrap();
    let ctmc = b.build().unwrap();
    let analytic = AbsorbingAnalysis::new(&ctmc)
        .unwrap()
        .mean_time_to_absorption(s0)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(2718);
    let est = simulate::estimate_mtta(&ctmc, s0, 20_000, &mut rng).unwrap();
    assert!(
        est.contains(analytic, 4.0),
        "simulated {est} vs analytic {analytic}"
    );
}
