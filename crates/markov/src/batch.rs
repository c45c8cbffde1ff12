//! Batched absorbing-chain solves over a fixed topology.
//!
//! A capacity-planning grid evaluates the *same* chain skeleton at
//! thousands of rate points: every grid point with the same topology
//! class (internal RAID? fault tolerance?) shares states, transitions
//! and — because GTH elimination order depends only on structure — the
//! same elimination fill pattern. [`crate::AbsorbingAnalysis`] builds
//! and eliminates a dense `m × m` table per chain; [`BatchSolver`] does
//! the structural work once:
//!
//! 1. **Symbolic elimination** over the skeleton's structure finds every
//!    fill position the numeric elimination could ever create, producing
//!    a static CSR layout (structural nonzeros + predicted fill).
//! 2. A flat **elimination program** is precompiled: per pivot, the
//!    feeder rows and the destination slot of every update, resolved to
//!    CSR indices so the numeric pass is straight-line array arithmetic
//!    with no searches and no insertions.
//! 3. A **scatter map** routes each skeleton transition's rate to its
//!    CSR slot (or to the absorption vector), so loading a new rate
//!    vector is one pass over the transitions.
//!
//! The compiled result is a [`BatchProgram`]: immutable, a pure function
//! of the skeleton's structure, and shareable behind an `Arc` by any
//! number of solvers on any number of threads. A [`BatchSolver`] is one
//! program plus its own numeric scratch, allocated once when the solver
//! is made; [`BatchSolver::solve_mtta`] performs **zero allocations**
//! (pinned by an alloc-counting test in `tests/batch_alloc.rs`).
//!
//! # Bit-identical results
//!
//! The numeric pass replays the dense reference elimination's
//! arithmetic exactly: same descending elimination order, same
//! ascending-column accumulation, same `f == 0` / `add > 0` skip guards.
//! Positions outside the pattern hold `+0.0` in the dense table, and
//! slots that exist structurally but hold a zero rate (the builder would
//! have dropped the transition; [`Ctmc::with_rates`] does the same)
//! hold it here: both contribute exact `+0.0` identities to the
//! non-negative sums and are skipped by the same guards, so the result
//! is bit-for-bit what
//! `AbsorbingAnalysis::new(&skeleton.with_rates(rates)?)` computes.
//! Tests in this module and `tests/proptests.rs` assert the equality
//! with `to_bits`.
//!
//! One structural caveat: the solver fixes the transient/absorbing
//! partition at construction. A rate vector that silences *every*
//! outgoing transition of some transient state (making it absorbing in
//! the re-rated chain) fails the elimination with a
//! [`crate::Error::Singular`] pivot rather than silently diverging
//! from the rebuild-from-scratch semantics. Likewise a rate vector whose
//! elimination overflows is refused with
//! [`crate::Error::NotFinite`] — the reference refuses the same
//! chain — so an infinite or NaN MTTA never leaves the solver as a
//! number.

use std::sync::Arc;

use crate::builder::StateId;
use crate::ctmc::Ctmc;
use crate::{Error, Result};

/// Where one skeleton transition's rate lands when a rate vector is
/// loaded.
#[derive(Debug, Clone, Copy)]
enum Scatter {
    /// CSR value slot (transient → transient).
    Slot(u32),
    /// Absorption-rate row (transient → absorbing).
    Absorb(u32),
}

/// One feeder entry of the elimination program: row `row` holds a
/// structural-or-fill entry at column `t` (the pivot being eliminated)
/// in CSR slot `slot_it`, and its per-update destination slots start at
/// `dest_start` in the flattened destination table.
#[derive(Debug, Clone, Copy)]
struct Feeder {
    row: u32,
    slot_it: u32,
    dest_start: u32,
}

/// Destination-slot sentinel for updates that the dynamic algorithm
/// skips because the fill would land on the feeder's own diagonal
/// (`j == i`).
const SKIP: u32 = u32::MAX;

/// The compiled elimination program of one chain skeleton: filled CSR
/// pattern, rate scatter map and per-pivot feeder program. Immutable
/// once compiled — every [`BatchSolver`] built from the same `Arc` reads
/// it concurrently and keeps its numeric state to itself.
#[derive(Debug)]
pub struct BatchProgram {
    /// Transient-state count.
    m: usize,
    /// Transient row of the root state MTTA is reported from.
    root: usize,
    /// Skeleton transition endpoints, for rate-validation errors.
    endpoints: Vec<(u32, u32)>,
    /// Rate scatter map, one entry per skeleton transition.
    scatter: Vec<Scatter>,
    /// Static CSR structure: sorted columns per row, including predicted
    /// fill.
    col: Vec<u32>,
    row_start: Vec<u32>,
    /// Per row, the CSR index of the first entry with `col >= row` — the
    /// end of the "prefix" (columns below the diagonal) the elimination
    /// folds.
    split: Vec<u32>,
    /// Per pivot `t`, its feeders occupy
    /// `feeders[feeder_start[t]..feeder_start[t + 1]]`.
    feeder_start: Vec<u32>,
    feeders: Vec<Feeder>,
    /// Flattened destination slots: each feeder of pivot `t` owns
    /// `prefix_len(t)` consecutive entries.
    dest: Vec<u32>,
    /// Structural (pre-fill) nonzero count, for diagnostics.
    structural_nnz: usize,
}

/// A reusable solver for many rate vectors over one chain skeleton: a
/// shared [`BatchProgram`] plus this solver's numeric scratch.
///
/// Construct once per topology class with [`BatchSolver::new`] (or
/// [`BatchSolver::with_program`] when the program is already compiled),
/// then call [`BatchSolver::solve_mtta`] per grid point. See the module
/// docs for the equality and allocation contracts.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    program: Arc<BatchProgram>,
    /// Per-solve scratch in one allocation: `val` (one per CSR slot),
    /// then `qa`, `rhs`, `exit` and `x` (one per transient state each).
    scratch: Vec<f64>,
    /// Solves performed by this instance.
    solves: u64,
}

impl BatchProgram {
    /// Compiles the elimination program for `skeleton`, reporting MTTA
    /// from `root`.
    ///
    /// The skeleton's rates are placeholders (the sweep convention:
    /// structure only); they are ignored except to define which
    /// `(from, to)` pairs exist.
    ///
    /// # Errors
    ///
    /// * [`Error::NoTransientState`] / [`Error::NoAbsorbingState`] if the
    ///   chain is not absorbing.
    /// * [`Error::UnknownState`] / [`Error::StateNotTransient`] for a bad
    ///   root.
    pub fn compile(skeleton: &Ctmc, root: StateId) -> Result<BatchProgram> {
        if root.index() >= skeleton.len() {
            return Err(Error::UnknownState {
                state: root.index(),
                len: skeleton.len(),
            });
        }
        let transient = skeleton.transient_states();
        if transient.is_empty() {
            return Err(Error::NoTransientState);
        }
        if transient.len() == skeleton.len() {
            return Err(Error::NoAbsorbingState);
        }
        let mut pos = vec![usize::MAX; skeleton.len()];
        for (i, s) in transient.iter().enumerate() {
            pos[s.index()] = i;
        }
        if pos[root.index()] == usize::MAX {
            return Err(Error::StateNotTransient {
                state: root.index(),
            });
        }
        let m = transient.len();

        // Structural pattern and the rate scatter map. Duplicate
        // transitions between the same pair share a slot (their rates
        // accumulate, as in the reference's dense table).
        let mut rows_sym: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut endpoints = Vec::with_capacity(skeleton.transitions().len());
        let mut routes = Vec::with_capacity(skeleton.transitions().len());
        for tr in skeleton.transitions() {
            let i = pos[tr.from.index()];
            debug_assert_ne!(i, usize::MAX, "absorbing states have no transitions");
            endpoints.push((tr.from.index() as u32, tr.to.index() as u32));
            let j = pos[tr.to.index()];
            if j == usize::MAX {
                routes.push(None); // absorbing destination
            } else {
                if let Err(k) = rows_sym[i].binary_search(&j) {
                    rows_sym[i].insert(k, j);
                }
                routes.push(Some((i, j)));
            }
        }
        let structural_nnz = rows_sym.iter().map(Vec::len).sum();

        // Symbolic elimination: replay the pivot loop on the pattern
        // alone, inserting every position the numeric pass could fill.
        // The numeric guards (`f == 0`, `add > 0`) can only *skip*
        // positions predicted here, never add new ones, so the final
        // pattern is a static superset holding exact zeros where the
        // dynamic algorithm holds nothing.
        for t in (0..m).rev() {
            let prefix: Vec<usize> = rows_sym[t].iter().copied().filter(|&j| j < t).collect();
            let feeders: Vec<usize> = (0..t)
                .filter(|&i| rows_sym[i].binary_search(&t).is_ok())
                .collect();
            for &i in &feeders {
                for &j in &prefix {
                    if j == i {
                        continue;
                    }
                    if let Err(k) = rows_sym[i].binary_search(&j) {
                        rows_sym[i].insert(k, j);
                    }
                }
            }
        }

        // Freeze the filled pattern as CSR and index it by column.
        let mut col = Vec::with_capacity(rows_sym.iter().map(Vec::len).sum());
        let mut row_start = Vec::with_capacity(m + 1);
        let mut split = Vec::with_capacity(m);
        for (i, row) in rows_sym.iter().enumerate() {
            row_start.push(col.len() as u32);
            col.extend(row.iter().map(|&j| j as u32));
            // First entry at or above the diagonal ends the prefix.
            let base = row_start[i] as usize;
            split.push((base + row.iter().take_while(|&&j| j < i).count()) as u32);
        }
        row_start.push(col.len() as u32);
        let slot_of = |i: usize, j: usize| -> u32 {
            let lo = row_start[i] as usize;
            let hi = row_start[i + 1] as usize;
            let k = col[lo..hi]
                .binary_search(&(j as u32))
                .expect("pattern contains slot");
            (lo + k) as u32
        };

        let scatter = routes
            .into_iter()
            .enumerate()
            .map(|(idx, route)| match route {
                None => {
                    let from = endpoints[idx].0;
                    Scatter::Absorb(pos[from as usize] as u32)
                }
                Some((i, j)) => Scatter::Slot(slot_of(i, j)),
            })
            .collect::<Vec<_>>();

        // Compile the per-pivot feeder program against the frozen
        // pattern. Feeders and prefixes read the *final* pattern: fill
        // into column `t` is only ever created while eliminating pivots
        // above `t`, and fill into row `t`'s prefix likewise, so by the
        // time the numeric pass reaches pivot `t` the live structure
        // equals the static one (extra slots hold exact zeros).
        let mut feeder_start = Vec::with_capacity(m + 1);
        let mut feeders = Vec::new();
        let mut dest = Vec::new();
        // Iteration below runs t ascending for storage, but the numeric
        // pass walks pivots descending; feeder_start is indexed by t so
        // the order of storage is immaterial.
        for t in 0..m {
            feeder_start.push(feeders.len() as u32);
            let prefix_lo = row_start[t] as usize;
            let prefix_hi = split[t] as usize;
            for i in 0..t {
                let lo = row_start[i] as usize;
                let hi = row_start[i + 1] as usize;
                let Ok(k) = col[lo..hi].binary_search(&(t as u32)) else {
                    continue;
                };
                let dest_start = dest.len() as u32;
                for &cj in &col[prefix_lo..prefix_hi] {
                    let j = cj as usize;
                    dest.push(if j == i { SKIP } else { slot_of(i, j) });
                }
                feeders.push(Feeder {
                    row: i as u32,
                    slot_it: (lo + k) as u32,
                    dest_start,
                });
            }
        }
        feeder_start.push(feeders.len() as u32);

        crate::obs::BATCH_BUILDS.inc();
        Ok(BatchProgram {
            m,
            root: pos[root.index()],
            endpoints,
            scatter,
            col,
            row_start,
            split,
            feeder_start,
            feeders,
            dest,
            structural_nnz,
        })
    }
}

impl BatchSolver {
    /// Compiles the elimination program for `skeleton` and wraps it in a
    /// solver reporting MTTA from `root`.
    ///
    /// # Errors
    ///
    /// Same as [`BatchProgram::compile`].
    pub fn new(skeleton: &Ctmc, root: StateId) -> Result<BatchSolver> {
        Ok(BatchSolver::with_program(Arc::new(BatchProgram::compile(
            skeleton, root,
        )?)))
    }

    /// A solver over an already-compiled program: allocates this
    /// solver's scratch and nothing else.
    pub fn with_program(program: Arc<BatchProgram>) -> BatchSolver {
        let scratch = vec![0.0; program.col.len() + 4 * program.m];
        BatchSolver {
            program,
            scratch,
            solves: 0,
        }
    }

    /// Number of skeleton transitions (the expected rate-vector length).
    pub fn transitions(&self) -> usize {
        self.program.scatter.len()
    }

    /// Fill slots the symbolic pass added beyond the structural nonzeros.
    pub fn fill(&self) -> usize {
        self.program.col.len() - self.program.structural_nnz
    }

    /// Solves performed by this instance since construction.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Mean time to absorption from the root under `rates` (one rate per
    /// skeleton transition, in [`Ctmc::transitions`] order).
    ///
    /// Allocation-free; bit-identical to
    /// `AbsorbingAnalysis::new(&skeleton.with_rates(rates)?)?
    ///     .mean_time_to_absorption(root)` (see module docs). Runs inside
    /// a `markov.batch.solve` span.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidArgument`] on a rate-vector length mismatch.
    /// * [`Error::InvalidRate`] for negative, NaN or infinite rates.
    /// * [`Error::Singular`] if some state cannot reach absorption under
    ///   these rates.
    /// * [`Error::NotFinite`] if the elimination overflowed and the
    ///   root's MTTA is infinite or NaN.
    pub fn solve_mtta(&mut self, rates: &[f64]) -> Result<f64> {
        let _span = nsr_obs::trace::Span::enter("markov.batch.solve");
        let p = &*self.program;
        if rates.len() != p.scatter.len() {
            return Err(Error::InvalidArgument {
                what: "rate vector length must match the transition count",
            });
        }
        for (idx, &rate) in rates.iter().enumerate() {
            if !(rate.is_finite() && rate >= 0.0) {
                let (from, to) = p.endpoints[idx];
                return Err(Error::InvalidRate {
                    from: from as usize,
                    to: to as usize,
                    rate,
                });
            }
        }
        let (val, rest) = self.scratch.split_at_mut(p.col.len());
        let (qa, rest) = rest.split_at_mut(p.m);
        let (rhs, rest) = rest.split_at_mut(p.m);
        let (exit, x) = rest.split_at_mut(p.m);
        val.fill(0.0);
        qa.fill(0.0);
        rhs.fill(1.0);
        for (&s, &rate) in p.scatter.iter().zip(rates) {
            match s {
                Scatter::Slot(k) => val[k as usize] += rate,
                Scatter::Absorb(i) => qa[i as usize] += rate,
            }
        }

        // Forward elimination, pivots descending — the dynamic
        // algorithm's loop with all searches pre-resolved.
        for t in (0..p.m).rev() {
            let prefix_lo = p.row_start[t] as usize;
            let prefix_hi = p.split[t] as usize;
            let mut d = qa[t];
            for &v in &val[prefix_lo..prefix_hi] {
                d += v;
            }
            if d <= 0.0 {
                return Err(Error::Singular { pivot: t });
            }
            exit[t] = d;
            let (r_t, qa_t) = (rhs[t], qa[t]);
            let f_lo = p.feeder_start[t] as usize;
            let f_hi = p.feeder_start[t + 1] as usize;
            for &Feeder {
                row,
                slot_it,
                dest_start,
            } in &p.feeders[f_lo..f_hi]
            {
                let i = row as usize;
                let f = val[slot_it as usize] / d;
                if f == 0.0 {
                    continue;
                }
                rhs[i] += f * r_t;
                qa[i] += f * qa_t;
                for (pi, dk) in (prefix_lo..prefix_hi).zip(dest_start as usize..) {
                    let slot = p.dest[dk];
                    if slot == SKIP {
                        continue;
                    }
                    let add = f * val[pi];
                    if add > 0.0 {
                        val[slot as usize] += add;
                    }
                }
            }
        }

        // Back-substitution, ascending pivots and columns.
        for t in 0..p.m {
            let mut acc = rhs[t];
            let lo = p.row_start[t] as usize;
            let hi = p.split[t] as usize;
            for pi in lo..hi {
                acc += val[pi] * x[p.col[pi] as usize];
            }
            x[t] = acc / exit[t];
        }
        let mtta = x[p.root];
        if !mtta.is_finite() {
            return Err(Error::NotFinite {
                op: "batched GTH solve",
            });
        }
        self.solves += 1;
        crate::obs::BATCH_SOLVES.inc();
        Ok(mtta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbsorbingAnalysis, CtmcBuilder};

    /// Reference answer through the rebuild-from-scratch path.
    fn oracle(skeleton: &Ctmc, root: StateId, rates: &[f64]) -> f64 {
        let chain = skeleton.with_rates(rates).unwrap();
        AbsorbingAnalysis::new(&chain)
            .unwrap()
            .mean_time_to_absorption(root)
            .unwrap()
    }

    fn birth_death(depth: usize) -> (Ctmc, StateId) {
        let mut b = CtmcBuilder::new();
        let states: Vec<StateId> = (0..=depth).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..depth {
            b.add_transition(states[i], states[i + 1], 1.0).unwrap();
            b.add_transition(states[i + 1], states[i], 1.0).unwrap();
        }
        b.add_transition(states[depth], dead, 1.0).unwrap();
        (b.build().unwrap(), states[0])
    }

    #[test]
    fn birth_death_bit_identical_to_analysis() {
        let (skel, root) = birth_death(6);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        assert_eq!(solver.fill(), 0, "birth–death elimination is fill-free");
        let n = solver.transitions();
        for variant in 0..8u32 {
            let rates: Vec<f64> = (0..n)
                .map(|k| 1e-6 * (1.0 + (k as f64) * 0.37) * (1.0 + f64::from(variant)))
                .collect();
            let got = solver.solve_mtta(&rates).unwrap();
            let want = oracle(&skel, root, &rates);
            assert_eq!(got.to_bits(), want.to_bits(), "variant {variant}");
        }
        assert_eq!(solver.solves(), 8);
    }

    #[test]
    fn cyclic_fill_bit_identical_to_analysis() {
        // A 4-cycle: elimination creates fill.
        let mut b = CtmcBuilder::new();
        let s: Vec<StateId> = (0..4).map(|i| b.add_state(format!("{i}"))).collect();
        let dead = b.add_state("dead");
        for i in 0..4 {
            b.add_transition(s[i], s[(i + 1) % 4], 1.0).unwrap();
        }
        b.add_transition(s[2], dead, 2.0).unwrap();
        let skel = b.build().unwrap();
        let mut solver = BatchSolver::new(&skel, s[0]).unwrap();
        assert!(solver.fill() > 0);
        let rates = [0.9, 1.7, 0.3, 2.2, 5.0];
        let got = solver.solve_mtta(&rates).unwrap();
        let want = oracle(&skel, s[0], &rates);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn zero_rates_match_dropped_transitions() {
        // `with_rates` drops zero-rate transitions entirely; the batch
        // solver keeps the slot with an exact 0.0. Both must agree as
        // long as every transient state keeps a live exit path.
        let mut b = CtmcBuilder::new();
        let a = b.add_state("a");
        let c = b.add_state("c");
        let dead = b.add_state("dead");
        b.add_transition(a, c, 1.0).unwrap();
        b.add_transition(c, a, 1.0).unwrap();
        b.add_transition(a, dead, 1.0).unwrap();
        b.add_transition(c, dead, 1.0).unwrap();
        let skel = b.build().unwrap();
        let mut solver = BatchSolver::new(&skel, a).unwrap();
        let rates = [0.0, 0.5, 0.25, 1.5];
        let got = solver.solve_mtta(&rates).unwrap();
        let want = oracle(&skel, a, &rates);
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn silenced_state_reports_singular() {
        let (skel, root) = birth_death(2);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        let zero = vec![0.0; solver.transitions()];
        match solver.solve_mtta(&zero) {
            Err(Error::Singular { .. }) => {}
            other => panic!("expected singular pivot, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_result_is_a_typed_error() {
        // Rates so small that 1/rate overflows: the back-substitution
        // yields +inf, which must not leave the solver as an MTTA.
        let (skel, root) = birth_death(2);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        let tiny = vec![1e-310; solver.transitions()];
        match solver.solve_mtta(&tiny) {
            Err(Error::NotFinite { .. }) => {}
            other => panic!("expected a non-finite error, got {other:?}"),
        }
        assert_eq!(solver.solves(), 0, "a refused solve is not counted");
        // The solver is still usable afterwards.
        let ok = vec![1.0; solver.transitions()];
        assert!(solver.solve_mtta(&ok).unwrap().is_finite());
    }

    #[test]
    fn oracle_and_engine_refuse_an_overflowing_chain_alike() {
        let (skel, root) = birth_death(2);
        let tiny = vec![1e-310; skel.transitions().len()];
        let engine = BatchSolver::new(&skel, root).unwrap().solve_mtta(&tiny);
        let oracle = AbsorbingAnalysis::new(&skel.with_rates(&tiny).unwrap());
        for refused in [engine.map(|_| ()), oracle.map(|_| ())] {
            match refused {
                Err(Error::NotFinite { .. }) => {}
                other => panic!("expected a non-finite error, got {other:?}"),
            }
        }
    }

    #[test]
    fn solvers_sharing_a_program_keep_their_own_scratch() {
        let (skel, root) = birth_death(5);
        let program = Arc::new(BatchProgram::compile(&skel, root).unwrap());
        let mut a = BatchSolver::with_program(Arc::clone(&program));
        let mut b = BatchSolver::with_program(program);
        let n = a.transitions();
        let ra: Vec<f64> = (0..n).map(|k| 1e-3 * (1.0 + k as f64)).collect();
        let rb: Vec<f64> = (0..n).map(|k| 7.0 / (1.0 + k as f64)).collect();
        // Interleaved solves: neither solver sees the other's numbers.
        let a1 = a.solve_mtta(&ra).unwrap();
        let b1 = b.solve_mtta(&rb).unwrap();
        let a2 = a.solve_mtta(&ra).unwrap();
        assert_eq!(a1.to_bits(), a2.to_bits());
        assert_eq!(a1.to_bits(), oracle(&skel, root, &ra).to_bits());
        assert_eq!(b1.to_bits(), oracle(&skel, root, &rb).to_bits());
    }

    #[test]
    fn rate_validation_mirrors_with_rates() {
        let (skel, root) = birth_death(2);
        let mut solver = BatchSolver::new(&skel, root).unwrap();
        let mut rates = vec![1.0; solver.transitions()];
        rates[1] = -1.0;
        assert!(matches!(
            solver.solve_mtta(&rates),
            Err(Error::InvalidRate { .. })
        ));
        let short = vec![1.0; solver.transitions() - 1];
        assert!(matches!(
            solver.solve_mtta(&short),
            Err(Error::InvalidArgument { .. })
        ));
    }

    #[test]
    fn root_must_be_transient() {
        let (skel, _) = birth_death(2);
        let dead = skel.state_by_label("dead").unwrap();
        assert!(matches!(
            BatchSolver::new(&skel, dead),
            Err(Error::StateNotTransient { .. })
        ));
    }
}
