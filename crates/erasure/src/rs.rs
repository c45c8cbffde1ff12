//! Systematic Reed–Solomon erasure coding.
//!
//! A redundancy set of size `R = k + t` holds `k` data elements and `t`
//! parity elements; the code reconstructs the originals from **any** `k`
//! surviving elements (maximum distance separable). This realizes the
//! "codes that can tolerate 1, 2 and 3 node failures" of the paper's §3 —
//! for `t = 1` the code degenerates to plain parity (RAID-5-like), and
//! higher `t` gives the multi-failure codes of Frølund et al. \[2\] that the
//! paper builds on.
//!
//! The generator matrix is a systematized Vandermonde matrix: data shards
//! pass through untouched and the `t` parity rows are dense GF(2⁸)
//! combinations.
//!
//! Encode and reconstruct are both "outputs = coefficient rows × sources"
//! and run through one fused kernel (`simd::mul_rows*`: one pass over the
//! sources per 64-byte strip, outputs in registers). Its bit-matrices are
//! built once — the parity rows in [`ReedSolomon::new`], the decode rows
//! in [`ReedSolomon::plan_reconstruction`] — so a call allocates nothing.
//! Without GFNI/AVX-512 the per-row `mul_into`/`mul_acc` loop runs
//! instead; it is also the tests' oracle for the kernel.

use crate::gf256::{mul_acc, mul_into, Gf};
use crate::matrix::GfMatrix;
use crate::simd::{mul_matrix, mul_rows, mul_rows_within};
use crate::{Error, Result};

/// A precomputed reconstruction plan for one erasure pattern.
///
/// Building a plan inverts the `k × k` decode matrix once and turns its
/// rows into the fused kernel's bit-matrices; applying it is one pass over
/// the `k` survivors, independent of how many shards survived. Callers
/// that see the same failure pattern repeatedly (degraded reads under a
/// down node) should build the plan once and reuse it; see
/// [`ReedSolomon::plan_reconstruction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodePlan {
    /// Missing shard indices, sorted ascending.
    missing: Vec<usize>,
    /// The `k` survivor indices whose shards feed reconstruction.
    survivors: Vec<usize>,
    /// One `k`-coefficient row per missing shard:
    /// `shard[missing[j]] = Σ_c rows[j][c] · shard[survivors[c]]`.
    rows: Vec<Vec<Gf>>,
    /// The same rows as bit-matrices, row-major `missing.len() × k`.
    bits: Vec<u64>,
}

impl DecodePlan {
    /// The erasure pattern this plan reconstructs (sorted ascending).
    pub fn missing(&self) -> &[usize] {
        &self.missing
    }

    /// The `k` survivor shards the plan reads from.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// The coefficient row that rebuilds position `pos`, if the plan
    /// rebuilds it.
    fn row_of(&self, pos: usize) -> Option<usize> {
        self.missing.binary_search(&pos).ok()
    }
}

/// A systematic Reed–Solomon erasure code with fixed geometry.
///
/// # Example
///
/// ```
/// use nsr_erasure::rs::ReedSolomon;
///
/// # fn main() -> Result<(), nsr_erasure::Error> {
/// let code = ReedSolomon::new(4, 2)?;
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
/// let shards = code.encode(&data)?;
/// assert_eq!(shards.len(), 6);
/// assert_eq!(&shards[0], &data[0]); // systematic: data passes through
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReedSolomon {
    data_shards: usize,
    parity_shards: usize,
    /// The full `(k+t) × k` systematic generator matrix.
    generator: GfMatrix,
    /// The `t` parity rows as bit-matrices, row-major `t × k`.
    parity_bits: Vec<u64>,
}

impl ReedSolomon {
    /// Creates a code with `data_shards` data and `parity_shards` parity
    /// elements.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGeometry`] if either count is zero or the
    /// total exceeds 255 (the GF(2⁸) limit).
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<ReedSolomon> {
        if data_shards == 0 || parity_shards == 0 || data_shards + parity_shards > 255 {
            return Err(Error::InvalidGeometry {
                data: data_shards,
                parity: parity_shards,
            });
        }
        let generator =
            GfMatrix::vandermonde(data_shards + parity_shards, data_shards)?.systematize()?;
        let parity_bits = (data_shards..data_shards + parity_shards)
            .flat_map(|p| generator.row(p).iter().map(|&g| mul_matrix(g)))
            .collect();
        Ok(ReedSolomon {
            data_shards,
            parity_shards,
            generator,
            parity_bits,
        })
    }

    /// Number of data shards `k = R − t`.
    pub fn data_shards(&self) -> usize {
        self.data_shards
    }

    /// Number of parity shards `t`.
    pub fn parity_shards(&self) -> usize {
        self.parity_shards
    }

    /// Total shards `R`.
    pub fn total_shards(&self) -> usize {
        self.data_shards + self.parity_shards
    }

    fn check_sizes(&self, shards: &[impl AsRef<[u8]>], expected_count: usize) -> Result<usize> {
        if shards.len() != expected_count {
            return Err(Error::ShardCountMismatch {
                expected: expected_count,
                found: shards.len(),
            });
        }
        let len = shards[0].as_ref().len();
        for (i, s) in shards.iter().enumerate() {
            if s.as_ref().len() != len {
                return Err(Error::ShardSizeMismatch {
                    expected: len,
                    index: i,
                    found: s.as_ref().len(),
                });
            }
        }
        Ok(len)
    }

    /// Encodes `k` equal-length data shards into the full `R`-shard stripe
    /// (data first, then parity).
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   malformed input.
    pub fn encode(&self, data: &[impl AsRef<[u8]>]) -> Result<Vec<Vec<u8>>> {
        let len = self.check_sizes(data, self.data_shards)?;
        let mut parity: Vec<Vec<u8>> = vec![vec![0u8; len]; self.parity_shards];
        self.encode_parity_into(data, &mut parity)?;
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.total_shards());
        for d in data {
            out.push(d.as_ref().to_vec());
        }
        out.extend(parity);
        Ok(out)
    }

    /// Computes the `t` parity shards into caller-provided buffers without
    /// copying the data shards — the zero-copy core of [`encode`].
    ///
    /// `parity_out` must hold exactly `t` buffers of the data-shard length;
    /// they are overwritten (prior contents are ignored).
    ///
    /// One fused pass: each data shard is read once, each parity shard
    /// written once (see the module docs; the per-row loop without GFNI).
    ///
    /// [`encode`]: ReedSolomon::encode
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   malformed data shards or parity buffers of the wrong count/length.
    pub fn encode_parity_into(
        &self,
        data: &[impl AsRef<[u8]>],
        parity_out: &mut [impl AsMut<[u8]>],
    ) -> Result<()> {
        let len = self.check_sizes(data, self.data_shards)?;
        if parity_out.len() != self.parity_shards {
            return Err(Error::ShardCountMismatch {
                expected: self.parity_shards,
                found: parity_out.len(),
            });
        }
        for (i, p) in parity_out.iter_mut().enumerate() {
            let p = p.as_mut();
            if p.len() != len {
                return Err(Error::ShardSizeMismatch {
                    expected: len,
                    index: i,
                    found: p.len(),
                });
            }
        }
        let k = self.data_shards;
        let row = |p: usize| &self.parity_bits[p * k..(p + 1) * k];
        if !mul_rows(data, parity_out, row, false) {
            self.encode_parity_per_row(data, parity_out);
        }
        Ok(())
    }

    /// The per-row encode: `k · t` [`mul_into`]/[`mul_acc`] passes over
    /// whole shards. The path on CPUs without the fused kernel, and the
    /// tests' oracle for it.
    fn encode_parity_per_row(
        &self,
        data: &[impl AsRef<[u8]>],
        parity_out: &mut [impl AsMut<[u8]>],
    ) {
        // Data-shard-outer order: each source shard stays cache-hot while
        // it feeds every parity row. The first data shard seeds each
        // parity row with overwrite semantics (`mul_into`), which both
        // clears any prior contents and skips the zero-fill-then-
        // accumulate pass a fresh parity buffer would otherwise pay.
        for (c, d) in data.iter().enumerate() {
            let src = d.as_ref();
            for (p, out) in parity_out.iter_mut().enumerate() {
                let coeff = self.generator.row(self.data_shards + p)[c];
                if c == 0 {
                    mul_into(out.as_mut(), src, coeff);
                } else {
                    mul_acc(out.as_mut(), src, coeff);
                }
            }
        }
    }

    /// Reconstructs all missing shards in place. `shards` must have length
    /// `R`; `None` entries are the erasures.
    ///
    /// Only the missing shards are computed — `(#missing) · k`
    /// multiply-accumulates rather than recovering all `k` data shards and
    /// re-encoding. Callers with a recurring erasure pattern should use
    /// [`plan_reconstruction`](ReedSolomon::plan_reconstruction) +
    /// [`reconstruct_with_plan`](ReedSolomon::reconstruct_with_plan) to
    /// also amortize the matrix inversion.
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   malformed input.
    /// * [`Error::TooManyErasures`] if more than `t` entries are `None`.
    /// * [`Error::SingularDecodeMatrix`] if the decode matrix fails to
    ///   invert (impossible for an intact MDS generator; reported rather
    ///   than panicking so hostile internal state degrades gracefully).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<()> {
        if shards.len() != self.total_shards() {
            return Err(Error::ShardCountMismatch {
                expected: self.total_shards(),
                found: shards.len(),
            });
        }
        let missing: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        let plan = self.plan_reconstruction(&missing)?;
        self.reconstruct_with_plan(&plan, shards)
    }

    /// Builds a [`DecodePlan`] for the given erasure pattern.
    ///
    /// This performs the `O(k³)` decode-matrix inversion and builds the
    /// rows' bit-matrices; applying the plan afterwards is one fused pass
    /// that allocates nothing. The plan depends only on the
    /// erasure pattern, not shard contents, so it can be cached and reused
    /// across stripes failing in the same way.
    ///
    /// For a missing **data** shard `m`, the plan row is row `m` of `D⁻¹`
    /// (where `D` is the generator restricted to the `k` survivors used);
    /// for a missing **parity** shard it is `G[m] · D⁻¹`, folding the
    /// recover-then-re-encode step into a single row of coefficients.
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] for an out-of-range or duplicate
    ///   missing index.
    /// * [`Error::TooManyErasures`] if the pattern exceeds `t` erasures.
    /// * [`Error::SingularDecodeMatrix`] if the decode matrix fails to
    ///   invert (impossible for an intact MDS generator).
    pub fn plan_reconstruction(&self, missing: &[usize]) -> Result<DecodePlan> {
        let mut missing = missing.to_vec();
        missing.sort_unstable();
        missing.dedup();
        if missing.len() > self.parity_shards {
            return Err(Error::TooManyErasures {
                missing: missing.len(),
                tolerated: self.parity_shards,
            });
        }
        if let Some(&bad) = missing.iter().find(|&&m| m >= self.total_shards()) {
            return Err(Error::ShardCountMismatch {
                expected: self.total_shards(),
                found: bad,
            });
        }
        let survivors: Vec<usize> = (0..self.total_shards())
            .filter(|i| !missing.contains(i))
            .take(self.data_shards)
            .collect();
        let decode = self
            .generator
            .select_rows(&survivors)
            .inverse()
            .map_err(|_| Error::SingularDecodeMatrix)?;
        let rows: Vec<Vec<Gf>> = missing
            .iter()
            .map(|&m| {
                if m < self.data_shards {
                    decode.row(m).to_vec()
                } else {
                    // G[m] · D⁻¹: one row of the folded parity decode.
                    let grow = self.generator.row(m);
                    (0..self.data_shards)
                        .map(|c| {
                            let mut acc = Gf::ZERO;
                            for (j, &g) in grow.iter().enumerate() {
                                acc += g * decode.row(j)[c];
                            }
                            acc
                        })
                        .collect()
                }
            })
            .collect();
        let bits = rows.iter().flatten().map(|&g| mul_matrix(g)).collect();
        Ok(DecodePlan {
            missing,
            survivors,
            rows,
            bits,
        })
    }

    /// Applies a previously built [`DecodePlan`] to a stripe, filling in
    /// exactly the shards the plan was built for.
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   malformed input.
    /// * [`Error::DecodePlanMismatch`] if a shard the plan expects present
    ///   is `None`, or one it reconstructs is already `Some`.
    pub fn reconstruct_with_plan(
        &self,
        plan: &DecodePlan,
        shards: &mut [Option<Vec<u8>>],
    ) -> Result<()> {
        if shards.len() != self.total_shards() {
            return Err(Error::ShardCountMismatch {
                expected: self.total_shards(),
                found: shards.len(),
            });
        }
        if plan.missing.iter().any(|&m| shards[m].is_some())
            || plan.survivors.iter().any(|&i| shards[i].is_none())
        {
            return Err(Error::DecodePlanMismatch);
        }
        let len = shards[plan.survivors[0]].as_ref().map_or(0, Vec::len);
        for &m in &plan.missing {
            shards[m] = Some(vec![0u8; len]);
        }
        let mut views: Vec<&mut [u8]> = shards
            .iter_mut()
            .map(|s| s.as_deref_mut().unwrap_or_default())
            .collect();
        let applied = self.reconstruct_into(plan, &mut views, &plan.missing);
        if applied.is_err() {
            for &m in &plan.missing {
                shards[m] = None;
            }
        }
        applied
    }

    /// Applies a [`DecodePlan`] over borrowed buffers: `shards` is the
    /// full `R`-wide stripe view, the plan's survivors are read, and each
    /// position in `rebuild` — any subset of the plan's missing shards —
    /// is computed straight into its buffer, whose prior contents are
    /// ignored. One fused pass, no allocation.
    /// Positions that are neither survivors nor in `rebuild` are not
    /// touched and may be empty, so a reader that only needs the missing
    /// *data* shards never pays for the parity it did not fetch.
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   a stripe of the wrong width or a survivor or rebuild buffer whose
    ///   length differs from the first survivor's.
    /// * [`Error::DecodePlanMismatch`] if `rebuild` names a position the
    ///   plan does not reconstruct, or names one twice.
    pub fn reconstruct_into(
        &self,
        plan: &DecodePlan,
        shards: &mut [&mut [u8]],
        rebuild: &[usize],
    ) -> Result<()> {
        if shards.len() != self.total_shards() {
            return Err(Error::ShardCountMismatch {
                expected: self.total_shards(),
                found: shards.len(),
            });
        }
        // Survivors and rebuilt positions must all be one shard long; a
        // mismatch is reported at the lowest index.
        let len = shards[plan.survivors[0]].len();
        for (i, shard) in shards.iter().enumerate() {
            let listed = plan.survivors.binary_search(&i).is_ok() || rebuild.contains(&i);
            if listed && shard.len() != len {
                return Err(Error::ShardSizeMismatch {
                    expected: len,
                    index: i,
                    found: shard.len(),
                });
            }
        }
        // Each rebuilt position once, and only positions the plan covers.
        if rebuild
            .iter()
            .enumerate()
            .any(|(j, &pos)| plan.row_of(pos).is_none() || rebuild[..j].contains(&pos))
        {
            return Err(Error::DecodePlanMismatch);
        }
        let k = plan.survivors.len();
        let bits = |j: usize| {
            let row = plan
                .row_of(rebuild[j])
                .expect("rebuild checked against the plan");
            &plan.bits[row * k..(row + 1) * k]
        };
        if !mul_rows_within(shards, &plan.survivors, rebuild, bits) {
            reconstruct_per_row(plan, shards, rebuild);
        }
        Ok(())
    }

    /// Verifies that a full stripe is consistent (parity matches data).
    ///
    /// # Errors
    ///
    /// * [`Error::ShardCountMismatch`] / [`Error::ShardSizeMismatch`] for
    ///   malformed input.
    pub fn verify(&self, shards: &[impl AsRef<[u8]>]) -> Result<bool> {
        let _ = self.check_sizes(shards, self.total_shards())?;
        let data: Vec<&[u8]> = shards
            .iter()
            .take(self.data_shards)
            .map(|s| s.as_ref())
            .collect();
        let expected = self.encode(&data)?;
        Ok(expected
            .iter()
            .zip(shards)
            .all(|(e, s)| e.as_slice() == s.as_ref()))
    }
}

/// The per-row reconstruct: `k` [`mul_into`]/[`mul_acc`] passes over whole
/// shards per rebuilt position. The path on CPUs without the fused kernel,
/// and the tests' oracle for it; `rebuild` is already checked against the
/// plan.
fn reconstruct_per_row(plan: &DecodePlan, shards: &mut [&mut [u8]], rebuild: &[usize]) {
    for &pos in rebuild {
        let row = plan.row_of(pos).expect("rebuild checked against the plan");
        for (c, (&coeff, &src)) in plan.rows[row].iter().zip(&plan.survivors).enumerate() {
            let (out, src) = out_and_src(shards, pos, src);
            if c == 0 {
                mul_into(out, src, coeff);
            } else {
                mul_acc(out, src, coeff);
            }
        }
    }
}

/// Borrows shard `out` mutably and shard `src` shared from one stripe
/// (`out != src`).
fn out_and_src<'a>(
    shards: &'a mut [&mut [u8]],
    out: usize,
    src: usize,
) -> (&'a mut [u8], &'a [u8]) {
    if out < src {
        let (head, tail) = shards.split_at_mut(src);
        (&mut *head[out], &*tail[0])
    } else {
        let (head, tail) = shards.split_at_mut(out);
        (&mut *tail[0], &*head[src])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 3) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let code = ReedSolomon::new(6, 3).unwrap();
        let data = sample_data(6, 100);
        let shards = code.encode(&data).unwrap();
        assert_eq!(shards.len(), 9);
        for i in 0..6 {
            assert_eq!(shards[i], data[i]);
        }
    }

    #[test]
    fn reconstruct_every_single_erasure() {
        let code = ReedSolomon::new(5, 2).unwrap();
        let data = sample_data(5, 64);
        let full = code.encode(&data).unwrap();
        for lost in 0..7 {
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[lost] = None;
            code.reconstruct(&mut shards).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.as_deref(), Some(&full[i][..]), "lost {lost}, shard {i}");
            }
        }
    }

    #[test]
    fn reconstruct_all_double_erasures() {
        let code = ReedSolomon::new(6, 2).unwrap();
        let data = sample_data(6, 32);
        let full = code.encode(&data).unwrap();
        for a in 0..8 {
            for b in (a + 1)..8 {
                let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                code.reconstruct(&mut shards).unwrap();
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.as_deref(), Some(&full[i][..]), "lost ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn triple_tolerance_code() {
        // The paper's strongest cross-node code: t = 3.
        let code = ReedSolomon::new(5, 3).unwrap();
        let data = sample_data(5, 48);
        let full = code.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[4] = None;
        shards[7] = None;
        code.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(&full[i][..]));
        }
    }

    #[test]
    fn too_many_erasures_rejected() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let full = code.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            code.reconstruct(&mut shards).unwrap_err(),
            Error::TooManyErasures {
                missing: 3,
                tolerated: 2
            }
        ));
    }

    #[test]
    fn verify_detects_corruption() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let mut full = code.encode(&data).unwrap();
        assert!(code.verify(&full).unwrap());
        full[5][3] ^= 0x40;
        assert!(!code.verify(&full).unwrap());
    }

    #[test]
    fn no_erasures_is_a_noop() {
        let code = ReedSolomon::new(3, 1).unwrap();
        let data = sample_data(3, 8);
        let full = code.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        code.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(&full[i][..]));
        }
    }

    #[test]
    fn single_parity_is_xor() {
        // t = 1 must degenerate to plain parity: the parity shard is the
        // XOR of the data shards (up to a scalar; verify reconstruction
        // instead of representation).
        let code = ReedSolomon::new(4, 1).unwrap();
        let data = sample_data(4, 16);
        let full = code.encode(&data).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        shards[2] = None;
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[2].as_deref(), Some(&data[2][..]));
    }

    #[test]
    fn geometry_validation() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 56).is_err());
        assert!(ReedSolomon::new(200, 55).is_ok());
    }

    #[test]
    fn input_validation() {
        let code = ReedSolomon::new(3, 2).unwrap();
        // Wrong shard count.
        assert!(code.encode(&sample_data(2, 8)).is_err());
        // Jagged shards.
        let mut jagged = sample_data(3, 8);
        jagged[1].pop();
        assert!(matches!(
            code.encode(&jagged).unwrap_err(),
            Error::ShardSizeMismatch { index: 1, .. }
        ));
        // Wrong reconstruct length.
        let mut short: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 8]); 4];
        assert!(code.reconstruct(&mut short).is_err());
    }

    #[test]
    fn encode_parity_into_matches_encode() {
        let code = ReedSolomon::new(6, 3).unwrap();
        let data = sample_data(6, 100);
        let full = code.encode(&data).unwrap();
        let mut parity = vec![vec![0xffu8; 100]; 3]; // dirty buffers get cleared
        code.encode_parity_into(&data, &mut parity).unwrap();
        assert_eq!(&parity[..], &full[6..]);
    }

    #[test]
    fn fused_kernel_matches_the_per_row_loop() {
        // Every group shape (t = 7 is a group of four and one of three),
        // the empty stripe, lone tail bytes and a multi-strip shard, into
        // dirty buffers on both sides.
        for (k, t) in [(6, 2), (10, 2), (5, 3), (3, 7)] {
            let code = ReedSolomon::new(k, t).unwrap();
            for len in [0usize, 1, 63, 64, 65, 683, 4097] {
                let data = sample_data(k, len);
                let mut fused = vec![vec![0xffu8; len]; t];
                code.encode_parity_into(&data, &mut fused).unwrap();
                let mut per_row = vec![vec![0x11u8; len]; t];
                code.encode_parity_per_row(&data, &mut per_row);
                assert_eq!(fused, per_row, "encode ({k},{t}) at {len} B");

                let mut full = data;
                full.extend(fused);
                let lost: Vec<usize> = (0..t).map(|i| (i * 3 + 1) % (k + t)).collect();
                let plan = code.plan_reconstruction(&lost).unwrap();
                let rebuild = plan.missing().to_vec();
                let mut outs = [full.clone(), full.clone()];
                for (bufs, dirt) in outs.iter_mut().zip([0xee, 0x33]) {
                    for &m in &rebuild {
                        bufs[m].fill(dirt);
                    }
                }
                let [fused, per_row] = &mut outs;
                let mut views: Vec<&mut [u8]> = fused.iter_mut().map(Vec::as_mut_slice).collect();
                code.reconstruct_into(&plan, &mut views, &rebuild).unwrap();
                let mut views: Vec<&mut [u8]> = per_row.iter_mut().map(Vec::as_mut_slice).collect();
                reconstruct_per_row(&plan, &mut views, &rebuild);
                assert_eq!(fused, &full, "reconstruct ({k},{t}) at {len} B");
                assert_eq!(per_row, &full, "per-row reconstruct ({k},{t}) at {len} B");
            }
        }
    }

    #[test]
    fn encode_parity_into_validates_buffers() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let mut wrong_count = vec![vec![0u8; 16]; 3];
        assert!(matches!(
            code.encode_parity_into(&data, &mut wrong_count)
                .unwrap_err(),
            Error::ShardCountMismatch {
                expected: 2,
                found: 3
            }
        ));
        let mut wrong_len = vec![vec![0u8; 16], vec![0u8; 15]];
        assert!(matches!(
            code.encode_parity_into(&data, &mut wrong_len).unwrap_err(),
            Error::ShardSizeMismatch { index: 1, .. }
        ));
    }

    #[test]
    fn plan_reuse_across_stripes() {
        // One plan, many stripes failing the same way — the cached-decode
        // path the store uses for degraded reads.
        let code = ReedSolomon::new(5, 2).unwrap();
        let plan = code.plan_reconstruction(&[1, 6]).unwrap();
        assert_eq!(plan.missing(), &[1, 6]);
        assert_eq!(plan.survivors().len(), 5);
        for seed in 0..4 {
            let data: Vec<Vec<u8>> = (0..5)
                .map(|i| {
                    (0..33)
                        .map(|j| ((i * 7 + j * 13 + seed) % 256) as u8)
                        .collect()
                })
                .collect();
            let full = code.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            shards[1] = None;
            shards[6] = None;
            code.reconstruct_with_plan(&plan, &mut shards).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(s.as_deref(), Some(&full[i][..]), "seed {seed}, shard {i}");
            }
        }
    }

    #[test]
    fn plan_mismatch_is_detected() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 16);
        let full = code.encode(&data).unwrap();
        let plan = code.plan_reconstruction(&[0]).unwrap();
        // Shard 0 still present: plan says it's missing.
        let mut intact: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        assert!(matches!(
            code.reconstruct_with_plan(&plan, &mut intact).unwrap_err(),
            Error::DecodePlanMismatch
        ));
        // A survivor the plan reads from is gone.
        let mut wrong: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        wrong[0] = None;
        wrong[2] = None;
        assert!(matches!(
            code.reconstruct_with_plan(&plan, &mut wrong).unwrap_err(),
            Error::DecodePlanMismatch
        ));
    }

    #[test]
    fn reconstruct_into_rebuilds_only_what_is_asked() {
        // Data shards 1 and 3 are gone and parity 7 was never fetched (an
        // empty view): the reader wants only the data back.
        let code = ReedSolomon::new(5, 3).unwrap();
        let full = code.encode(&sample_data(5, 77)).unwrap();
        let plan = code.plan_reconstruction(&[1, 3, 7]).unwrap();
        let mut bufs = full.clone();
        for lost in [1, 3] {
            bufs[lost].fill(0xee); // dirty: prior contents must not leak
        }
        bufs[7].clear();
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        code.reconstruct_into(&plan, &mut views, &[1, 3]).unwrap();
        assert_eq!(&bufs[..7], &full[..7]);
        assert!(bufs[7].is_empty());

        // A parity shard rebuilds the same way, into an owned buffer.
        bufs[7] = vec![0x11; 77];
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        code.reconstruct_into(&plan, &mut views, &[7]).unwrap();
        assert_eq!(bufs, full);
    }

    #[test]
    fn reconstruct_into_validates_its_view() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let full = code.encode(&sample_data(4, 16)).unwrap();
        let plan = code.plan_reconstruction(&[0, 5]).unwrap();
        let view = |bufs: &mut Vec<Vec<u8>>, rebuild: &[usize]| {
            let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
            code.reconstruct_into(&plan, &mut views, rebuild)
        };
        // A survivor, a duplicate, or a position outside the plan.
        for rebuild in [&[1usize][..], &[0, 0], &[0, 9]] {
            assert_eq!(
                view(&mut full.clone(), rebuild).unwrap_err(),
                Error::DecodePlanMismatch
            );
        }
        let mut short_out = full.clone();
        short_out[0].pop();
        assert!(matches!(
            view(&mut short_out, &[0]).unwrap_err(),
            Error::ShardSizeMismatch { index: 0, .. }
        ));
        let mut short_survivor = full.clone();
        short_survivor[2].pop();
        assert!(matches!(
            view(&mut short_survivor, &[0]).unwrap_err(),
            Error::ShardSizeMismatch { index: 2, .. }
        ));
        let mut narrow = full.clone();
        narrow.pop();
        assert!(matches!(
            view(&mut narrow, &[0]).unwrap_err(),
            Error::ShardCountMismatch { .. }
        ));
    }

    #[test]
    fn plan_validation() {
        let code = ReedSolomon::new(4, 2).unwrap();
        assert!(matches!(
            code.plan_reconstruction(&[0, 1, 2]).unwrap_err(),
            Error::TooManyErasures {
                missing: 3,
                tolerated: 2
            }
        ));
        assert!(code.plan_reconstruction(&[9]).is_err());
        // Duplicates collapse to one erasure.
        let plan = code.plan_reconstruction(&[3, 3]).unwrap();
        assert_eq!(plan.missing(), &[3]);
    }

    #[test]
    fn paper_baseline_geometry() {
        // R = 8 with t = 1, 2, 3 — the paper's three cross-node codes.
        for t in 1..=3usize {
            let code = ReedSolomon::new(8 - t, t).unwrap();
            assert_eq!(code.total_shards(), 8);
            let data = sample_data(8 - t, 128);
            let full = code.encode(&data).unwrap();
            let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for i in 0..t {
                shards[i * 2] = None; // t erasures, spread out
            }
            code.reconstruct(&mut shards).unwrap();
            assert!(code
                .verify(
                    &shards
                        .iter()
                        .map(|s| s.clone().unwrap())
                        .collect::<Vec<_>>()
                )
                .unwrap());
        }
    }
}
