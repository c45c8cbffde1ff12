//! The fused GF(2⁸) matrix kernel, via the x86 `GFNI` extension.
//!
//! Multiplication by a fixed coefficient `c` in GF(2⁸) is GF(2)-linear in
//! the other factor, so it is exactly an 8×8 bit-matrix product — which is
//! what `vgf2p8affineqb` computes for 64 bytes per instruction. The matrix
//! for `c` comes from the images of the basis elements (`c·x⁰ … c·x⁷`,
//! eight table multiplies), so the instruction's hardwired AES polynomial
//! never enters the picture and the kernel works for this crate's `0x11d`
//! field (the affine form is polynomial-agnostic; only `gf2p8mulb` is tied
//! to `0x11B`). Callers build the matrices once — `ReedSolomon::new` for
//! the parity rows, `plan_reconstruction` for the decode rows — and hand
//! them to [`mul_rows`] / [`mul_rows_within`].
//!
//! One kernel serves every caller: encode, reconstruct and the single-row
//! [`mul_acc_accel`]. It walks the shards in 64-byte strips; per strip it
//! loads every source once, keeps up to four output accumulators in zmm
//! registers (more outputs go in groups of four), and stores each output
//! once. The final partial strip uses AVX-512BW masked loads and stores,
//! so there is no scalar tail.
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! feature-gated kernel call, the SIMD loads/stores and the raw pointers
//! that let one stripe be read and written at once require it. Every site
//! carries a SAFETY argument; the dispatch is behind cached runtime CPUID
//! detection and the module is a no-op (always reports "unavailable") on
//! other architectures, so builds and results stay portable. Correctness
//! is pinned by differential tests against
//! [`crate::gf256::mul_acc_reference`].
#![allow(unsafe_code)]

use crate::gf256::Gf;

/// `outputs[j] = Σ_c row(j)[c] ⊗ sources[c]` (`^=` instead of `=` with
/// `accumulate`) over equal-length shards, with the fused kernel when the
/// CPU supports it. Returns `false`, having done nothing, when it does
/// not — the caller's per-row loop is the fallback.
///
/// # Panics
///
/// Panics if the shards differ in length or a row is shorter than
/// `sources`.
pub(crate) fn mul_rows<'m, S: AsRef<[u8]>, O: AsMut<[u8]>>(
    sources: &[S],
    outputs: &mut [O],
    row: impl Fn(usize) -> &'m [u64],
    accumulate: bool,
) -> bool {
    let len = match (sources.first(), outputs.first_mut()) {
        (Some(s), _) => s.as_ref().len(),
        (None, Some(o)) => o.as_mut().len(),
        (None, None) => 0,
    };
    assert!(
        sources.iter().all(|s| s.as_ref().len() == len)
            && outputs.iter_mut().all(|o| o.as_mut().len() == len),
        "mul_rows: shard length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if !x86::available() {
            return false;
        }
        // SAFETY: `available()` confirmed the CPU features. Every source
        // and output is exactly `len` bytes (asserted above); sources are
        // shared and outputs exclusive borrows, so no output overlaps a
        // source or another output, and each output pointer is taken once.
        // The kernel calls `src(c)` only for `c < sources.len()`, so the
        // unchecked index is in bounds.
        unsafe {
            x86::mul_rows(
                len,
                sources.len(),
                outputs.len(),
                |c| sources.get_unchecked(c).as_ref().as_ptr(),
                |j| outputs[j].as_mut().as_mut_ptr(),
                row,
                accumulate,
            );
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (len, row, accumulate);
        false
    }
}

/// [`mul_rows`] over one stripe that is read and written at once: the
/// shards at `sources` are read, the ones at `outputs` are overwritten,
/// row `j` feeding `outputs[j]`. Shards at no listed index are not
/// touched. Returns `false`, having done nothing, without the CPU
/// feature.
///
/// # Panics
///
/// Panics if an index is out of range, an output index repeats or is
/// also a source, the listed shards differ in length, or a row is shorter
/// than `sources`.
pub(crate) fn mul_rows_within<'m>(
    shards: &mut [&mut [u8]],
    sources: &[usize],
    outputs: &[usize],
    row: impl Fn(usize) -> &'m [u64],
) -> bool {
    for (j, &o) in outputs.iter().enumerate() {
        assert!(
            !sources.contains(&o) && !outputs[..j].contains(&o),
            "mul_rows_within: output {o} aliases another shard"
        );
    }
    let mut listed = sources.iter().chain(outputs).map(|&i| shards[i].len());
    let len = listed.next().unwrap_or(0);
    assert!(
        listed.all(|l| l == len),
        "mul_rows_within: shard length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if !x86::available() {
            return false;
        }
        let stripe: *mut &mut [u8] = shards.as_mut_ptr();
        // SAFETY: `available()` confirmed the CPU features. Every listed
        // index was bounds-checked and its shard is exactly `len` bytes
        // (the length pass above). Outputs are distinct from each other
        // and from every source (asserted above), so the exclusive
        // pointer derived for each output never overlaps a shard another
        // pointer reads or writes, and `shards` is not touched through
        // any other path while the kernel runs. The kernel calls `src(c)`
        // only for `c < sources.len()`, so the unchecked index is in
        // bounds.
        unsafe {
            x86::mul_rows(
                len,
                sources.len(),
                outputs.len(),
                |c| (*stripe.add(*sources.get_unchecked(c))).as_ptr(),
                |j| (*stripe.add(outputs[j])).as_mut_ptr(),
                row,
                false,
            );
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (len, row);
        false
    }
}

/// Accumulates `dst[i] ^= c · src[i]` with the fused kernel (one source,
/// one output) when the CPU supports it. Returns `false` (having done
/// nothing) when unsupported, letting the caller fall back to the
/// portable word kernel.
pub(crate) fn mul_acc_accel(dst: &mut [u8], src: &[u8], coeff: Gf) -> bool {
    if !accel_available() {
        return false;
    }
    let matrix = [mul_matrix(coeff)];
    mul_rows(&[src], &mut [dst], |_| &matrix, true)
}

/// Whether the fused kernel is usable on this CPU (always `false` off
/// x86_64). Lets `gf256::kernel_tier` report which tier the codec will
/// select without doing any work.
pub(crate) fn accel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        x86::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Builds the `vgf2p8affineqb` bit-matrix for multiplication by `c`.
///
/// Output bit `i` of a product byte is `Σ_j input[j] · bit_i(c·x^j)`, so
/// row `i` of the matrix (as a bitmask over input bits) is
/// `row_i[j] = bit_i(c·x^j)`. The instruction reads row `i` from matrix
/// byte `7−i` of each qword.
pub(crate) fn mul_matrix(c: Gf) -> u64 {
    let mut cols = [0u8; 8];
    for (j, col) in cols.iter_mut().enumerate() {
        *col = (c * Gf(1 << j)).0;
    }
    let mut matrix = 0u64;
    for i in 0..8u64 {
        let mut row = 0u8;
        for (j, col) in cols.iter().enumerate() {
            row |= ((col >> i) & 1) << j;
        }
        matrix |= u64::from(row) << (8 * (7 - i));
    }
    matrix
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512i, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512, _mm512_mask_storeu_epi8,
        _mm512_maskz_loadu_epi8, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_xor_si512,
    };
    use std::sync::OnceLock;

    /// Cached CPUID check for every feature the kernel needs.
    pub(super) fn available() -> bool {
        static HAVE: OnceLock<bool> = OnceLock::new();
        *HAVE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("gfni")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
        })
    }

    /// The fused kernel: `dst(j) (^)= Σ_c row(j)[c] ⊗ src(c)` over `len`
    /// bytes for `n_out` outputs and `n_src` sources, outputs in groups of
    /// up to four.
    ///
    /// # Safety
    ///
    /// The CPU must support gfni + avx512f + avx512bw (see [`available`]).
    /// For every `c < n_src`, `src(c)` must be valid for reads of `len`
    /// bytes; for every `j < n_out`, `dst(j)` (called once per `j`) must be
    /// valid for reads and writes of `len` bytes and overlap no other
    /// output or any source. In return the kernel calls `src` and `dst`
    /// with no other arguments.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    pub(super) unsafe fn mul_rows<'m>(
        len: usize,
        n_src: usize,
        n_out: usize,
        src: impl Fn(usize) -> *const u8,
        mut dst: impl FnMut(usize) -> *mut u8,
        row: impl Fn(usize) -> &'m [u64],
        accumulate: bool,
    ) {
        let mut j = 0;
        while j < n_out {
            // SAFETY: forwarded from this function's contract, for the
            // outputs `j..j + N`.
            unsafe {
                match n_out - j {
                    1 => group::<1>(len, n_src, &src, [dst(j)], [row(j)], accumulate),
                    2 => group::<2>(
                        len,
                        n_src,
                        &src,
                        [dst(j), dst(j + 1)],
                        [row(j), row(j + 1)],
                        accumulate,
                    ),
                    3 => group::<3>(
                        len,
                        n_src,
                        &src,
                        [dst(j), dst(j + 1), dst(j + 2)],
                        [row(j), row(j + 1), row(j + 2)],
                        accumulate,
                    ),
                    _ => group::<4>(
                        len,
                        n_src,
                        &src,
                        [dst(j), dst(j + 1), dst(j + 2), dst(j + 3)],
                        [row(j), row(j + 1), row(j + 2), row(j + 3)],
                        accumulate,
                    ),
                }
            }
            j += (n_out - j).min(4);
        }
    }

    /// `N` outputs at once: per 64-byte strip, every source is loaded
    /// once and multiplied into all `N` register accumulators, and each
    /// output is stored once; the last `len % 64` bytes go through the
    /// same loop body with masked loads and stores.
    ///
    /// # Safety
    ///
    /// As [`mul_rows`], for the `N` outputs in `out`.
    #[target_feature(enable = "gfni,avx512f,avx512bw")]
    unsafe fn group<const N: usize>(
        len: usize,
        n_src: usize,
        src: &impl Fn(usize) -> *const u8,
        out: [*mut u8; N],
        rows: [&[u64]; N],
        accumulate: bool,
    ) {
        let rows = rows.map(|r| &r[..n_src]);
        let strip = |off: usize, mask: Option<u64>| {
            // SAFETY: `off + 64 <= len` for a full strip; a partial strip
            // (`mask` set) touches only the `len - off` bytes its mask
            // enables, and masked-off lanes are neither read nor written.
            // Every pointer is valid for `len` bytes (caller contract).
            // Every row was sliced to exactly `n_src` entries above, so
            // the unchecked `r[c]` with `c < n_src` is in bounds (the
            // checked index cost the cache-resident shards ~25 %).
            unsafe {
                let load = |p: *const u8| match mask {
                    None => _mm512_loadu_si512(p.add(off).cast::<__m512i>()),
                    Some(k) => _mm512_maskz_loadu_epi8(k, p.add(off).cast::<i8>()),
                };
                let mut acc = [_mm512_setzero_si512(); N];
                if accumulate {
                    for (a, &o) in acc.iter_mut().zip(&out) {
                        *a = load(o);
                    }
                }
                for c in 0..n_src {
                    let x = load(src(c));
                    for (a, r) in acc.iter_mut().zip(&rows) {
                        #[allow(clippy::cast_possible_wrap)]
                        let m = _mm512_set1_epi64(*r.get_unchecked(c) as i64);
                        *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(x, m));
                    }
                }
                for (a, &o) in acc.iter().zip(&out) {
                    match mask {
                        None => _mm512_storeu_si512(o.add(off).cast::<__m512i>(), *a),
                        Some(k) => _mm512_mask_storeu_epi8(o.add(off).cast::<i8>(), k, *a),
                    }
                }
            }
        };
        let full = len / 64 * 64;
        for off in (0..full).step_by(64) {
            strip(off, None);
        }
        if full < len {
            strip(full, Some((1u64 << (len - full)) - 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::mul_acc_reference;

    /// Scalar model of the affine instruction: applies the bit-matrix to
    /// one byte, so the matrix construction is checked on every
    /// architecture.
    fn apply_matrix_scalar(matrix: u64, x: u8) -> u8 {
        let mut out = 0u8;
        for i in 0..8u32 {
            let row = (matrix >> (8 * (7 - i))) as u8;
            out |= (((row & x).count_ones() & 1) as u8) << i;
        }
        out
    }

    #[test]
    fn matrix_reproduces_field_multiplication() {
        // The affine matrix must agree with table multiplication for every
        // coefficient × operand pair — checked through the scalar model of
        // the instruction, so this holds on every architecture.
        for c in 0..=255u8 {
            let m = mul_matrix(Gf(c));
            for s in 0..=255u8 {
                assert_eq!(apply_matrix_scalar(m, s), (Gf(c) * Gf(s)).0, "c={c}, s={s}");
            }
        }
    }

    #[test]
    fn accel_kernel_matches_reference_when_available() {
        // Exercises the real vector instructions (on CPUs that have them)
        // across strip/partial-strip splits; on other machines
        // mul_acc_accel declines and the test trivially passes.
        for len in [1usize, 63, 64, 65, 127, 128, 191, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 151 + 13) as u8).collect();
            for coeff in [2u8, 3, 0x1d, 0x80, 0xff] {
                let mut fast: Vec<u8> = (0..len).map(|i| (i * 29 + 7) as u8).collect();
                let mut slow = fast.clone();
                if mul_acc_accel(&mut fast, &src, Gf(coeff)) {
                    mul_acc_reference(&mut slow, &src, Gf(coeff));
                    assert_eq!(fast, slow, "len={len}, coeff={coeff}");
                }
            }
        }
    }

    #[test]
    fn fused_groups_and_masked_tails_match_reference_when_available() {
        // 1..=9 outputs (one to three groups, every group size) over 5
        // sources, at lengths straddling the strip edge. A masked store
        // must not touch the bytes just past the shard: each output is a
        // window of a larger buffer whose guard bytes must survive.
        let n_src = 5;
        for n_out in 1..=9usize {
            let coeffs: Vec<Gf> = (0..n_out * n_src)
                .map(|i| Gf((i * 37 + 11) as u8))
                .collect();
            let bits: Vec<u64> = coeffs.iter().map(|&c| mul_matrix(c)).collect();
            for len in [0usize, 1, 63, 64, 65, 200] {
                let sources: Vec<Vec<u8>> = (0..n_src)
                    .map(|c| (0..len).map(|i| (i * 131 + c * 17 + 3) as u8).collect())
                    .collect();
                let mut guarded = vec![0x77u8; n_out * (len + 64)];
                let mut outs: Vec<&mut [u8]> = guarded
                    .chunks_mut(len + 64)
                    .map(|w| &mut w[..len])
                    .collect();
                let row = |j: usize| &bits[j * n_src..(j + 1) * n_src];
                if !mul_rows(&sources, &mut outs, row, false) {
                    return;
                }
                for (j, window) in guarded.chunks(len + 64).enumerate() {
                    let mut want = vec![0u8; len];
                    for (c, s) in sources.iter().enumerate() {
                        mul_acc_reference(&mut want, s, coeffs[j * n_src + c]);
                    }
                    assert_eq!(&window[..len], &want[..], "out {j}/{n_out}, len {len}");
                    assert!(
                        window[len..].iter().all(|&b| b == 0x77),
                        "guard {j}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn within_rejects_an_output_that_is_also_a_source() {
        let mut bufs = [vec![1u8; 8], vec![2u8; 8]];
        let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let bits = [mul_matrix(Gf(3)), mul_matrix(Gf(5))];
        mul_rows_within(&mut views, &[0, 1], &[1], |_| &bits);
    }
}
