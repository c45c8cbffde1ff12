//! Arithmetic in the Galois field GF(2⁸).
//!
//! The field is realized as polynomials over GF(2) modulo the primitive
//! polynomial `x⁸ + x⁴ + x³ + x² + 1` (`0x11d`), the conventional choice
//! for Reed–Solomon storage codes. Multiplication and division go through
//! log/antilog tables built once at startup; addition is XOR.

use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Sub};
use std::sync::OnceLock;

use crate::{Error, Result};

/// The primitive polynomial `x⁸ + x⁴ + x³ + x² + 1`.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// The multiplicative generator used to build the log tables.
pub const GENERATOR: u8 = 0x02;

struct Tables {
    exp: [u8; 512], // doubled so exp[log a + log b] needs no modulo
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Split-nibble multiply tables: for every coefficient `c`, two 16-entry
/// tables covering the low and high 4 bits of the other factor, so that
/// `c · s = lo[c][s & 0xf] ^ hi[c][s >> 4]` (multiplication distributes
/// over the XOR decomposition `s = s_lo ⊕ (s_hi << 4)`).
///
/// 2 × 256 × 16 = 8 KiB total — the whole structure stays L1-resident,
/// unlike a flat 64 KiB product table.
struct NibbleTables {
    lo: [[u8; 16]; 256],
    hi: [[u8; 16]; 256],
}

fn nibble_tables() -> &'static NibbleTables {
    static NIBBLES: OnceLock<Box<NibbleTables>> = OnceLock::new();
    NIBBLES.get_or_init(|| {
        let mut t = Box::new(NibbleTables {
            lo: [[0u8; 16]; 256],
            hi: [[0u8; 16]; 256],
        });
        for c in 0..256usize {
            for v in 0..16usize {
                t.lo[c][v] = (Gf(c as u8) * Gf(v as u8)).0;
                t.hi[c][v] = (Gf(c as u8) * Gf((v << 4) as u8)).0;
            }
        }
        t
    })
}

/// An element of GF(2⁸).
///
/// Implements the full field arithmetic via operator overloads; note that
/// in characteristic 2, subtraction *is* addition (both XOR).
///
/// ```
/// use nsr_erasure::gf256::Gf;
///
/// # fn main() -> Result<(), nsr_erasure::Error> {
/// let a = Gf(0x53);
/// assert_eq!(a * a.inverse()?, Gf(0x01));
/// assert_eq!(a + a, Gf(0)); // characteristic 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf(pub u8);

impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DivisionByZero`] for the zero element.
    pub fn inverse(self) -> Result<Gf> {
        if self.0 == 0 {
            return Err(Error::DivisionByZero);
        }
        let t = tables();
        Ok(Gf(t.exp[255 - t.log[self.0 as usize] as usize]))
    }

    /// `self` raised to the `n`-th power (`0⁰ = 1` by convention).
    pub fn pow(self, n: u32) -> Gf {
        if n == 0 {
            return Gf::ONE;
        }
        if self.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        let log = t.log[self.0 as usize] as u32;
        Gf(t.exp[((log * n) % 255) as usize])
    }

    /// The element `α^n` for the field generator α = 2.
    pub fn alpha_pow(n: u32) -> Gf {
        Gf(GENERATOR).pow(n)
    }
}

impl Add for Gf {
    type Output = Gf;
    // In GF(2⁸) addition *is* XOR; clippy's suspicious-arithmetic lint
    // doesn't know field theory.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn add(self, rhs: Gf) -> Gf {
        Gf(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf {
    #[allow(clippy::suspicious_op_assign_impl)]
    fn add_assign(&mut self, rhs: Gf) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf {
    type Output = Gf;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn sub(self, rhs: Gf) -> Gf {
        // Characteristic 2: subtraction is addition.
        self + rhs
    }
}

impl Mul for Gf {
    type Output = Gf;
    fn mul(self, rhs: Gf) -> Gf {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf::ZERO;
        }
        let t = tables();
        Gf(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf {
    fn mul_assign(&mut self, rhs: Gf) {
        *self = *self * rhs;
    }
}

impl Div for Gf {
    type Output = Result<Gf>;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Gf) -> Result<Gf> {
        Ok(self * rhs.inverse()?)
    }
}

impl std::fmt::Display for Gf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#04x}", self.0)
    }
}

/// Below this many bytes the word kernel's one-time setup (flattening the
/// nibble tables) costs more than it saves; fall back to per-byte lookups.
const WIDE_KERNEL_THRESHOLD: usize = 256;

/// At or above this many bytes the vectorized kernel (when the CPU has
/// one) amortizes its per-call bit-matrix construction.
const ACCEL_THRESHOLD: usize = 64;

/// The kernel tier this machine runs: `"gfni-avx512"` when the fused
/// kernel is available (every Reed–Solomon encode and reconstruct, and
/// [`mul_acc`] on large blocks), `"portable-wide"` otherwise (the
/// per-row loop over the portable kernels). (Short `mul_acc` slices and
/// the 0/1 coefficients always take the scalar paths.)
/// Fixed for the life of the process; the observability layer records it
/// once at registration.
pub fn kernel_tier() -> &'static str {
    if crate::simd::accel_available() {
        "gfni-avx512"
    } else {
        "portable-wide"
    }
}

/// Multiply-accumulate a byte slice: `dst[i] += coeff · src[i]`, the inner
/// loop of Reed–Solomon encoding and reconstruction.
///
/// Three tiers, fastest available wins:
///
/// 1. a vectorized GF(2⁸) kernel (x86 `GFNI`, 64 bytes/instruction) when
///    the CPU supports it and the slice is long enough to amortize setup,
/// 2. the portable wide kernel ([`mul_acc_portable`]): a flattened
///    256-entry product table driven in 8-byte `u64` words,
/// 3. per-byte split-nibble lookups for short slices.
///
/// All tiers are differentially tested against the scalar log/exp
/// definition, [`mul_acc_reference`], and produce identical bytes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc(dst: &mut [u8], src: &[u8], coeff: Gf) {
    assert_eq!(dst.len(), src.len(), "mul_acc: length mismatch");
    if coeff.0 == 0 {
        return;
    }
    if coeff.0 == 1 {
        xor_acc(dst, src);
        return;
    }
    if dst.len() >= ACCEL_THRESHOLD && crate::simd::mul_acc_accel(dst, src, coeff) {
        return;
    }
    mul_acc_portable_inner(dst, src, coeff);
}

/// Multiply with overwrite semantics: `dst[i] = coeff · src[i]`, ignoring
/// whatever `dst` held before. This is the first-pass form of [`mul_acc`]:
/// an encoder seeding its parity rows from the first data shard can skip
/// the zero-fill *and* the read-modify-write the accumulate form pays —
/// one store pass instead of a memset plus a load-xor-store pass, which
/// matters on the serving hot path where every parity buffer is fresh.
///
/// The common coefficients stay special-cased: `0` is a fill, `1` is a
/// straight copy (the XOR-code case).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_into(dst: &mut [u8], src: &[u8], coeff: Gf) {
    assert_eq!(dst.len(), src.len(), "mul_into: length mismatch");
    if coeff.0 == 0 {
        dst.fill(0);
        return;
    }
    if coeff.0 == 1 {
        dst.copy_from_slice(src);
        return;
    }
    // General coefficients reuse the accumulate kernels over zeroed
    // output (`x ^ 0 = x`); the two cases above cover the coefficients
    // the serving geometries actually hit on their first pass.
    dst.fill(0);
    if dst.len() >= ACCEL_THRESHOLD && crate::simd::mul_acc_accel(dst, src, coeff) {
        return;
    }
    mul_acc_portable_inner(dst, src, coeff);
}

/// The portable wide kernel behind [`mul_acc`]: the coefficient's two
/// split-nibble tables are flattened into a 256-entry product table held
/// on the stack, and the slice is processed in 8-byte `u64` words (eight
/// independent L1 lookups assembled per word, one XOR-accumulate store)
/// with scalar handling for the unaligned tail. Short slices use the
/// nibble tables directly.
///
/// Public so the perf harness can record this tier separately from the
/// vectorized dispatch; callers should normally use [`mul_acc`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_portable(dst: &mut [u8], src: &[u8], coeff: Gf) {
    assert_eq!(dst.len(), src.len(), "mul_acc: length mismatch");
    if coeff.0 == 0 {
        return;
    }
    if coeff.0 == 1 {
        xor_acc(dst, src);
        return;
    }
    mul_acc_portable_inner(dst, src, coeff);
}

fn mul_acc_portable_inner(dst: &mut [u8], src: &[u8], coeff: Gf) {
    let nt = nibble_tables();
    let lo = &nt.lo[coeff.0 as usize];
    let hi = &nt.hi[coeff.0 as usize];
    if dst.len() < WIDE_KERNEL_THRESHOLD {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= lo[(*s & 0x0f) as usize] ^ hi[(*s >> 4) as usize];
        }
        return;
    }
    // Flatten lo/hi into a single 256-entry product table (256 cheap XORs,
    // amortized over the slice): the word loop then needs one L1 load per
    // source byte instead of two.
    let mut flat = [0u8; 256];
    for (h, &hv) in hi.iter().enumerate() {
        for (l, &lv) in lo.iter().enumerate() {
            flat[(h << 4) | l] = hv ^ lv;
        }
    }
    let (d_words, d_tail) = dst.as_chunks_mut::<8>();
    let (s_words, s_tail) = src.as_chunks::<8>();
    for (d, s) in d_words.iter_mut().zip(s_words) {
        // Assembling the mapped word as a byte array (rather than shift/or
        // on a u64) keeps each lane a plain zero-extended load + byte store,
        // which measures ~25% faster than the shift/or form here.
        let mut m = [0u8; 8];
        for (mb, sb) in m.iter_mut().zip(s) {
            *mb = flat[*sb as usize];
        }
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(m)).to_le_bytes();
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= flat[*s as usize];
    }
}

/// XOR-accumulate `dst[i] ^= src[i]` in 8-byte words (the `coeff == 1`
/// fast path of [`mul_acc`], also used for plain parity).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_acc(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_acc: length mismatch");
    let (d_words, d_tail) = dst.as_chunks_mut::<8>();
    let (s_words, s_tail) = src.as_chunks::<8>();
    for (d, s) in d_words.iter_mut().zip(s_words) {
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(*s)).to_le_bytes();
    }
    for (d, s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= s;
    }
}

/// The pre-overhaul scalar multiply-accumulate: one branchy log/exp lookup
/// per byte. Kept as the differential-testing reference for [`mul_acc`]
/// and as the "before" datapoint in the perf harness
/// (`cargo bench -p nsr-bench --bench erasure`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_reference(dst: &mut [u8], src: &[u8], coeff: Gf) {
    assert_eq!(dst.len(), src.len(), "mul_acc: length mismatch");
    if coeff.0 == 0 {
        return;
    }
    if coeff.0 == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[coeff.0 as usize] as usize;
    for (d, s) in dst.iter_mut().zip(src) {
        if *s != 0 {
            *d ^= t.exp[log_c + t.log[*s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(Gf(a) + Gf(a), Gf::ZERO);
            assert_eq!(Gf(a) + Gf::ZERO, Gf(a));
            assert_eq!(Gf(a) - Gf(a), Gf::ZERO);
        }
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(Gf(a) * Gf::ONE, Gf(a));
            assert_eq!(Gf(a) * Gf::ZERO, Gf::ZERO);
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf(a).inverse().unwrap();
            assert_eq!(Gf(a) * inv, Gf::ONE, "a = {a}");
        }
        assert!(Gf::ZERO.inverse().is_err());
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check associativity over a structured subset.
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                assert_eq!(Gf(a) * Gf(b), Gf(b) * Gf(a));
                for c in (0..=255u8).step_by(51) {
                    assert_eq!((Gf(a) * Gf(b)) * Gf(c), Gf(a) * (Gf(b) * Gf(c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(Gf(a) * (Gf(b) + Gf(c)), Gf(a) * Gf(b) + Gf(a) * Gf(c));
                }
            }
        }
    }

    #[test]
    fn generator_has_full_order() {
        // α must generate all 255 non-zero elements.
        let mut seen = std::collections::HashSet::new();
        for n in 0..255 {
            seen.insert(Gf::alpha_pow(n).0);
        }
        assert_eq!(seen.len(), 255);
        assert!(!seen.contains(&0));
        assert_eq!(Gf::alpha_pow(255), Gf::ONE);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [1u8, 2, 3, 0x53, 0xff] {
            let mut acc = Gf::ONE;
            for n in 0..20 {
                assert_eq!(Gf(a).pow(n), acc, "a={a}, n={n}");
                acc *= Gf(a);
            }
        }
        assert_eq!(Gf::ZERO.pow(0), Gf::ONE);
        assert_eq!(Gf::ZERO.pow(5), Gf::ZERO);
    }

    #[test]
    fn division_roundtrip() {
        for a in (1..=255u8).step_by(3) {
            for b in (1..=255u8).step_by(5) {
                let q = (Gf(a) / Gf(b)).unwrap();
                assert_eq!(q * Gf(b), Gf(a));
            }
        }
        assert!((Gf(5) / Gf::ZERO).is_err());
    }

    #[test]
    fn mul_acc_matches_scalar_path() {
        let src: Vec<u8> = (0..64).map(|i| (i * 37 + 5) as u8).collect();
        for coeff in [0u8, 1, 2, 0x1d, 0xe5] {
            let mut dst = vec![0xaau8; 64];
            let mut expected = dst.clone();
            mul_acc(&mut dst, &src, Gf(coeff));
            for (e, s) in expected.iter_mut().zip(&src) {
                *e = (Gf(*e) + Gf(coeff) * Gf(*s)).0;
            }
            assert_eq!(dst, expected, "coeff = {coeff}");
        }
    }

    #[test]
    fn mul_into_ignores_prior_contents_and_matches_acc_from_zero() {
        let src: Vec<u8> = (0..301).map(|i| (i * 31 + 7) as u8).collect();
        for coeff in [0u8, 1, 2, 0x1d, 0xe5] {
            let mut got = vec![0x55u8; src.len()]; // garbage that must vanish
            mul_into(&mut got, &src, Gf(coeff));
            let mut want = vec![0u8; src.len()];
            mul_acc(&mut want, &src, Gf(coeff));
            assert_eq!(got, want, "coeff = {coeff}");
        }
    }

    #[test]
    fn nibble_tables_decompose_multiplication() {
        let nt = nibble_tables();
        for c in 0..=255u8 {
            for s in 0..=255u8 {
                let want = (Gf(c) * Gf(s)).0;
                let got =
                    nt.lo[c as usize][(s & 0x0f) as usize] ^ nt.hi[c as usize][(s >> 4) as usize];
                assert_eq!(got, want, "c={c}, s={s}");
            }
        }
    }

    #[test]
    fn wide_kernel_matches_reference_across_lengths() {
        // Cover the short (nibble) path, the wide (u64-word) path, and the
        // vectorized dispatch tier, including every head/tail remainder
        // mod 8 and the accel threshold boundary.
        for len in (0..40).chain([63, 64, 65, 255, 256, 257, 1000, 1031]) {
            let src: Vec<u8> = (0..len).map(|i| (i * 151 + 13) as u8).collect();
            for coeff in [0u8, 1, 3, 0x1d, 0x80, 0xff] {
                let init = (0..len).map(|i| (i * 29 + 7) as u8).collect::<Vec<u8>>();
                let mut slow = init.clone();
                mul_acc_reference(&mut slow, &src, Gf(coeff));
                for (kernel, name) in [
                    (mul_acc as fn(&mut [u8], &[u8], Gf), "mul_acc"),
                    (mul_acc_portable, "mul_acc_portable"),
                ] {
                    let mut fast = init.clone();
                    kernel(&mut fast, &src, Gf(coeff));
                    assert_eq!(fast, slow, "{name}, len={len}, coeff={coeff}");
                }
            }
        }
    }

    #[test]
    fn all_coefficients_agree_across_kernels() {
        // Every coefficient, a length exercising blocks + tails on every
        // tier (the bugfix class this guards: a wrong bit-matrix or table
        // entry for one specific coefficient).
        let len = 200;
        let src: Vec<u8> = (0..len).map(|i| (i * 151 + 13) as u8).collect();
        for coeff in 0..=255u8 {
            let init = (0..len).map(|i| (i * 29 + 7) as u8).collect::<Vec<u8>>();
            let mut slow = init.clone();
            mul_acc_reference(&mut slow, &src, Gf(coeff));
            let mut fast = init.clone();
            mul_acc(&mut fast, &src, Gf(coeff));
            assert_eq!(fast, slow, "mul_acc, coeff={coeff}");
            let mut fast = init;
            mul_acc_portable(&mut fast, &src, Gf(coeff));
            assert_eq!(fast, slow, "mul_acc_portable, coeff={coeff}");
        }
    }

    #[test]
    fn xor_acc_is_mul_acc_by_one() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..len).map(|i| (i * 91 + 3) as u8).collect();
            let mut a = (0..len).map(|i| (i * 5 + 1) as u8).collect::<Vec<u8>>();
            let mut b = a.clone();
            xor_acc(&mut a, &src);
            mul_acc_reference(&mut b, &src, Gf::ONE);
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn display_and_constants() {
        assert_eq!(format!("{}", Gf(0x1d)), "0x1d");
        assert_eq!(Gf::default(), Gf::ZERO);
        assert_eq!(Gf::ONE.0, 1);
    }
}
