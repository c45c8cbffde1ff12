//! Property-based tests for GF(2⁸) arithmetic, the Reed–Solomon code, and
//! placement accounting, driven by the in-repo seeded PRNG.
//!
//! The codec half holds the encoder to an oracle that shares no code with
//! it: parity built coefficient by coefficient with the scalar log/exp
//! `mul_acc_reference` from the generator matrix, plus FNV-1a hashes of
//! parity bytes captured before the fused kernel replaced the per-row
//! loop. A kernel that applied the wrong coefficients consistently in
//! encode *and* reconstruct would still round-trip; it fails here.

use nsr_erasure::gf256::{mul_acc_reference, Gf};
use nsr_erasure::matrix::GfMatrix;
use nsr_erasure::placement::{Placement, RebuildFlows};
use nsr_erasure::rs::ReedSolomon;
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

/// Deterministic shard bytes for `(k, len)`: an xorshift stream, so every
/// byte value and every coefficient pairing shows up.
fn stripe_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..k)
        .map(|_| {
            (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 24) as u8
                })
                .collect()
        })
        .collect()
}

/// Parity from the generator matrix, one scalar multiply-accumulate per
/// coefficient — the oracle.
fn reference_parity(k: usize, t: usize, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let generator = GfMatrix::vandermonde(k + t, k)
        .and_then(|v| v.systematize())
        .unwrap();
    let len = data[0].len();
    (0..t)
        .map(|p| {
            let mut out = vec![0u8; len];
            for (c, d) in data.iter().enumerate() {
                mul_acc_reference(&mut out, d, generator.get(k + p, c));
            }
            out
        })
        .collect()
}

fn fnv1a(chunks: &[Vec<u8>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in chunks.iter().flatten() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn parity_bytes_match_hashes_captured_before_the_fused_kernel() {
    // Captured from `encode_parity_into` at the parent of the fused
    // kernel (the per-row `mul_into`/`mul_acc` loop). Lengths cover the
    // empty stripe, a lone tail byte, the strip edge, the `serve_small`
    // (683 B), `degraded_rebuild` (10,923 B) and `serve_large`
    // (174,763 B) shard sizes.
    const LENS: [usize; 8] = [0, 1, 63, 64, 65, 683, 10_923, 174_763];
    for ((k, t), hashes) in PINNED_PARITY_HASHES {
        let code = ReedSolomon::new(k, t).unwrap();
        for (len, want) in LENS.into_iter().zip(hashes) {
            let data = stripe_data(k, len, (k * 100 + t) as u64 + len as u64);
            let mut parity = vec![vec![0x5au8; len]; t];
            code.encode_parity_into(&data, &mut parity).unwrap();
            assert_eq!(
                fnv1a(&parity),
                want,
                "({k},{t}) at {len} B: parity bytes moved"
            );
        }
    }
}

#[test]
fn encode_parity_into_matches_the_scalar_oracle_for_every_small_geometry() {
    // Every (k, t) ≤ (16, 4) and every length 0 ..= 3·64 + 1: each strip
    // count, each partial-strip remainder, into dirty parity buffers.
    for k in 1..=16 {
        for t in 1..=4 {
            let code = ReedSolomon::new(k, t).unwrap();
            for len in 0..=3 * 64 + 1 {
                let data = stripe_data(k, len, (k * 7919 + t * 104_729 + len) as u64);
                let mut parity = vec![vec![0xa5u8; len]; t];
                code.encode_parity_into(&data, &mut parity).unwrap();
                assert_eq!(
                    parity,
                    reference_parity(k, t, &data),
                    "({k},{t}) at {len} B"
                );
            }
        }
    }
}

/// Every erasure pattern of 1..=t positions out of `r`, as sorted lists.
fn patterns(r: usize, t: usize) -> Vec<Vec<usize>> {
    (1u32..1 << r)
        .filter(|m| m.count_ones() as usize <= t)
        .map(|m| (0..r).filter(|&i| m & (1 << i) != 0).collect())
        .collect()
}

#[test]
fn reconstruct_into_restores_oracle_bytes_for_every_small_pattern() {
    // Every erasure pattern up to t at k ≤ 6, a seeded sample of patterns
    // above that; each rebuilt into dirty buffers, both the whole missing
    // set and only its data positions, and compared with the stripe the
    // scalar oracle encoded.
    let lens = [0usize, 1, 63, 64, 65, 127, 128, 129, 191, 192, 193];
    let mut rng = StdRng::seed_from_u64(0x6f_0006);
    for k in 1..=16 {
        for t in 1..=4 {
            let code = ReedSolomon::new(k, t).unwrap();
            let r = k + t;
            let all = patterns(r, t);
            let chosen: Vec<&Vec<usize>> = if k <= 6 {
                all.iter().collect()
            } else {
                (0..12)
                    .map(|_| &all[rng.random_range_usize(0, all.len())])
                    .collect()
            };
            for (i, missing) in chosen.into_iter().enumerate() {
                let plan = code.plan_reconstruction(missing).unwrap();
                let len = lens[(i + k + t) % lens.len()];
                let data = stripe_data(k, len, (r * 31 + missing[0]) as u64);
                let mut full = data.clone();
                full.extend(reference_parity(k, t, &data));
                let data_only: Vec<usize> = missing.iter().copied().filter(|&m| m < k).collect();
                for rebuild in [missing.as_slice(), data_only.as_slice()] {
                    let mut bufs = full.clone();
                    for &m in missing {
                        bufs[m].fill(0xee);
                    }
                    let mut views: Vec<&mut [u8]> =
                        bufs.iter_mut().map(Vec::as_mut_slice).collect();
                    code.reconstruct_into(&plan, &mut views, rebuild).unwrap();
                    // A missing position nobody asked for stays untouched.
                    let untouched = vec![0xeeu8; len];
                    for (pos, got) in bufs.iter().enumerate() {
                        let skipped = missing.contains(&pos) && !rebuild.contains(&pos);
                        let want = if skipped { &untouched } else { &full[pos] };
                        assert_eq!(
                            got, want,
                            "({k},{t}) lost {missing:?} rebuild {rebuild:?} pos {pos}, {len} B"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gf_field_axioms() {
    let mut rng = StdRng::seed_from_u64(0x6f_0001);
    for _ in 0..512 {
        let (a, b, c) = (
            Gf(rng.random::<u8>()),
            Gf(rng.random::<u8>()),
            Gf(rng.random::<u8>()),
        );
        // Commutativity.
        assert_eq!(a + b, b + a);
        assert_eq!(a * b, b * a);
        // Associativity.
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!((a * b) * c, a * (b * c));
        // Distributivity.
        assert_eq!(a * (b + c), a * b + a * c);
        // Inverses.
        if a != Gf::ZERO {
            assert_eq!(a * a.inverse().unwrap(), Gf::ONE);
        }
    }
}

#[test]
fn rs_roundtrip_arbitrary_erasures() {
    let mut rng = StdRng::seed_from_u64(0x6f_0002);
    for _ in 0..192 {
        let data_shards = rng.random_range_usize(2, 8);
        let parity_shards = rng.random_range_usize(1, 4);
        let len = rng.random_range_usize(1, 64);
        let seed = rng.random::<u64>() % 10_000;

        let code = ReedSolomon::new(data_shards, parity_shards).unwrap();
        let total = data_shards + parity_shards;
        // Deterministic pseudo-random data from the seed.
        let data: Vec<Vec<u8>> = (0..data_shards)
            .map(|i| {
                (0..len)
                    .map(|j| {
                        (seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((i * 1000 + j) as u64)
                            >> 32) as u8
                    })
                    .collect()
            })
            .collect();
        let full = code.encode(&data).unwrap();
        assert!(code.verify(&full).unwrap());

        // Erase up to `parity_shards` positions chosen by the seed.
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        let erasures = (seed as usize % parity_shards) + 1;
        let mut pos = seed as usize % total;
        for _ in 0..erasures {
            shards[pos % total] = None;
            pos = pos.wrapping_mul(7).wrapping_add(3);
        }
        code.reconstruct(&mut shards).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(&full[i][..]));
        }
    }
}

#[test]
fn parity_changes_when_data_changes() {
    let mut rng = StdRng::seed_from_u64(0x6f_0003);
    for _ in 0..256 {
        let byte = rng.random::<u8>();
        let pos = rng.random_range_usize(0, 16);
        let code = ReedSolomon::new(4, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
        let base = code.encode(&data).unwrap();
        let mut tweaked = data.clone();
        if tweaked[2][pos] != byte {
            tweaked[2][pos] = byte;
            let enc = code.encode(&tweaked).unwrap();
            // Both parity shards must differ (MDS: every parity depends on
            // every data byte position-wise).
            assert_ne!(&enc[4], &base[4]);
            assert_ne!(&enc[5], &base[5]);
        }
    }
}

#[test]
fn placement_critical_fraction_matches_formula() {
    let mut rng = StdRng::seed_from_u64(0x6f_0004);
    let mut checked = 0;
    while checked < 32 {
        let n = rng.random_range_usize(6, 14) as u32;
        let r = rng.random_range_usize(3, 6) as u32;
        let t = rng.random_range_usize(1, 3) as u32;
        if r > n || t >= r {
            continue;
        }
        checked += 1;
        let p = Placement::enumerate_all(n, r).unwrap();
        let other_failed: Vec<u32> = (0..t - 1).collect();
        let got = p.critical_fraction(t - 1, &other_failed).unwrap();
        let mut expected = 1.0;
        for i in 1..t {
            expected *= (r - i) as f64 / (n - i) as f64;
        }
        assert!((got - expected).abs() < 1e-12, "{got} vs {expected}");
    }
}

#[test]
fn rebuild_flows_conserve() {
    let mut rng = StdRng::seed_from_u64(0x6f_0005);
    let mut checked = 0;
    while checked < 32 {
        let n = rng.random_range_usize(6, 12) as u32;
        let r = rng.random_range_usize(3, 6) as u32;
        let t = rng.random_range_usize(1, 3) as u32;
        let failed = rng.random_range_usize(0, 6) as u32;
        if r > n || t >= r || failed >= n {
            continue;
        }
        checked += 1;
        let p = Placement::enumerate_all(n, r).unwrap();
        let flows = RebuildFlows::for_node_failure(&p, failed, t).unwrap();
        let sourced: u64 = flows.sourced.iter().sum();
        let received: u64 = flows.received.iter().sum();
        assert_eq!(sourced, flows.network_total);
        assert_eq!(received, flows.network_total);
        let rebuilt: u64 = flows.rebuilt.iter().sum();
        assert_eq!(rebuilt, flows.lost_elements);
        assert_eq!(flows.sourced[failed as usize], 0);
    }
}

/// FNV-1a of the concatenated parity bytes per `(k, t)` and length (see
/// `parity_bytes_match_hashes_captured_before_the_fused_kernel`).
const PINNED_PARITY_HASHES: [((usize, usize), [u64; 8]); 4] = [
    (
        (6, 2),
        [
            0xcbf29ce484222325,
            0x0a0e2807b67f6661,
            0x9f6b220bb8b1444c,
            0xcf65a9b8482b57a2,
            0x18b161863427888b,
            0x1f241a44f323b83c,
            0x97253132b2cb0015,
            0x028b92ad3e25e7a7,
        ],
    ),
    (
        (10, 2),
        [
            0xcbf29ce484222325,
            0x0875db07b52416c2,
            0x6b414c959a13a2cc,
            0xe12605023773d978,
            0x8ae3107d20e14f73,
            0x9442bad8addf2c19,
            0xa2d14a67f2104f0b,
            0xfbe9ed936615de3b,
        ],
    ),
    (
        (5, 3),
        [
            0xcbf29ce484222325,
            0x8f6a1218d3447c19,
            0x3ff87c41aa82f2b5,
            0x2f04b93ca1e521bb,
            0x4ee47919b7fd788a,
            0x9d3c04fa34618104,
            0xed11a8e56bd8b773,
            0x002dc75019459c2e,
        ],
    ),
    (
        (16, 4),
        [
            0xcbf29ce484222325,
            0x9371953d14154873,
            0xc44c09af05122514,
            0x762ccdc75e422460,
            0xbddf33150cea23e5,
            0xa09afd37a18acfca,
            0xa339e08c4b6fd6ac,
            0x19795abf7d102056,
        ],
    ),
];
