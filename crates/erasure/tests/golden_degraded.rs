//! Golden degraded-operation tests: with **exactly `t` erasures** every
//! stripe reconstructs the original bytes exactly, and at `t + 1` the
//! code fails *cleanly* with the typed [`Error::TooManyErasures`] —
//! never a panic, never silently wrong data. The same contract on real
//! bricks is `nsr-net`'s `fanout_degraded_read_survives_exactly_t_dead_bricks`
//! and `t_deaths_readable_t_plus_one_typed_loss`.

use nsr_erasure::rs::ReedSolomon;
use nsr_erasure::Error;

/// Deterministic payload for object `i`: 96 bytes with a per-object
/// pattern, so any mix-up between objects or shards is caught byte-wise.
fn golden_payload(i: u64) -> Vec<u8> {
    (0..96u32)
        .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

#[test]
fn code_reconstructs_at_exactly_t_erasures() {
    let (data, parity) = (3, 2);
    let code = ReedSolomon::new(data, parity).unwrap();
    let original: Vec<Vec<u8>> = (0..data as u64).map(golden_payload).collect();
    let encoded = code.encode(&original).unwrap();

    // Every possible pair of erasures (t = 2) must reconstruct exactly.
    for a in 0..code.total_shards() {
        for b in (a + 1)..code.total_shards() {
            let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
            shards[a] = None;
            shards[b] = None;
            code.reconstruct(&mut shards).unwrap();
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(
                    shard.as_deref(),
                    Some(encoded[i].as_slice()),
                    "shard {i} wrong after erasing {{{a}, {b}}}"
                );
            }
        }
    }
}

#[test]
fn code_fails_typed_at_t_plus_one_erasures() {
    let code = ReedSolomon::new(3, 2).unwrap();
    let original: Vec<Vec<u8>> = (0..3u64).map(golden_payload).collect();
    let encoded = code.encode(&original).unwrap();
    let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
    shards[0] = None;
    shards[2] = None;
    shards[4] = None;
    assert_eq!(
        code.reconstruct(&mut shards).unwrap_err(),
        Error::TooManyErasures {
            missing: 3,
            tolerated: 2
        }
    );
}
