//! Fuzz-ish property tests for the wire codec, in the workspace's
//! hand-rolled style (seeded `nsr-rng` loops instead of an external
//! proptest dependency): for every frame variant and thousands of
//! seeded random mutations — truncations, extensions, garbage tags,
//! corrupted length prefixes, pure noise — decoding either returns the
//! encoded value or a typed [`Error::Decode`]. Never a panic, never a
//! silently wrong frame on an untouched encoding. Every data request
//! drawn, written by `write_batch` as a batch of one, is its bare frame.
//!
//! The second half holds the in-place shard reader to the frame reader,
//! differentially: over the same bytes, delivered in the same dribbles,
//! `read_shard_into` must land exactly the payload `read_frame` would
//! have returned, or return the identical frame or the identical error.
//! The spare-taking reader the brick uses is held to the same outcome
//! whatever its spare buffer holds.

use std::io::{BufReader, Read};

use nsr_net::wire::{
    read_frame, read_frame_reusing, read_shard_into, write_batch, DataRequest, Frame, ShardReply,
    MAX_FRAME_LEN,
};
use nsr_net::Error;
use nsr_rng::rngs::StdRng;
use nsr_rng::{Rng, SeedableRng};

fn decode_bytes(bytes: &[u8]) -> Result<Option<Frame>, Error> {
    let mut cursor = std::io::Cursor::new(bytes.to_vec());
    read_frame(&mut cursor)
}

/// A seeded random frame of any variant, sizes skewed small with
/// occasional large payloads.
fn random_frame(rng: &mut StdRng) -> Frame {
    let len = if rng.random_range_usize(0, 8) == 0 {
        rng.random_range_usize(0, 4096)
    } else {
        rng.random_range_usize(0, 64)
    };
    let data: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
    match rng.random_range_usize(0, 16) {
        0 => Frame::PutShard {
            object: rng.random(),
            pos: rng.random(),
            data,
        },
        1 => Frame::GetShard {
            object: rng.random(),
            pos: rng.random(),
        },
        2 => Frame::DeleteShard {
            object: rng.random(),
            pos: rng.random(),
        },
        3 => Frame::Heartbeat { seq: rng.random() },
        4 => Frame::ListShards,
        5 => Frame::RebuildFetch {
            object: rng.random(),
            pos: rng.random(),
        },
        6 => Frame::Shutdown,
        7 => Frame::Ok,
        8 => Frame::ShardData { data },
        9 => Frame::HeartbeatAck {
            seq: rng.random(),
            brick_id: rng.random(),
            shards: rng.random(),
            snap_seq: rng.random(),
            load: rng.random(),
        },
        10 => {
            let n = rng.random_range_usize(0, 32);
            Frame::ShardList {
                entries: (0..n).map(|_| (rng.random(), rng.random())).collect(),
            }
        }
        11 => Frame::TraceCtx {
            proc: rng.random(),
            span: rng.random(),
        },
        12 => Frame::Scrape {
            cursor: rng.random(),
            max_lines: rng.random(),
        },
        13 => Frame::ScrapeReply {
            proc_id: rng.random(),
            snap_seq: rng.random(),
            next_cursor: rng.random(),
            label: String::from_utf8_lossy(&data[..data.len().min(16)]).into_owned(),
            metrics: data.clone(),
            trace: data.iter().rev().copied().collect(),
            status: data,
        },
        14 => Frame::Batch {
            count: rng.random(),
        },
        _ => Frame::ErrorReply {
            code: (rng.random::<u32>() & 0xffff) as u16,
            detail: String::from_utf8_lossy(&data).into_owned(),
        },
    }
}

#[test]
fn untouched_encodings_always_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..2_000 {
        let frame = random_frame(&mut rng);
        let decoded = decode_bytes(&frame.encode())
            .expect("clean encoding decodes")
            .expect("clean encoding is a frame");
        assert_eq!(decoded, frame);
    }
}

/// The data request `frame` is, borrowing its payload, or `None` for any
/// other kind of frame.
fn data_request(frame: &Frame) -> Option<DataRequest<'_>> {
    Some(match *frame {
        Frame::GetShard { object, pos } => DataRequest::GetShard { object, pos },
        Frame::RebuildFetch { object, pos } => DataRequest::RebuildFetch { object, pos },
        Frame::DeleteShard { object, pos } => DataRequest::DeleteShard { object, pos },
        Frame::PutShard {
            object,
            pos,
            ref data,
        } => DataRequest::PutShard { object, pos, data },
        _ => return None,
    })
}

#[test]
fn a_batch_of_one_writes_the_bare_frame() {
    // Every data request the generator draws, written as a batch of one,
    // is its own frame's encoding with no prefix, and decodes back.
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let frame = random_frame(&mut rng);
        let Some(request) = data_request(&frame) else {
            continue;
        };
        let mut bytes = Vec::new();
        write_batch(&mut bytes, &[request]).expect("a shard under the cap");
        assert_eq!(bytes, frame.encode(), "{}", frame.name());
        assert_eq!(decode_bytes(&bytes), Ok(Some(frame.clone())));
        kinds.insert(frame.name());
    }
    assert_eq!(kinds.len(), 4, "every data-request kind drawn: {kinds:?}");
}

#[test]
fn truncations_never_panic_and_never_decode_wrong() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for _ in 0..500 {
        let frame = random_frame(&mut rng);
        let enc = frame.encode();
        // Every cut for small frames; a seeded sample for large ones
        // (exhaustive truncation of 4 KiB payloads is all payload).
        let cuts: Vec<usize> = if enc.len() <= 256 {
            (0..enc.len()).collect()
        } else {
            (0..64)
                .map(|_| rng.random_range_usize(0, enc.len()))
                .collect()
        };
        for cut in cuts {
            match decode_bytes(&enc[..cut]) {
                // An empty prefix is a clean EOF; anything else cut
                // short must be a typed decode error.
                Ok(None) => assert_eq!(cut, 0),
                Ok(Some(_)) => panic!("truncated frame decoded ({cut}/{} bytes)", enc.len()),
                Err(Error::Decode { .. }) => {}
                Err(other) => panic!("non-decode error on truncation: {other:?}"),
            }
        }
    }
}

#[test]
fn random_byte_mutations_decode_or_reject_typed() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for _ in 0..2_000 {
        let frame = random_frame(&mut rng);
        let mut enc = frame.encode();
        for _ in 0..1 + rng.random_range_usize(0, 4) {
            let i = rng.random_range_usize(0, enc.len());
            enc[i] ^= 1 << rng.random_range_usize(0, 8);
        }
        match decode_bytes(&enc) {
            // A mutation can still be a valid frame (e.g. a flipped bit
            // inside payload bytes) — that is fine; what is not allowed
            // is a panic or an untyped failure.
            Ok(_) => {}
            Err(Error::Decode { .. }) => {}
            Err(other) => panic!("mutation produced non-decode error: {other:?}"),
        }
    }
}

#[test]
fn garbage_tags_and_noise_reject_typed() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for _ in 0..2_000 {
        let len = rng.random_range_usize(1, 128);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        // Keep the announced length in bounds so the run exercises tag
        // and payload validation, not just the length guard.
        let body_len = (len.saturating_sub(4)).max(1) as u32;
        bytes[..4.min(len)].copy_from_slice(&body_len.to_le_bytes()[..4.min(len)]);
        match decode_bytes(&bytes) {
            Ok(_) => {}
            Err(Error::Decode { .. }) => {}
            Err(other) => panic!("noise produced non-decode error: {other:?}"),
        }
    }
}

#[test]
fn oversized_and_zero_lengths_reject_typed() {
    for len in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(0x40); // a valid tag, irrelevant once length is bad
        match decode_bytes(&bytes) {
            Err(Error::Decode { .. }) => {}
            other => panic!("length {len} must reject typed, got {other:?}"),
        }
    }
}

/// Hands out at most `chunk` bytes per `read`, like a socket whose
/// segments arrive one at a time.
struct Dribble<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Buffer capacity of the readers under test: small, so payloads on
/// both sides of it are cheap to cut at every byte. The production
/// readers differ only in this number.
const CAP: usize = 64;

/// Bytes per `read`: a trickle, an odd small segment, and just under and
/// just over what the buffer can take at once.
const CHUNKS: [usize; 4] = [1, 7, CAP - 1, CAP + 1];

/// Shard sizes around the buffer capacity: empty, one byte, one short of
/// full, full, one over (the first payload part of which bypasses the
/// buffer), and several buffers' worth.
const SHARD_LENS: [usize; 6] = [0, 1, CAP - 1, CAP, CAP + 1, 3 * CAP];

fn dribble(bytes: &[u8], chunk: usize) -> BufReader<Dribble<'_>> {
    BufReader::with_capacity(CAP, Dribble { bytes, chunk })
}

fn shard_frame(len: usize) -> Frame {
    Frame::ShardData {
        data: (0..len).map(|i| (i * 37 + 11) as u8).collect(),
    }
}

/// Reads `bytes` once with each reader and requires the same outcome.
fn assert_same_outcome(bytes: &[u8], dst_len: usize, chunk: usize) {
    let want = read_frame(&mut dribble(bytes, chunk));
    let mut dst = vec![0xCD; dst_len];
    let got = read_shard_into(&mut dribble(bytes, chunk), &mut dst);
    let ctx = format!("{} bytes, dst {dst_len}, {chunk} per read", bytes.len());
    match (want, got) {
        (Ok(None), Ok(ShardReply::Eof)) => {}
        (Ok(Some(Frame::ShardData { data })), Ok(ShardReply::Filled)) => {
            assert_eq!(data, dst, "payload in place: {ctx}")
        }
        (Ok(Some(Frame::ShardData { data })), Err(e @ Error::ShardLength { .. })) => {
            let (expected, found) = (dst_len, data.len());
            assert_ne!(expected, found, "{ctx}");
            assert_eq!(e, Error::ShardLength { expected, found }, "{ctx}");
            assert!(dst.iter().all(|&b| b == 0xCD), "dst untouched: {ctx}");
        }
        (Ok(Some(frame)), Ok(ShardReply::Other(other))) => {
            assert!(!matches!(frame, Frame::ShardData { .. }), "{ctx}");
            assert_eq!(frame, other, "{ctx}");
        }
        (Err(want), Err(got)) => {
            assert!(matches!(want, Error::Decode { .. }), "{want:?}: {ctx}");
            assert!(want.breaks_stream());
            assert_eq!(want, got, "{ctx}");
        }
        (want, got) => panic!("read_frame {want:?} but read_shard_into {got:?}: {ctx}"),
    }
}

#[test]
fn shard_reader_matches_frame_reader_on_every_frame_kind() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..200 {
        let frame = random_frame(&mut rng);
        kinds.insert(frame.name());
        let enc = frame.encode();
        // A destination that fits when the frame is a shard, and one
        // that does not.
        let fits = match &frame {
            Frame::ShardData { data } => data.len(),
            _ => rng.random_range_usize(0, 2 * CAP),
        };
        let cuts: Vec<usize> = if enc.len() <= 256 {
            (0..=enc.len()).collect()
        } else {
            (0..32)
                .map(|_| rng.random_range_usize(0, enc.len() + 1))
                .collect()
        };
        for chunk in CHUNKS {
            for &cut in &cuts {
                assert_same_outcome(&enc[..cut], fits, chunk);
                assert_same_outcome(&enc[..cut], fits + 1, chunk);
            }
        }
    }
    assert_eq!(kinds.len(), 16, "every frame kind drawn: {kinds:?}");
}

#[test]
fn shard_reader_matches_frame_reader_around_the_buffer_capacity() {
    for len in SHARD_LENS {
        let enc = shard_frame(len).encode();
        for chunk in CHUNKS {
            // The stream cut at every byte offset, whole frame included.
            for cut in 0..=enc.len() {
                for dst_len in [len, len + 1, len.saturating_sub(1), 0] {
                    assert_same_outcome(&enc[..cut], dst_len, chunk);
                }
            }
        }
    }
}

#[test]
fn shard_reader_reports_lying_byte_counts_as_the_frame_reader_does() {
    // The byte-count field (bytes 5..9) disagrees with the frame length:
    // both readers drain the body and give the strict decoder's verdict.
    for len in SHARD_LENS {
        let honest = shard_frame(len).encode();
        for lie in [len + 1, len.wrapping_sub(1), 0, u32::MAX as usize] {
            if lie == len {
                continue;
            }
            let mut enc = honest.clone();
            enc[5..9].copy_from_slice(&(lie as u32).to_le_bytes());
            for chunk in CHUNKS {
                for dst_len in [len, lie.min(4 * CAP)] {
                    assert!(matches!(
                        read_frame(&mut dribble(&enc, chunk)),
                        Err(Error::Decode { .. })
                    ));
                    assert_same_outcome(&enc, dst_len, chunk);
                    assert_same_outcome(&enc[..enc.len() - 1], dst_len, chunk);
                }
            }
        }
    }
}

#[test]
fn shard_reader_rejects_bad_length_prefixes_as_the_frame_reader_does() {
    for len in [0u32, MAX_FRAME_LEN + 1, u32::MAX] {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&shard_frame(8).encode()[4..]);
        for chunk in CHUNKS {
            assert!(read_shard_into(&mut dribble(&bytes, chunk), &mut [0u8; 8]).is_err());
            assert_same_outcome(&bytes, 8, chunk);
        }
    }
}

/// Reads `bytes` with the frame reader and then with the spare-taking one
/// under every kind of spare — empty, shorter or longer than the shard
/// (or than `payload` for a frame without one), and exactly its length
/// but dirty — and requires the identical frame or error each time. A
/// shard frame leaves the spare empty (reused or dropped); any other
/// decoded frame leaves it untouched.
fn assert_spare_reader_agrees(bytes: &[u8], payload: usize, chunk: usize) {
    let want = read_frame(&mut dribble(bytes, chunk));
    for spare_len in [0, payload.saturating_sub(1), payload + 1, payload] {
        let mut spare = vec![0xEE; spare_len];
        let got = read_frame_reusing(&mut dribble(bytes, chunk), &mut spare);
        let ctx = format!("{} bytes, spare {spare_len}, {chunk} per read", bytes.len());
        assert_eq!(got, want, "{ctx}");
        match got {
            Ok(Some(Frame::PutShard { .. } | Frame::ShardData { .. })) => {
                assert!(spare.is_empty(), "shard frame took the spare: {ctx}")
            }
            Ok(_) => assert_eq!(spare, vec![0xEE; spare_len], "spare untouched: {ctx}"),
            Err(_) => {}
        }
    }
}

#[test]
fn spare_reader_matches_frame_reader_for_every_fuzz_case() {
    // Untouched encodings, every (or a sampled) truncation, and bit-flip
    // mutations of every frame kind, delivered in dribbles around the
    // buffer capacity.
    let mut rng = StdRng::seed_from_u64(0x5eed_0006);
    for _ in 0..200 {
        let frame = random_frame(&mut rng);
        let payload = match &frame {
            Frame::PutShard { data, .. } | Frame::ShardData { data } => data.len(),
            _ => rng.random_range_usize(0, 2 * CAP),
        };
        let mut enc = frame.encode();
        let cuts: Vec<usize> = if enc.len() <= 256 {
            (0..=enc.len()).collect()
        } else {
            (0..32)
                .map(|_| rng.random_range_usize(0, enc.len() + 1))
                .collect()
        };
        for chunk in CHUNKS {
            for &cut in &cuts {
                assert_spare_reader_agrees(&enc[..cut], payload, chunk);
            }
        }
        for _ in 0..1 + rng.random_range_usize(0, 4) {
            let i = rng.random_range_usize(0, enc.len());
            enc[i] ^= 1 << rng.random_range_usize(0, 8);
        }
        for chunk in CHUNKS {
            assert_spare_reader_agrees(&enc, payload, chunk);
        }
    }
}

#[test]
fn wrong_sized_shard_is_typed_and_leaves_the_stream_in_sync() {
    // A whole shard that does not fit its destination is skipped, not
    // half-read: the error says the lane survives, and the next frame on
    // the same connection decodes.
    let next = Frame::HeartbeatAck {
        seq: 9,
        brick_id: 2,
        shards: 1,
        snap_seq: 0,
        load: 7,
    };
    for len in SHARD_LENS {
        let mut stream = shard_frame(len).encode();
        stream.extend_from_slice(&next.encode());
        for chunk in CHUNKS {
            for dst_len in [len + 1, len + 2 * CAP, len / 2] {
                if dst_len == len {
                    continue;
                }
                let mut r = dribble(&stream, chunk);
                let mut dst = vec![0u8; dst_len];
                let err = read_shard_into(&mut r, &mut dst).expect_err("wrong size");
                assert_eq!(
                    err,
                    Error::ShardLength {
                        expected: dst_len,
                        found: len
                    }
                );
                assert!(!err.breaks_stream(), "the lane survives");
                assert_eq!(read_frame(&mut r), Ok(Some(next.clone())));
            }
            // And after a shard that did fit.
            let mut r = dribble(&stream, chunk);
            let mut dst = vec![0u8; len];
            assert_eq!(read_shard_into(&mut r, &mut dst), Ok(ShardReply::Filled));
            assert_eq!(shard_frame(len), Frame::ShardData { data: dst });
            assert_eq!(read_frame(&mut r), Ok(Some(next.clone())));
            assert_eq!(read_shard_into(&mut r, &mut []), Ok(ShardReply::Eof));
        }
    }
}
