//! `fingerprint::submission_cache_key` over the traffic it exists for.
//!
//! The key picks a verdict-cache shard by its low bits and a fleet node
//! by its place on the ring, and two suffixes that share one share a
//! verdict. Its unit tests pin the hash on short vectors; this pins it
//! on the population the paper describes — the distinct (fingerprint,
//! user-agent) pairs of a 100 000-session `paper_training` window: no
//! two of them collide, they fill eight shards evenly, one flipped input
//! bit moves about half the output bits, and the window's first frame
//! keeps the key it has today.

use fingerprint::{encode_submission, submission_cache_key, FeatureSet, Submission};
use std::collections::BTreeSet;
use traffic::TrafficConfig;

const SESSIONS: usize = 100_000;
const SHARDS: u64 = 8;

#[test]
fn real_traffic_keys_do_not_collide_and_spread_evenly() {
    let config = TrafficConfig::paper_training().with_sessions(SESSIONS);
    let window = traffic::generate(&FeatureSet::table8(), &config);
    let frames: Vec<Vec<u8>> = window
        .sessions
        .iter()
        .map(|s| {
            let sub = Submission {
                session_id: s.session_id,
                user_agent: s.claimed.to_ua_string(),
                values: s.values.clone(),
            };
            encode_submission(&sub).unwrap()
        })
        .collect();

    // A replay reaches the slot and the node it reached before: the key
    // of a real frame is part of the contract, like the short vectors.
    assert_eq!(
        submission_cache_key(&frames[0]),
        Some(FIRST_FRAME_KEY),
        "the paper_training window's first frame changed its key"
    );

    // What the key hashes: everything after magic, version, session id.
    let suffixes: BTreeSet<&[u8]> = frames.iter().map(|f| &f[19..]).collect();
    let keys: BTreeSet<u64> = frames
        .iter()
        .map(|f| submission_cache_key(f).unwrap())
        .collect();
    assert!(
        suffixes.len() > 1_000 && suffixes.len() < SESSIONS / 10,
        "{} distinct suffixes: not the coarse population this test is about",
        suffixes.len()
    );
    assert_eq!(
        keys.len(),
        suffixes.len(),
        "two suffixes share a 64-bit key"
    );

    let mean = keys.len() as f64 / SHARDS as f64;
    for shard in 0..SHARDS {
        let held = keys.iter().filter(|&&k| k % SHARDS == shard).count() as f64;
        assert!(
            (held - mean).abs() <= 0.15 * mean,
            "shard {shard} holds {held} of {} keys (mean {mean:.1})",
            keys.len()
        );
    }

    // Avalanche: every single-bit flip of one suffix, against its key.
    let mut frame = frames[0].clone();
    let key = submission_cache_key(&frame).unwrap();
    let mut moved = 0u32;
    let flips = (frame.len() - 19) * 8;
    for bit in 0..flips {
        frame[19 + bit / 8] ^= 1 << (bit % 8);
        moved += (submission_cache_key(&frame).unwrap() ^ key).count_ones();
        frame[19 + bit / 8] ^= 1 << (bit % 8);
    }
    let mean_moved = f64::from(moved) / flips as f64;
    assert!(
        (24.0..=40.0).contains(&mean_moved),
        "a flipped input bit moves {mean_moved:.1} of 64 key bits on average"
    );
}

/// `submission_cache_key` of the first frame of the default-seed
/// `paper_training` window.
const FIRST_FRAME_KEY: u64 = 0xF8BE_3C7C_BC49_5A70;
