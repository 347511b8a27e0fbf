//! Soak test: steady hash churn keeps the service's footprint flat.
//!
//! A long-running service's memory and per-batch cost must depend on its
//! live state, never on its history.  Each run drives a [`ServiceState`]
//! through 10^4 batches of 64 deletes plus 64 inserts at a constant live
//! set, checkpointing before every batch as the batcher does, and checks
//! after a warm-up that
//!
//! * the arena and the checkpoint (its allocation top, i.e. the cells it
//!   copies) never grow, and
//! * table rebuilds stay rare: at most one per `cap/8` deleted keys, and
//!   the mean claim attempts per batch stay near the batch's own 64.
//!
//! Two live sets: 1,000 keys, and 2,000 keys in the default 4,096-cell
//! table (load 0.49), where a rebuild that keeps the table half full
//! would fire again on the very next batch.

use qrqw_serve::{Reply, Request, ServiceCheckpoint, ServiceConfig, ServiceState};

const BATCHES: usize = 10_000;
const WARMUP: usize = 100;
const CHURN: u64 = 64;

fn soak(live: u64) {
    let mut s = ServiceState::new(ServiceConfig::default());
    assert_eq!(
        s.hash_capacity(),
        4096,
        "the soak runs on the default table"
    );
    // The live set is the window `[lo, lo + live)` of a ring of `2 · live`
    // keys: each batch deletes the window's oldest 64 keys and inserts the
    // 64 keys past its end, so every key is reinserted in turn.
    let ring = 2 * live;
    let prefill: Vec<Request> = (0..live).map(|key| Request::HashInsert { key }).collect();
    s.apply_batch(&prefill);

    let mut ck = ServiceCheckpoint::default();
    let mut flat = None;
    let (mut claims, mut rebuilds) = (0u64, 0u64);
    for b in 0..BATCHES as u64 {
        let lo = b * CHURN;
        let batch: Vec<Request> = (lo..lo + CHURN)
            .map(|k| Request::HashDelete { key: k % ring })
            .chain((lo..lo + CHURN).map(|k| Request::HashInsert {
                key: (k + live) % ring,
            }))
            .collect();
        s.checkpoint_into(&mut ck);
        let tombstones = s.hash_tombstones();
        let (responses, cost) = s.apply_batch(&batch);
        let (deletes, inserts) = responses.split_at(CHURN as usize);
        assert!(deletes.iter().all(|r| *r == Ok(Reply::Removed(true))));
        assert!(inserts.iter().all(|r| *r == Ok(Reply::Inserted(true))));
        assert_eq!(s.hash_len() as u64, live);

        if b as usize == WARMUP {
            flat = Some((s.arena_stats().cells, ck.heap_top(), s.hash_capacity()));
        }
        let Some((cells, top, cap)) = flat else {
            continue;
        };
        assert_eq!(
            (s.arena_stats().cells, ck.heap_top()),
            (cells, top),
            "batch {b}: the arena or the checkpoint grew under a constant live set of {live}"
        );
        assert_eq!(s.hash_capacity(), cap, "batch {b}: the table resized");
        claims += cost.claim_attempts;
        // Deletes only add tombstones; fewer than before plus 64 means the
        // batch rebuilt the table.
        rebuilds += u64::from(s.hash_tombstones() < tombstones + CHURN as usize);
    }

    let (_, _, cap) = flat.expect("the soak outlasts its warm-up");
    let measured = (BATCHES - WARMUP) as u64;
    assert!(
        rebuilds * (cap as u64 / 8) <= measured * CHURN,
        "{rebuilds} rebuilds in {measured} batches of {CHURN} deletes at capacity {cap}"
    );
    let mean_claims = claims as f64 / measured as f64;
    assert!(
        mean_claims <= 3.0 * CHURN as f64,
        "mean claim attempts per batch {mean_claims:.1}: rebuilds dominate the batch"
    );
}

#[test]
fn churn_at_1000_live_keys_keeps_the_footprint_flat() {
    soak(1000);
}

#[test]
fn churn_at_2000_live_keys_in_the_default_table_keeps_the_footprint_flat() {
    soak(2000);
}
