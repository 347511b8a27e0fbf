//! Machine-resident open-addressing hash set with tombstone deletion.
//!
//! This is the churn-capable generalization of an insert-only hash table:
//! a region of `cap` (power-of-two) cells in machine shared memory,
//! double-hash probe sequences, inserts by rounds of occupy-mode
//! [`Machine::claim`]s (a batch of inserts is exactly the paper's
//! low-contention cell-claiming step) — plus **deletion**.  One probe walk,
//! [`OpenTable::locate`], serves both lookups and deletes: a single
//! parallel probe step returns each key's cell, membership is whether a
//! cell was found, and [`OpenTable::remove`] tombstones the cells found.
//! A deleted key's cell is overwritten with the [`TOMBSTONE`] sentinel
//! rather than [`EMPTY`], which keeps every other key's probe walk intact:
//!
//! * **probes** stop only at [`EMPTY`]; a tombstoned cell is skipped, so
//!   keys placed past it are still found;
//! * **inserts** claim only [`EMPTY`] cells (the claim protocol's probe
//!   pass rejects any occupied cell, tombstones included), so a reinserted
//!   key lands on the first empty cell of its probe order — exactly where
//!   its own probe walk terminates.
//!
//! # Rebuilds
//!
//! The load invariant is `2 · (len + tombstones) ≤ cap` on entry to every
//! insert batch: tombstones count against the load factor because they
//! lengthen probe walks exactly like live keys.  [`OpenTable::insert_new`]
//! restores it by **rebuilding** — re-inserting only the live keys, which
//! purges every tombstone — and a delete-heavy workload triggers the same
//! purge once tombstones alone exceed a quarter of the capacity, so
//! sustained churn cannot degrade probes without bound.
//!
//! Every rebuild — growth, purge or shrink — sizes the table by one rule:
//! the smallest power-of-two `cap ≥ 64` with `8 · (len + additional) ≤
//! 3 · cap`, so the load right after a rebuild is at most 3/8.  The next
//! trigger is then at least `cap/8` inserts or `cap/4` deletes away, which
//! makes rebuild work amortized O(1) per operation, and a live set that
//! falls far below the capacity shrinks the table at its next purge.
//!
//! A rebuild **reuses the region the table already owns**, so the
//! footprint is O(live keys) however long the churn runs:
//!
//! * same or smaller capacity: the first `cap` cells are cleared and the
//!   live keys re-inserted at the same base; when the region is the top of
//!   the machine's (stack) allocator, the cells past the new capacity are
//!   released;
//! * larger capacity at the top of the allocator: the region is released
//!   and re-allocated at the same base, grown in place;
//! * larger capacity *below* another allocation: the only case that takes
//!   a fresh region past the allocation top, abandoning the old one (a
//!   stack allocator cannot grow a region from the middle).  The service
//!   and the churn scenarios allocate their tables last and release every
//!   scratch allocation, so their tables are always at the top.
//!
//! Every operation is deterministic on every backend: occupy-claim winners
//! are the lowest claimant index everywhere (see `qrqw_sim::Machine::claim`),
//! and rebuild triggers and placement depend only on host-side counters and
//! the allocator's top — so a churn trace drives bit-identical table states
//! across sim, native, stealing and BSP machines, which is what
//! `tests/scenarios.rs` pins.

use qrqw_sim::{ClaimMode, Machine, EMPTY};

/// Sentinel marking a deleted cell.  Distinct from [`EMPTY`] and from every
/// stored tag (keys are stored as `key + 1` and must stay below this).
pub const TOMBSTONE: u64 = EMPTY - 1;

/// First probe cell of `key` in a table of `cap` (power-of-two) cells.
pub fn probe_home(key: u64, cap: usize) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - cap.trailing_zeros())
}

/// Odd probe stride of `key` (coprime to the power-of-two capacity, so the
/// probe sequence visits every cell).
pub fn probe_stride(key: u64) -> u64 {
    (key.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) >> 33) | 1
}

/// The `r`-th probe cell of `key`.
pub fn probe_cell(key: u64, r: u64, cap: usize) -> usize {
    (probe_home(key, cap).wrapping_add(r.wrapping_mul(probe_stride(key))) & (cap as u64 - 1))
        as usize
}

/// The host-side geometry of an [`OpenTable`], for checkpoint/restore: the
/// machine region itself is snapshotted separately (it lives in machine
/// memory), but base/cap and the occupancy counters must rewind with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableGeometry {
    /// Base address of the live region.
    pub base: usize,
    /// Capacity in cells (a power of two).
    pub cap: usize,
    /// Live keys.
    pub len: usize,
    /// Tombstoned cells awaiting the next purge.
    pub tombstones: usize,
}

/// A machine-resident open-addressing hash set (see the module docs).
#[derive(Debug)]
pub struct OpenTable {
    base: usize,
    cap: usize,
    len: usize,
    tombstones: usize,
}

impl OpenTable {
    /// Allocates a fresh table of at least `capacity` cells (rounded up to
    /// a power of two, minimum 64).
    pub fn new<M: Machine>(m: &mut M, capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(64);
        OpenTable {
            base: m.alloc(cap),
            cap,
            len: 0,
            tombstones: 0,
        }
    }

    /// Live keys currently present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in cells.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Tombstoned cells not yet purged by a rebuild.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// The current geometry, for checkpointing.
    pub fn geometry(&self) -> TableGeometry {
        TableGeometry {
            base: self.base,
            cap: self.cap,
            len: self.len,
            tombstones: self.tombstones,
        }
    }

    /// Rewinds the geometry to a checkpoint (the caller restores the
    /// machine memory the geometry points into).
    pub fn restore_geometry(&mut self, g: TableGeometry) {
        self.base = g.base;
        self.cap = g.cap;
        self.len = g.len;
        self.tombstones = g.tombstones;
    }

    /// One parallel probe step locating `keys` in the current table: each
    /// key's cell, or `None` when it is absent.  Tombstoned cells are
    /// skipped; only [`EMPTY`] terminates a walk.  This is the table's only
    /// probe walk — membership is `is_some()`, and [`OpenTable::remove`]
    /// takes the cells it found.  An empty `keys` issues no step.
    pub fn locate<M: Machine>(&self, m: &mut M, keys: &[u64]) -> Vec<Option<usize>> {
        if keys.is_empty() {
            return Vec::new();
        }
        let (base, cap) = (self.base, self.cap);
        m.par_map(keys.len(), |i, ctx| {
            let key = keys[i];
            for r in 0..cap as u64 {
                let cell = probe_cell(key, r, cap);
                let v = ctx.read(base + cell);
                if v == EMPTY {
                    return None;
                }
                if v == key + 1 {
                    return Some(cell);
                }
            }
            None
        })
    }

    /// Inserts `keys` (distinct, and absent from the table) by rounds of
    /// occupy-mode claims: every still-unplaced key claims the next cell of
    /// its probe sequence; losers and keys probing occupied or tombstoned
    /// cells advance.  Rebuilds (growing and purging tombstones) first if
    /// the load invariant would break.
    pub fn insert_new<M: Machine>(&mut self, m: &mut M, keys: &[u64]) {
        if keys.is_empty() {
            return;
        }
        debug_assert!(
            keys.iter().all(|&k| k + 1 < TOMBSTONE),
            "keys must leave room for the stored tag below TOMBSTONE"
        );
        self.reserve(m, keys.len());
        self.insert_rounds(m, keys);
        self.len += keys.len();
    }

    /// Tombstones the cells [`OpenTable::locate`] found for distinct keys,
    /// in one exclusive-write step.  Triggers a purge rebuild when
    /// tombstones pass a quarter of the capacity, so delete-heavy churn
    /// keeps probe walks short.
    ///
    /// # Panics
    ///
    /// If any key was absent (`None`) — deletion of a missing key is a
    /// caller contract violation, exactly like duplicate insertion.
    pub fn remove<M: Machine>(&mut self, m: &mut M, cells: &[Option<usize>]) {
        if cells.is_empty() {
            return;
        }
        let cells: Vec<usize> = cells
            .iter()
            .map(|c| c.expect("remove: a key was absent from the table"))
            .collect();
        let base = self.base;
        // Distinct keys occupy distinct cells, so the marking step is
        // exclusive-write (contention 1 per cell).
        m.par_for(cells.len(), |i, ctx| {
            ctx.write(base + cells[i], TOMBSTONE);
        });
        self.len -= cells.len();
        self.tombstones += cells.len();
        if 4 * self.tombstones > self.cap {
            self.rebuild(m, 0);
        }
    }

    /// The live keys in the machine region (unsorted; tombstones excluded).
    pub fn live_keys<M: Machine>(&self, m: &M) -> Vec<u64> {
        m.dump(self.base, self.cap)
            .into_iter()
            .filter(|&v| v != EMPTY && v != TOMBSTONE)
            .map(|v| v - 1)
            .collect()
    }

    fn insert_rounds<M: Machine>(&self, m: &mut M, keys: &[u64]) {
        let (base, cap) = (self.base, self.cap);
        // (key, current probe index) of every still-unplaced key.
        let mut pending: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        let mut rounds = 0usize;
        while !pending.is_empty() {
            rounds += 1;
            assert!(
                rounds <= 2 * cap,
                "hash insert failed to place {} keys in {rounds} rounds (cap {cap})",
                pending.len()
            );
            let attempts: Vec<(u64, usize)> = pending
                .iter()
                .map(|&(k, r)| (k + 1, base + probe_cell(k, r, cap)))
                .collect();
            let won = m.claim(&attempts, ClaimMode::Occupy);
            let mut still = Vec::new();
            for (i, &(k, r)) in pending.iter().enumerate() {
                if !won[i] {
                    // Cell occupied (earlier key, a tombstone, or a
                    // same-round rival that won the claim): advance.
                    still.push((k, r + 1));
                }
            }
            pending = still;
        }
    }

    /// Restores the load invariant for `additional` more keys: rebuilds
    /// (see [`OpenTable::rebuild`]) whenever live + tombstoned cells would
    /// pass half full.
    fn reserve<M: Machine>(&mut self, m: &mut M, additional: usize) {
        if 2 * (self.len + self.tombstones + additional) > self.cap {
            self.rebuild(m, additional);
        }
    }

    /// Re-inserts the live keys into a region sized by [`sized_capacity`]
    /// for `additional` more keys, dropping every tombstone.  The region is
    /// reused in place unless it must grow below another allocation (see
    /// the module docs).
    fn rebuild<M: Machine>(&mut self, m: &mut M, additional: usize) {
        let live = self.live_keys(m);
        assert_eq!(live.len(), self.len, "occupancy counter drifted");
        let new_cap = sized_capacity(self.len + additional);
        let at_top = self.base + self.cap == m.heap_top();
        if new_cap <= self.cap {
            m.clear_region(self.base, new_cap);
            if at_top {
                m.release_to(self.base + new_cap);
            }
        } else {
            if at_top {
                m.release_to(self.base);
            }
            // `alloc` clears every reused cell.
            self.base = m.alloc(new_cap);
        }
        self.cap = new_cap;
        self.tombstones = 0;
        self.insert_rounds(m, &live);
    }
}

/// The rebuild sizing rule: the smallest power-of-two capacity of at least
/// 64 cells holding `keys` at a load of at most 3/8.
fn sized_capacity(keys: usize) -> usize {
    let mut cap = 64;
    while 8 * keys > 3 * cap {
        cap *= 2;
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrqw_sim::Pram;

    fn keys(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|k| k.wrapping_mul(0x5DEE_CE66) % 5000).collect()
    }

    fn found(t: &OpenTable, m: &mut Pram, keys: &[u64]) -> Vec<bool> {
        t.locate(m, keys).iter().map(Option::is_some).collect()
    }

    fn delete(t: &mut OpenTable, m: &mut Pram, keys: &[u64]) {
        let cells = t.locate(m, keys);
        t.remove(m, &cells);
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut m = Pram::with_seed(16, 1);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..20);
        t.insert_new(&mut m, &ks);
        assert_eq!(t.len(), 20);
        assert!(found(&t, &mut m, &ks).iter().all(|&f| f));
        let dead: Vec<u64> = ks.iter().copied().step_by(2).collect();
        delete(&mut t, &mut m, &dead);
        assert_eq!(t.len(), 10);
        let found = found(&t, &mut m, &ks);
        for (i, &f) in found.iter().enumerate() {
            assert_eq!(f, i % 2 == 1, "key index {i} after deleting evens");
        }
        let mut live = t.live_keys(&m);
        live.sort_unstable();
        let mut expect: Vec<u64> = ks.iter().copied().skip(1).step_by(2).collect();
        expect.sort_unstable();
        assert_eq!(live, expect);
    }

    #[test]
    fn reinsert_after_delete_is_found_again() {
        let mut m = Pram::with_seed(16, 2);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..16);
        t.insert_new(&mut m, &ks);
        delete(&mut t, &mut m, &ks[..8]);
        t.insert_new(&mut m, &ks[..8]);
        assert_eq!(t.len(), 16);
        assert!(found(&t, &mut m, &ks).iter().all(|&f| f));
    }

    #[test]
    fn growth_purges_tombstones() {
        let mut m = Pram::with_seed(16, 3);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..30);
        t.insert_new(&mut m, &ks);
        delete(&mut t, &mut m, &ks[..10]);
        assert!(t.tombstones() > 0);
        // Force the load invariant past half full: the rebuild must both
        // grow and drop every tombstone.
        let more = keys(100..140);
        t.insert_new(&mut m, &more);
        assert_eq!(t.tombstones(), 0, "growth must purge tombstones");
        assert_eq!(t.len(), 60);
        assert!(found(&t, &mut m, &more).iter().all(|&f| f));
        assert!(found(&t, &mut m, &ks[10..]).iter().all(|&f| f));
        assert!(found(&t, &mut m, &ks[..10]).iter().all(|&f| !f));
    }

    #[test]
    fn delete_heavy_churn_purges_without_growth() {
        let mut m = Pram::with_seed(16, 4);
        let mut t = OpenTable::new(&mut m, 64);
        let ks = keys(0..30);
        t.insert_new(&mut m, &ks);
        // Deleting past cap/4 = 16 tombstones must trigger the purge
        // rebuild on the delete path itself, keeping the same capacity.
        delete(&mut t, &mut m, &ks[..20]);
        assert_eq!(t.tombstones(), 0, "delete-heavy churn must purge");
        assert_eq!(t.capacity(), 64);
        assert_eq!(t.len(), 10);
        assert!(found(&t, &mut m, &ks[20..]).iter().all(|&f| f));
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn removing_an_absent_key_panics() {
        let mut m = Pram::with_seed(16, 5);
        let mut t = OpenTable::new(&mut m, 64);
        t.insert_new(&mut m, &[1, 2, 3]);
        delete(&mut t, &mut m, &[99]);
    }

    #[test]
    fn geometry_round_trips() {
        let mut m = Pram::with_seed(16, 6);
        let mut t = OpenTable::new(&mut m, 64);
        t.insert_new(&mut m, &[5, 6, 7]);
        delete(&mut t, &mut m, &[5]);
        let g = t.geometry();
        let mut u = OpenTable::new(&mut m, 64);
        u.restore_geometry(g);
        assert_eq!(u.geometry(), g);
        assert_eq!(u.len(), 2);
        assert_eq!(u.tombstones(), 1);
    }

    #[test]
    fn sizing_rule_keeps_the_load_at_most_three_eighths() {
        assert_eq!(sized_capacity(0), 64);
        assert_eq!(sized_capacity(24), 64);
        assert_eq!(sized_capacity(25), 128);
        // 17,408 live keys plus a 256-key batch stay in 2^16 cells.
        assert_eq!(sized_capacity(17_408 + 256), 1 << 16);
        // 2,000 keys leave the 4,096-cell default (load 0.49) for 8,192.
        assert_eq!(sized_capacity(2_000), 8_192);
    }

    #[test]
    fn a_purge_shrinks_the_table_to_its_live_set() {
        let mut m = Pram::with_seed(16, 8);
        let mut t = OpenTable::new(&mut m, 64);
        let ks: Vec<u64> = (0..300).collect();
        t.insert_new(&mut m, &ks);
        assert_eq!(t.capacity(), 1024);
        // Tombstones pass cap/4 = 256 at the 257th delete.
        delete(&mut t, &mut m, &ks[..290]);
        assert_eq!(t.capacity(), 64, "10 live keys must shrink to 64 cells");
        assert_eq!(t.tombstones(), 0);
        let g = t.geometry();
        assert_eq!(
            m.heap_top(),
            g.base + 64,
            "the shrink must release the tail"
        );
        assert!(found(&t, &mut m, &ks[290..]).iter().all(|&f| f));
        assert!(found(&t, &mut m, &ks[..290]).iter().all(|&f| !f));
    }

    #[test]
    fn growth_stays_in_place_only_at_the_allocation_top() {
        let mut m = Pram::with_seed(16, 9);
        let mut t = OpenTable::new(&mut m, 64);
        let base = t.geometry().base;
        let ks: Vec<u64> = (0..100).collect();
        t.insert_new(&mut m, &ks[..40]);
        assert_eq!((t.geometry().base, t.capacity()), (base, 128));
        assert_eq!(m.heap_top(), base + 128);
        // Another allocation above the table: growth must move past it.
        let above = m.alloc(8);
        t.insert_new(&mut m, &ks[40..]);
        assert_eq!(t.capacity(), 512);
        assert_eq!(t.geometry().base, above + 8);
        assert!(found(&t, &mut m, &ks).iter().all(|&f| f));
    }
}
