//! A RACE-style extendible hash index (§6, \[76\]).
//!
//! "RACE is a hash index for MD but it only uses one-sided RDMA. It
//! implements a lock-free multi-node CC protocol for the hash buckets."
//! The essentials reproduced here:
//!
//! * **1-RT lookups** — the directory is cached locally, so a lookup is a
//!   single one-sided READ of the bucket. The cache is an immutable
//!   `Arc` snapshot, replaced whole on refresh or split: an operation
//!   shares it by pointer, so its host cost does not grow with the
//!   directory.
//! * **Lock-free inserts** — a slot is claimed by CASing its key word
//!   from 0 to a reservation marker, the value is written under that
//!   reservation, and only then is the real key published, so a
//!   concurrent reader never observes a half-initialized slot and two
//!   writers racing for the same free slot cannot pair one writer's key
//!   with the other's value.
//! * **Extendible growth** — on overflow, a directory-lock-protected
//!   split doubles the directory (up to `MAX_GLOBAL_DEPTH`) and rehashes
//!   one bucket; handles detect stale directories by version and refresh.
//!
//! Limitations mirroring RACE's scope: keys are nonzero `u64` (0 marks an
//! empty slot), values are `u64`, and deletes tombstone the slot.

use std::sync::Arc;

use dsm::{DsmLayer, DsmResult, GlobalAddr};
use parking_lot::Mutex;
use rdma_sim::{Endpoint, Phase};

/// Slots per bucket.
pub const BUCKET_SLOTS: usize = 8;
/// Directory doubling limit (2^this buckets max).
pub const MAX_GLOBAL_DEPTH: u32 = 20;

/// Tombstone key marker (key slot occupied but logically deleted).
const TOMBSTONE: u64 = u64::MAX;

/// In-flight insert marker: the slot's key word holds this between the
/// claiming CAS and the value write, so no second writer can deposit a
/// value in a slot another insert already owns. Readers skip it (it
/// matches no real key) and splits reclaim it as dead.
const RESERVED: u64 = u64::MAX - 1;

// Bucket layout: [header u64][pattern u64][slots: (key u64, value u64) x N]
// * header — seqlock-style word: even value = 2 * local_depth (stable),
//   odd = a split is rewriting this bucket. Writers validate it after
//   claiming a slot; readers validate it around their scan.
// * pattern — the low `local_depth` hash bits every key in this bucket
//   shares. Operations verify `hash(key) & mask == pattern` so a stale
//   directory can never route a key into a bucket that no longer covers
//   it (the classic extendible-hashing ownership check).
const BUCKET_SIZE: usize = 16 + BUCKET_SLOTS * 16;
const SLOT0: usize = 16;

#[inline]
fn header_depth(h: u64) -> u32 {
    (h / 2) as u32
}

#[inline]
fn header_is_splitting(h: u64) -> bool {
    h % 2 == 1
}

#[inline]
fn stable_header(depth: u32) -> u64 {
    depth as u64 * 2
}

// Remote directory layout: [version u64][depth u64][entries: raw addr x 2^depth]
fn dir_bytes(depth: u32) -> u64 {
    16 + (1u64 << depth) * 8
}

#[inline]
fn hash(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Little-endian `u64` at byte `at` of a bucket or directory image.
#[inline]
fn word(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte range"))
}

/// Byte offset of slot `s` within a bucket.
#[inline]
fn slot_off(s: usize) -> usize {
    SLOT0 + s * 16
}

/// Does a slot key word hold no live entry?
#[inline]
fn is_dead(k: u64) -> bool {
    k == 0 || k == TOMBSTONE || k == RESERVED
}

fn assert_user_key(key: u64) {
    assert!(key != 0 && key != TOMBSTONE && key != RESERVED, "reserved key");
}

/// Locally cached directory image. Never mutated: a refresh or split
/// publishes a new snapshot, and handles share the current one by `Arc`.
#[derive(Debug)]
struct DirCache {
    version: u64,
    depth: u32,
    entries: Vec<u64>, // raw bucket addrs
}

/// A bucket image that was not mid-split and covered the probed key.
struct Probe {
    bucket: GlobalAddr,
    header: u64,
    buf: [u8; BUCKET_SIZE],
}

impl Probe {
    fn key(&self, s: usize) -> u64 {
        word(&self.buf, slot_off(s))
    }

    fn slot(&self, s: usize) -> GlobalAddr {
        self.bucket.offset_by(slot_off(s) as u64)
    }

    fn find(&self, key: u64) -> Option<usize> {
        (0..BUCKET_SLOTS).find(|&s| self.key(s) == key)
    }
}

/// A compute-node handle to a DSM-resident extendible hash index.
pub struct RaceHash {
    layer: Arc<DsmLayer>,
    /// Meta cell: [dir_version][dir_lock][dir_addr raw][dir_depth].
    meta: GlobalAddr,
    cache: Mutex<Option<Arc<DirCache>>>,
    worker_tag: u64,
}

impl RaceHash {
    /// Create a fresh index with `initial_depth` (2^d buckets); returns
    /// the handle and the shared meta address.
    pub fn create(
        layer: &Arc<DsmLayer>,
        initial_depth: u32,
        worker_tag: u64,
    ) -> DsmResult<(Self, GlobalAddr)> {
        let ep = layer.fabric().endpoint();
        let meta = layer.alloc(32)?;
        let n = 1u64 << initial_depth;
        let dir_addr = layer.alloc(dir_bytes(initial_depth))?;
        // Allocate buckets and fill the directory.
        let mut dir_body = Vec::with_capacity(n as usize * 8);
        for i in 0..n {
            let b = layer.alloc(BUCKET_SIZE as u64)?;
            layer.write_u64(&ep, b, stable_header(initial_depth))?;
            layer.write_u64(&ep, b.offset_by(8), i)?; // pattern
            dir_body.extend_from_slice(&b.to_raw().to_le_bytes());
        }
        layer.write_u64(&ep, dir_addr, 1)?; // version
        layer.write_u64(&ep, dir_addr.offset_by(8), initial_depth as u64)?;
        layer.write(&ep, dir_addr.offset_by(16), &dir_body)?;

        layer.write_u64(&ep, meta, 1)?; // dir version mirror
        layer.write_u64(&ep, meta.offset_by(8), 0)?; // dir lock
        layer.write_u64(&ep, meta.offset_by(16), dir_addr.to_raw())?;
        layer.write_u64(&ep, meta.offset_by(24), initial_depth as u64)?;
        Ok((Self::open(layer, meta, worker_tag), meta))
    }

    /// Open a handle onto an existing index.
    pub fn open(layer: &Arc<DsmLayer>, meta: GlobalAddr, worker_tag: u64) -> Self {
        Self {
            layer: layer.clone(),
            meta,
            cache: Mutex::new(None),
            worker_tag: worker_tag.max(1),
        }
    }

    /// Read the directory from DSM and publish it as the new snapshot.
    fn fetch_dir(&self, ep: &Endpoint) -> DsmResult<Arc<DirCache>> {
        let dir_addr = GlobalAddr::from_raw(self.layer.read_u64(ep, self.meta.offset_by(16))?);
        let mut hdr = [0u8; 16];
        self.layer.read(ep, dir_addr, &mut hdr)?;
        let depth = word(&hdr, 8) as u32;
        let mut body = vec![0u8; 8 << depth];
        self.layer.read(ep, dir_addr.offset_by(16), &mut body)?;
        let snapshot = Arc::new(DirCache {
            version: word(&hdr, 0),
            depth,
            entries: (0..body.len()).step_by(8).map(|at| word(&body, at)).collect(),
        });
        *self.cache.lock() = Some(snapshot.clone());
        Ok(snapshot)
    }

    fn dir(&self, ep: &Endpoint) -> DsmResult<Arc<DirCache>> {
        if let Some(c) = self.cache.lock().clone() {
            ep.charge_local(40); // local directory probe
            return Ok(c);
        }
        self.fetch_dir(ep)
    }

    fn bucket_for(&self, dir: &DirCache, key: u64) -> GlobalAddr {
        let idx = (hash(key) & ((1u64 << dir.depth) - 1)) as usize;
        GlobalAddr::from_raw(dir.entries[idx])
    }

    /// Ownership check: does a bucket with (depth, pattern) cover `key`?
    fn covers(key: u64, depth: u32, pattern: u64) -> bool {
        hash(key) & ((1u64 << depth) - 1) == pattern
    }

    /// Current directory version in DSM (cheap staleness probe).
    fn remote_version(&self, ep: &Endpoint) -> DsmResult<u64> {
        self.layer.read_u64(ep, self.meta)
    }

    /// READ the bucket `key` hashes to until it is not mid-split and
    /// covers `key`. A bucket deeper than the cached directory or with
    /// another pattern has split since the snapshot: refetch and retry.
    fn probe(&self, ep: &Endpoint, key: u64) -> DsmResult<Probe> {
        loop {
            let dir = self.dir(ep)?;
            let bucket = self.bucket_for(&dir, key);
            let mut buf = [0u8; BUCKET_SIZE];
            self.layer.read(ep, bucket, &mut buf)?;
            let header = word(&buf, 0);
            if header_is_splitting(header) {
                std::hint::spin_loop();
                continue;
            }
            let depth = header_depth(header);
            if depth > dir.depth || !Self::covers(key, depth, word(&buf, 8)) {
                self.fetch_dir(ep)?;
                continue;
            }
            return Ok(Probe { bucket, header, buf });
        }
    }

    /// Seqlock validation: is the probed bucket's header still the one
    /// its image was read under (no split rewrote it since)?
    fn unchanged(&self, ep: &Endpoint, p: &Probe) -> DsmResult<bool> {
        Ok(self.layer.read_u64(ep, p.bucket)? == p.header)
    }

    /// Point lookup: one bucket READ plus a header-validation read.
    pub fn get(&self, ep: &Endpoint, key: u64) -> DsmResult<Option<u64>> {
        assert_user_key(key);
        let _span = ep.span(Phase::IndexLookup);
        loop {
            let p = self.probe(ep, key)?;
            let found = p.find(key).map(|s| word(&p.buf, slot_off(s) + 8));
            // A split that rewrote the bucket while we scanned may have
            // paired keys with stale values in our image.
            if self.unchanged(ep, &p)? {
                return Ok(found);
            }
        }
    }

    /// Insert (or update) `key -> value`.
    pub fn put(&self, ep: &Endpoint, key: u64, value: u64) -> DsmResult<()> {
        assert_user_key(key);
        loop {
            let p = self.probe(ep, key)?;
            if let Some(s) = p.find(key) {
                // Update in place. A concurrent split may have copied the
                // old value into a rewritten image; revalidate and redo.
                self.layer.write_u64(ep, p.slot(s).offset_by(8), value)?;
                if self.unchanged(ep, &p)? {
                    return Ok(());
                }
                self.fetch_dir(ep)?;
                continue;
            }
            let Some(s) = (0..BUCKET_SLOTS).find(|&s| matches!(p.key(s), 0 | TOMBSTONE)) else {
                // Bucket full: split it, then retry.
                self.split_bucket(ep, key)?;
                continue;
            };
            let (slot, old_k) = (p.slot(s), p.key(s));
            // Reserve the key word by CAS, write the value under the
            // reservation, then publish the real key. Claiming before
            // the value write is what makes the slot race safe: a loser's
            // CAS fails before it ever touches the value word, and
            // readers match neither RESERVED nor 0.
            if self.layer.cas(ep, slot, old_k, RESERVED)? != old_k {
                continue; // lost the slot race; retry from the bucket read
            }
            self.layer.write_u64(ep, slot.offset_by(8), value)?;
            self.layer.write_u64(ep, slot, key)?;
            // Validate against a concurrent split. The splitter flips the
            // header to odd *before* it reads the bucket, so either (a)
            // our published entry is in its snapshot and survives the
            // rewrite, or (b) the snapshot caught RESERVED (reclaimed as
            // dead) or predates our claim — then the header we re-read
            // here already differs and we undo + retry.
            if self.unchanged(ep, &p)? {
                return Ok(());
            }
            let _ = self.layer.cas(ep, slot, key, 0)?;
            self.fetch_dir(ep)?;
        }
    }

    /// Delete `key`; returns whether it existed.
    pub fn delete(&self, ep: &Endpoint, key: u64) -> DsmResult<bool> {
        assert_user_key(key);
        loop {
            let p = self.probe(ep, key)?;
            let Some(s) = p.find(key) else {
                return Ok(false);
            };
            // Tombstone the key word.
            let removed = self.layer.cas(ep, p.slot(s), key, TOMBSTONE)? == key;
            if self.unchanged(ep, &p)? {
                return Ok(removed);
            }
            // Raced a split: the rewritten image may have resurrected the
            // key; retry the delete against the fresh layout.
            self.fetch_dir(ep)?;
        }
    }

    /// Split the bucket `key` hashes to, doubling the directory if its
    /// local depth equals the global depth. Serialized by the directory
    /// lock in DSM.
    fn split_bucket(&self, ep: &Endpoint, key: u64) -> DsmResult<()> {
        let dir_lock = self.meta.offset_by(8);
        while self.layer.cas(ep, dir_lock, 0, self.worker_tag)? != 0 {
            std::hint::spin_loop();
        }
        let result = self.split_bucket_locked(ep, key);
        self.layer.write_u64(ep, dir_lock, 0)?;
        result
    }

    fn split_bucket_locked(&self, ep: &Endpoint, key: u64) -> DsmResult<()> {
        // Authoritative directory under the lock.
        let dir = self.fetch_dir(ep)?;
        let old_bucket = self.bucket_for(&dir, key);
        // Announce the split FIRST (header goes odd), THEN snapshot the
        // bucket. Any writer whose slot-CAS lands after our snapshot will
        // see the odd/changed header in its validation read and undo;
        // any CAS before our snapshot is included in the images we write.
        let header = self.layer.read_u64(ep, old_bucket)?;
        debug_assert!(!header_is_splitting(header), "split under dir lock");
        let local_depth = header_depth(header);
        self.layer.write_u64(ep, old_bucket, header + 1)?;
        let mut buf = [0u8; BUCKET_SIZE];
        self.layer.read(ep, old_bucket, &mut buf)?;

        // Re-check fullness (someone may have split already / writers may
        // have undone entries).
        if (0..BUCKET_SLOTS).any(|s| is_dead(word(&buf, slot_off(s)))) {
            // Restore the stable header and bail.
            self.layer.write_u64(ep, old_bucket, header)?;
            return Ok(());
        }

        let mut entries = dir.entries.clone();
        let new_dir_addr = if local_depth == dir.depth {
            // Double the directory; the high half mirrors the low.
            assert!(dir.depth < MAX_GLOBAL_DEPTH, "directory at max depth");
            entries.extend_from_within(..);
            Some(self.layer.alloc(dir_bytes(dir.depth + 1))?)
        } else {
            None
        };

        // New sibling bucket at local_depth + 1.
        let sibling = self.layer.alloc(BUCKET_SIZE as u64)?;
        let split_bit = 1u64 << local_depth;

        // Rehash: entries whose hash has the split bit set move.
        let old_pattern = word(&buf, 8);
        let mut old_img = buf;
        let mut new_img = [0u8; BUCKET_SIZE];
        old_img[0..8].copy_from_slice(&stable_header(local_depth + 1).to_le_bytes());
        new_img[0..8].copy_from_slice(&stable_header(local_depth + 1).to_le_bytes());
        new_img[8..16].copy_from_slice(&(old_pattern | split_bit).to_le_bytes());
        let mut new_slot = 0usize;
        for s in 0..BUCKET_SLOTS {
            let base = slot_off(s);
            let k = word(&buf, base);
            if is_dead(k) {
                // RESERVED is an insert we caught mid-claim: its writer
                // will fail the header validation and retry, so the
                // reservation is reclaimable dead space here.
                old_img[base..base + 16].fill(0);
                continue;
            }
            if hash(k) & split_bit != 0 {
                let to = slot_off(new_slot);
                new_img[to..to + 16].copy_from_slice(&buf[base..base + 16]);
                new_slot += 1;
                old_img[base..base + 16].fill(0);
            }
        }
        self.layer.write(ep, sibling, &new_img)?;

        // Point the affected directory entries at the sibling: slot `i`
        // maps hashes whose low bits are `i`.
        for (i, e) in entries.iter_mut().enumerate() {
            if *e == old_bucket.to_raw() && i as u64 & split_bit != 0 {
                *e = sibling.to_raw();
            }
        }

        // Write the rehashed old bucket, then the directory, then bump
        // versions (publication order keeps readers safe: they re-check
        // local depth vs cached global depth).
        self.layer.write(ep, old_bucket, &old_img)?;
        let new_version = dir.version + 1;
        let body: Vec<u8> = entries.iter().flat_map(|e| e.to_le_bytes()).collect();
        match new_dir_addr {
            Some(new_dir_addr) => {
                let new_depth = (dir.depth + 1) as u64;
                self.layer.write_u64(ep, new_dir_addr, new_version)?;
                self.layer.write_u64(ep, new_dir_addr.offset_by(8), new_depth)?;
                self.layer.write(ep, new_dir_addr.offset_by(16), &body)?;
                self.layer
                    .write_u64(ep, self.meta.offset_by(16), new_dir_addr.to_raw())?;
                self.layer.write_u64(ep, self.meta.offset_by(24), new_depth)?;
            }
            None => {
                let dir_addr =
                    GlobalAddr::from_raw(self.layer.read_u64(ep, self.meta.offset_by(16))?);
                self.layer.write(ep, dir_addr.offset_by(16), &body)?;
                self.layer.write_u64(ep, dir_addr, new_version)?;
            }
        }
        self.layer.write_u64(ep, self.meta, new_version)?;
        // Refresh our own cache.
        self.fetch_dir(ep)?;
        Ok(())
    }

    /// Force a directory staleness check against DSM (handles that go
    /// long without misses call this periodically).
    pub fn refresh_if_stale(&self, ep: &Endpoint) -> DsmResult<bool> {
        let remote = self.remote_version(ep)?;
        let stale = self
            .cache
            .lock()
            .as_ref()
            .map(|c| c.version != remote)
            .unwrap_or(true);
        if stale {
            self.fetch_dir(ep)?;
        }
        Ok(stale)
    }
}

impl std::fmt::Debug for RaceHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let depth = self.cache.lock().as_ref().map(|c| c.depth);
        f.debug_struct("RaceHash").field("cached_depth", &depth).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm::DsmConfig;
    use rdma_sim::{Fabric, NetworkProfile};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn layer() -> Arc<DsmLayer> {
        let fabric = Fabric::new(NetworkProfile::zero());
        DsmLayer::build(
            &fabric,
            DsmConfig {
                memory_nodes: 2,
                capacity_per_node: 16 << 20,
                replication: 1,
                mem_cores: 1,
                weak_cpu_factor: 4.0,
            },
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=100u64 {
            h.put(&ep, k, k * 10).unwrap();
        }
        for k in 1..=100u64 {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k * 10), "key {k}");
        }
        assert_eq!(h.get(&ep, 1000).unwrap(), None);
    }

    #[test]
    fn update_overwrites() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 7, 1).unwrap();
        h.put(&ep, 7, 2).unwrap();
        assert_eq!(h.get(&ep, 7).unwrap(), Some(2));
    }

    #[test]
    fn delete_tombstones_and_slot_reuse() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 5, 50).unwrap();
        assert!(h.delete(&ep, 5).unwrap());
        assert!(!h.delete(&ep, 5).unwrap());
        assert_eq!(h.get(&ep, 5).unwrap(), None);
        h.put(&ep, 5, 51).unwrap();
        assert_eq!(h.get(&ep, 5).unwrap(), Some(51));
    }

    #[test]
    #[should_panic(expected = "reserved key")]
    fn delete_rejects_reserved_key() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 2, 1).unwrap();
        let ep = l.fabric().endpoint();
        let _ = h.delete(&ep, 0);
    }

    #[test]
    fn warm_lookups_share_one_directory_snapshot() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 4, 1).unwrap();
        let ep = l.fabric().endpoint();
        let a = h.dir(&ep).unwrap();
        let b = h.dir(&ep).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "a warm dir() must not copy the directory");
    }

    #[test]
    fn split_publishes_a_new_snapshot() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        let before = h.dir(&ep).unwrap();
        // Two buckets cannot hold 2 * BUCKET_SLOTS + 1 keys.
        for k in 1..=2 * BUCKET_SLOTS as u64 + 1 {
            h.put(&ep, k, k).unwrap();
        }
        let after = h.dir(&ep).unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(after.version > before.version);
        assert!(after.depth > before.depth);
        // A reader still holding the old snapshot sees it unchanged.
        assert_eq!((before.depth, before.entries.len()), (1, 2));
    }

    #[test]
    fn shared_handle_reads_stay_correct_while_another_handle_splits() {
        const PRELOAD: u64 = 500;
        const WRITES: u64 = 3_000;
        let l = layer();
        let (h, meta) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=PRELOAD {
            h.put(&ep, k, k * 7).unwrap();
        }
        let version_before = h.dir(&ep).unwrap().version;
        let writer_done = AtomicBool::new(false);
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let ep = l.fabric().endpoint();
                    start.wait();
                    loop {
                        // The pass that starts after the writer finished
                        // runs against a directory it has outgrown.
                        let last = writer_done.load(Ordering::SeqCst);
                        for k in 1..=PRELOAD {
                            assert_eq!(h.get(&ep, k).unwrap(), Some(k * 7), "preloaded {k}");
                        }
                        for k in PRELOAD + 1..=PRELOAD + WRITES + 100 {
                            let v = h.get(&ep, k).unwrap();
                            assert!(v.is_none() || v == Some(k * 7), "key {k} read {v:?}");
                        }
                        if last {
                            break;
                        }
                    }
                });
            }
            s.spawn(|| {
                let writer = RaceHash::open(&l, meta, 2);
                let ep = l.fabric().endpoint();
                start.wait();
                for k in PRELOAD + 1..=PRELOAD + WRITES {
                    writer.put(&ep, k, k * 7).unwrap();
                }
                writer_done.store(true, Ordering::SeqCst);
            });
        });
        let version_after = h.dir(&ep).unwrap().version;
        assert!(version_after > version_before, "readers refreshed the shared snapshot");
    }

    #[test]
    fn growth_across_many_splits() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 1, 1).unwrap();
        let ep = l.fabric().endpoint();
        for k in 1..=2_000u64 {
            h.put(&ep, k, k).unwrap();
        }
        for k in 1..=2_000u64 {
            assert_eq!(h.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
    }

    #[test]
    fn second_handle_detects_stale_directory() {
        let l = layer();
        let (h1, meta) = RaceHash::create(&l, 1, 1).unwrap();
        let h2 = RaceHash::open(&l, meta, 2);
        let ep = l.fabric().endpoint();
        // Warm h2's directory cache.
        h2.put(&ep, 1, 1).unwrap();
        // h1 forces many splits.
        for k in 2..=1_000u64 {
            h1.put(&ep, k, k).unwrap();
        }
        // h2 must still find everything despite its stale directory.
        for k in 1..=1_000u64 {
            assert_eq!(h2.get(&ep, k).unwrap(), Some(k), "key {k}");
        }
        assert!(!h2.refresh_if_stale(&ep).unwrap(), "refreshed along the way");
    }

    #[test]
    fn lookup_is_single_read_when_warm() {
        let l = layer();
        let (h, _) = RaceHash::create(&l, 4, 1).unwrap();
        let ep = l.fabric().endpoint();
        h.put(&ep, 42, 1).unwrap();
        let probe = l.fabric().endpoint();
        h.get(&probe, 42).unwrap();
        // One bucket READ plus the 8-byte seqlock validation read —
        // constant, independent of index size (vs O(depth) for a tree).
        assert_eq!(probe.stats().reads, 2, "RACE fast path is O(1) READs");
    }

    #[test]
    fn concurrent_inserts_do_not_lose_keys() {
        let l = layer();
        let (_h, meta) = RaceHash::create(&l, 2, 99).unwrap();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let l = l.clone();
                s.spawn(move || {
                    let h = RaceHash::open(&l, meta, w + 1);
                    let ep = l.fabric().endpoint();
                    for i in 0..300u64 {
                        let k = w * 1_000 + i + 1;
                        h.put(&ep, k, k).unwrap();
                    }
                });
            }
        });
        let verify = RaceHash::open(&l, meta, 50);
        let ep = l.fabric().endpoint();
        for w in 0..4u64 {
            for i in 0..300u64 {
                let k = w * 1_000 + i + 1;
                assert_eq!(verify.get(&ep, k).unwrap(), Some(k), "key {k}");
            }
        }
    }
}
