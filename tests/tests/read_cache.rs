//! Appendix D read-cache integration: disk reads populate a second,
//! never-flushed HybridLog; repeat reads hit it without I/O; updates splice
//! the cache copy out; eviction restores primary index addresses.

use faster_core::ckpt_manager::{self, CheckpointConfig, CheckpointManager};
use faster_core::read_cache::{is_rc, rc_untag};
use faster_core::record::RecordRef;
use faster_core::{CountStore, FasterKv, FasterKvConfig, Outcome, Session, WalConfig};
use faster_hlog::{HLogConfig, LogScanner};
use faster_index::IndexConfig;
use faster_integration_tests::{read_blocking, rmw_blocking};
use faster_storage::{Device, MemDevice};
use faster_util::{Address, KeyHash};
use std::sync::Arc;

fn cfg_with_cache(cache_pages: u64) -> FasterKvConfig {
    FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: 8, tag_bits: 15, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(16)
        .with_read_cache(HLogConfig {
            page_bits: 12,
            buffer_pages: cache_pages,
            mutable_pages: (cache_pages / 2).max(1),
            io_threads: 1,
        })
}

/// Writes keys 0..100, then enough later keys to push them to disk.
fn load_cold_keys(session: &Session<u64, u64, CountStore>) {
    for k in 0..100u64 {
        session.upsert(&k, &(k + 500)).expect("writable");
    }
    for k in 10_000..14_000u64 {
        session.upsert(&k, &1).expect("writable");
    }
}

/// Builds a store where keys 0..100 are cold (on disk) and returns it.
fn store_with_cold_keys(cache_pages: u64) -> FasterKv<u64, u64, CountStore> {
    let store: FasterKv<u64, u64, CountStore> =
        FasterKv::new(cfg_with_cache(cache_pages), CountStore, MemDevice::new(2));
    load_cold_keys(&store.start_session());
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address().raw() > 0);
    store
}

#[test]
fn second_read_hits_cache_without_io() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    // First read: from disk (pending), populates the cache.
    assert_eq!(read_blocking(&session, 5), Some(505));
    let reads_after_first = store.log().device().stats().reads;
    // Second read: cache hit — synchronous, no device read.
    match session.read(&5, &0) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 505),
        other => panic!("expected cache hit, got {other:?}"),
    }
    assert_eq!(store.log().device().stats().reads, reads_after_first, "no extra device read");
}

#[test]
fn rmw_on_cached_key_needs_no_io() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 7), Some(507)); // cache it
    let reads_before = store.log().device().stats().reads;
    // CountStore is a CRDT so the delta path would dodge I/O anyway; what we
    // check is that the cache-hit RMW path computes the right value.
    assert!(session.rmw(&7, &3).is_ok(), "cache-hit RMW must complete synchronously");
    assert_eq!(store.log().device().stats().reads, reads_before);
    assert_eq!(read_blocking(&session, 7), Some(510));
}

#[test]
fn upsert_over_cached_key_wins() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 9), Some(509));
    session.upsert(&9, &42).expect("writable");
    assert_eq!(read_blocking(&session, 9), Some(42));
    // And the value survives another round trip to disk. (Churn on the same
    // session: every registered session must keep refreshing — §2.5 — or
    // epoch-gated log maintenance stalls.)
    for k in 20_000..24_000u64 {
        session.upsert(&k, &1).expect("writable");
    }
    store.log().flush_barrier().unwrap();
    assert_eq!(read_blocking(&session, 9), Some(42));
}

#[test]
fn delete_of_cached_key_sticks() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 11), Some(511));
    session.delete(&11).expect("writable");
    assert_eq!(read_blocking(&session, 11), None);
}

#[test]
fn eviction_restores_primary_addresses() {
    // Tiny cache: 2 pages of 4 KB = ~340 records; read 100 cold keys twice
    // over so early entries get evicted, then verify every key still reads
    // correctly (via disk again after the entry was restored).
    let store = store_with_cold_keys(2);
    let session = store.start_session();
    for round in 0..3 {
        for k in 0..100u64 {
            assert_eq!(read_blocking(&session, k), Some(k + 500), "round {round} key {k}");
        }
        session.refresh();
    }
}

#[test]
fn checkpoint_with_read_cache_resolves_tagged_entries() {
    let device = MemDevice::new(2);
    let data;
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg_with_cache(8), CountStore, device.clone());
        let session = store.start_session();
        for k in 0..100u64 {
            session.upsert(&k, &(k + 500)).expect("writable");
        }
        for k in 10_000..14_000u64 {
            session.upsert(&k, &1).expect("writable");
        }
        store.log().flush_barrier().unwrap();
        // Cache a handful of cold keys so their index entries are tagged.
        for k in 0..20u64 {
            assert_eq!(read_blocking(&session, k), Some(k + 500));
        }
        drop(session);
        data = store.checkpoint().expect("checkpoint");
        // No tagged addresses may leak into the checkpoint.
        for &(_, raw) in &data.index.entries {
            let e = faster_index::HashBucketEntry(raw);
            assert!(
                !is_rc(e.address()),
                "tagged entry leaked into checkpoint"
            );
        }
    }
    let mut cfg = cfg_with_cache(8);
    cfg.read_cache = None;
    let store2: FasterKv<u64, u64, CountStore> =
        FasterKv::recover(cfg, CountStore, device, &data);
    let session = store2.start_session();
    for k in 0..100u64 {
        assert_eq!(read_blocking(&session, k), Some(k + 500), "key {k} after recovery");
    }
}

#[test]
fn crdt_deltas_bypass_cache_coherently() {
    let store = store_with_cold_keys(8);
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 13), Some(513)); // cached
    // CRDT increment: cache-hit RMW (old value available) writes a primary
    // record; subsequent reads must see the updated value, not the stale
    // cached one.
    rmw_blocking(&session, 13, 100);
    assert_eq!(read_blocking(&session, 13), Some(613));
    rmw_blocking(&session, 13, 1);
    assert_eq!(read_blocking(&session, 13), Some(614));
}

/// A store whose index has no tag bits, so the keys of one bucket share
/// one chain: `b`, then its bucket-mate `a` above it, then fillers from
/// other buckets that push both to disk. A disk read of `a` then caches it
/// as the chain head.
struct SharedChain {
    store: FasterKv<u64, u64, CountStore>,
    session: Session<u64, u64, CountStore>,
    a: u64,
    b: u64,
    fillers: Vec<u64>,
    /// A log address between `b`'s record and `a`'s.
    between: Address,
    /// `a`'s read-cache address (the chain head).
    cached: Address,
}

fn shared_chain(refresh_interval: u32, cache: HLogConfig) -> SharedChain {
    const K_BITS: u8 = 10;
    let cfg = FasterKvConfig::small()
        .with_index(IndexConfig { k_bits: K_BITS, tag_bits: 0, max_resize_chunks: 4 })
        .with_log(HLogConfig { page_bits: 12, buffer_pages: 4, mutable_pages: 1, io_threads: 2 })
        .with_max_sessions(8)
        .with_refresh_interval(refresh_interval)
        .with_read_cache(cache);
    let store: FasterKv<u64, u64, CountStore> = FasterKv::new(cfg, CountStore, MemDevice::new(2));
    let bucket = |k: u64| KeyHash::of_pod(&k).bucket_index(K_BITS);
    let b = 1u64;
    let a = (2..).find(|&k| bucket(k) == bucket(b)).expect("a bucket-mate of b");
    let fillers: Vec<u64> = (10_000..).filter(|&k| bucket(k) != bucket(b)).take(4_000).collect();

    let session = store.start_session();
    session.upsert(&b, &10).expect("writable");
    let between = store.log().tail_address();
    session.upsert(&a, &20).expect("writable");
    for k in &fillers {
        session.upsert(k, &1).expect("writable");
    }
    session.refresh();
    store.log().flush_barrier().unwrap();
    assert!(store.log().head_address() > between, "`b` must be cold");
    assert_eq!(read_blocking(&session, a), Some(20));
    let cached = store
        .index()
        .find_tag(KeyHash::of_pod(&a), Some(session.guard()))
        .expect("entry")
        .load()
        .address();
    assert!(is_rc(cached), "the read cached `a` as the chain head");
    SharedChain { store, session, a, b, fillers, between, cached }
}

/// Compaction under a read cache (see [`shared_chain`]): with `a`'s cache
/// copy as the chain head, `compact_until` rolls `b` to the tail. The
/// rolled copy must link to `a`'s primary record, never to the volatile
/// cache copy: the eviction hook only repairs index entries, so an
/// rc-tagged `prev` inside the log would dangle once the cache evicts `a`'s
/// copy, and every read of `a` would restart from the index forever.
#[test]
fn compaction_under_read_cache_links_rolled_records_to_the_primary_log() {
    let cache = HLogConfig { page_bits: 12, buffer_pages: 2, mutable_pages: 1, io_threads: 1 };
    let SharedChain { store, session, a, b, fillers, between, cached } = shared_chain(16, cache);

    assert_eq!(store.compact_until(between, &session), 1, "`b` is live and rolls");
    let size = RecordRef::<u64, u64>::size();
    let mut tagged_prevs = 0;
    for page in LogScanner::full(store.log()) {
        let page = page.expect("scan");
        let mut off = page.start_offset;
        while off + size <= page.end_offset {
            let Some((h, _, _)) = RecordRef::<u64, u64>::parse_bytes(&page.bytes[off..off + size]) else {
                break; // page padding
            };
            tagged_prevs += usize::from(is_rc(h.prev()));
            off += size;
        }
    }
    assert_eq!(tagged_prevs, 0, "a read-cache address persisted in a log record header");

    // Churn the cache until its head passes `a`'s copy.
    for k in &fillers {
        read_blocking(&session, *k);
        if store.read_cache_log().unwrap().head_address() > rc_untag(cached) {
            break;
        }
    }
    assert!(store.read_cache_log().unwrap().head_address() > rc_untag(cached), "`a`'s copy evicted");

    // Read both keys on a fresh thread, so a livelocked walk fails the test
    // instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = store.clone();
    let handle = std::thread::spawn(move || {
        let s = reader.start_session();
        let _ = tx.send((read_blocking(&s, a), read_blocking(&s, b)));
    });
    let got = rx.recv_timeout(std::time::Duration::from_secs(10)).expect("reads of `a` and `b` livelocked");
    handle.join().expect("reader thread");
    assert_eq!(got, (Some(20), Some(10)));
}

/// An update whose chain head (see [`shared_chain`]) is a read-cache record
/// the cache has just evicted. The cache log's head has passed the record,
/// but the eviction hook that restores the index entry waits for this
/// session's next epoch refresh, so the entry still holds the tagged
/// address and the record's primary `prev` is out of reach. Publishing a
/// new record then must not link it to nothing: `b`, below `a` in the
/// shared chain, must survive.
#[test]
fn update_over_an_evicted_cache_head_keeps_the_chain() {
    let cache = HLogConfig { page_bits: 10, buffer_pages: 8, mutable_pages: 2, io_threads: 1 };
    let SharedChain { store, session, a, b, fillers, cached, .. } = shared_chain(1 << 20, cache);
    // Grow the cache a few pages past `a`'s copy, then shrink its budget so
    // the head passes the copy; the session does not refresh in between.
    let rc = store.read_cache_log().unwrap();
    for k in &fillers {
        read_blocking(&session, *k);
        if rc.tail_address().raw() >> 10 >= 5 {
            break;
        }
    }
    session.refresh();
    rc.set_active_pages(2);
    assert!(rc.head_address() > rc_untag(cached), "`a`'s cache copy is below the cache head");

    session.upsert(&a, &21).expect("writable");
    assert_eq!(read_blocking(&session, a), Some(21));
    assert_eq!(read_blocking(&session, b), Some(10), "the update cut `b` off the chain");
}

/// A recovered store runs with the read cache its config asks for: the
/// first read of a cold key goes to disk and fills the cache, the second is
/// a synchronous cache hit.
fn assert_recovered_store_caches(store: &FasterKv<u64, u64, CountStore>) {
    assert!(store.read_cache_log().is_some(), "recovered store dropped its read cache");
    let session = store.start_session();
    assert_eq!(read_blocking(&session, 5), Some(505));
    let hits = || store.metrics().read_cache.expect("read-cache metrics").hits;
    let before = hits();
    assert_eq!(session.read(&5, &0), Ok(Outcome::Value(505)), "second read is a cache hit");
    assert!(hits() > before, "cache hit not counted");
}

#[test]
fn checkpoint_recovery_keeps_the_read_cache() {
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new(cfg_with_cache(8), CountStore, log_dev.clone());
        load_cold_keys(&store.start_session());
        let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
        mgr.checkpoint_store(&store).expect("commit");
    }
    let (store, _mgr, _gen) = ckpt_manager::recover_store::<u64, u64, CountStore>(
        cfg_with_cache(8),
        CountStore,
        log_dev,
        ckpt_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery");
    assert_recovered_store_caches(&store);
}

#[test]
fn wal_recovery_from_a_generation_keeps_the_read_cache() {
    let cfg = cfg_with_cache(8)
        .with_wal(WalConfig { batch_window: std::time::Duration::ZERO, segment_size: 4096 });
    let log_dev: Arc<dyn Device> = MemDevice::new(2);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let wal_dev: Arc<dyn Device> = MemDevice::new(1);
    {
        let store: FasterKv<u64, u64, CountStore> =
            FasterKv::new_with_wal(cfg, CountStore, log_dev.clone(), wal_dev.clone());
        let session = store.start_session();
        load_cold_keys(&session);
        session.wait_wal_durable().unwrap();
        drop(session);
        let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
        mgr.checkpoint_store(&store).expect("commit");
    }
    let rec = ckpt_manager::recover_store_with_wal::<u64, u64, CountStore>(
        cfg,
        CountStore,
        log_dev,
        ckpt_dev,
        wal_dev,
        CheckpointConfig::default(),
    )
    .expect("recovery");
    assert!(rec.generation.is_some(), "recovered from the committed generation");
    assert_recovered_store_caches(&rec.store);
}
