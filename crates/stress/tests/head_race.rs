//! Scripted schedule for the RMW head-offset race.
//!
//! `rmw` walks a key's in-memory chain against a head snapshot, then reads
//! and classifies the record it found. A flush completion on an I/O thread
//! may advance the head past that record in between — harmless for the
//! data (the frame is closed only by an epoch-deferred action this session's
//! guard still holds back) but fatal if the record access re-reads the live
//! head: the record then looks "on disk" although it was found in memory.
//!
//! The schedule forces the head shift at exactly that seam, with no timing
//! involved: the key type's `PartialEq` is the hook. The chain walk's key
//! comparison on the target record runs it, and it advances the head past
//! the record with `set_active_pages` (the same guardless
//! `maybe_advance_head` a flush completion runs). The RMW must then finish
//! as a read-only copy-update with the correct value. Seeds vary where the
//! target sits in its page and how far the log has grown past it.

use faster_core::{FasterKv, FasterKvConfig, Functions, Outcome, ValueCell};
use faster_hlog::HLogConfig;
use faster_storage::MemDevice;
use faster_stress::seed_range_from_env;
use faster_util::{Pod, XorShift64};
use std::cell::RefCell;

const TARGET: u64 = u64::MAX;
const BUFFER_PAGES: u64 = 8;

/// A `u64` key whose equality test on the target runs the armed hook once.
#[derive(Clone, Copy, Debug, Eq)]
struct HookKey(u64);

// Safety: a plain u64 newtype.
unsafe impl Pod for HookKey {}

thread_local! {
    static HOOK: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
}

impl PartialEq for HookKey {
    fn eq(&self, other: &Self) -> bool {
        if self.0 == TARGET && other.0 == TARGET {
            if let Some(hook) = HOOK.with(|h| h.borrow_mut().take()) {
                hook();
            }
        }
        self.0 == other.0
    }
}

/// Per-key sum: RMW adds its input.
struct Sum;

impl Functions<HookKey, u64> for Sum {
    type Input = u64;
    type Output = u64;

    fn single_reader(&self, _key: &HookKey, _input: &u64, value: &u64) -> u64 {
        *value
    }
    fn initial_updater(&self, _key: &HookKey, input: &u64, value: &mut u64) {
        *value = *input;
    }
    fn in_place_updater(&self, _key: &HookKey, input: &u64, value: &ValueCell<u64>) {
        value.store(value.load() + *input);
    }
    fn copy_updater(&self, _key: &HookKey, input: &u64, old: &u64, new: &mut u64) {
        *new = *old + *input;
    }
}

fn run_schedule(seed: u64) {
    let mut rng = XorShift64::new(seed | 1);
    let log = HLogConfig {
        page_bits: 12,
        buffer_pages: BUFFER_PAGES,
        mutable_pages: 2,
        io_threads: 1,
    };
    let page = log.page_size();
    let store: FasterKv<HookKey, u64, Sum> = FasterKv::new(
        FasterKvConfig::small().with_log(log),
        Sum,
        MemDevice::new(1),
    );
    let s = store.start_session();

    // Place the target a seeded distance into the log, then grow the log
    // far enough past it that its page is read-only and flushed, but not so
    // far that the head would evict it on its own.
    let mut filler = 0u64;
    let lead = rng.next_below(300);
    for _ in 0..lead {
        s.upsert(&HookKey(filler), &filler).unwrap();
        filler += 1;
    }
    let laddr = store.log().tail_address();
    s.upsert(&HookKey(TARGET), &100).unwrap();
    let stop_page = laddr.raw() / page + 3 + rng.next_below(2);
    while store.log().tail_address().raw() / page < stop_page {
        s.upsert(&HookKey(filler), &filler).unwrap();
        filler += 1;
    }
    s.refresh(); // let the safe read-only offset (and its flushes) catch up
    store.log().wait_flush_quiesced();
    let r = store.log().regions();
    assert!(
        r.head <= laddr && laddr < r.safe_read_only && laddr < r.flushed_until,
        "seed {seed}: schedule precondition: target at {laddr:?} must be resident, \
         read-only and flushed ({r:?})"
    );

    // Arm the hook: at the chain walk's match on the target, push the head
    // past it, exactly as a flush completion on an I/O thread could.
    let shifter = store.clone();
    HOOK.with(|h| {
        *h.borrow_mut() = Some(Box::new(move || {
            let log = shifter.log();
            log.set_active_pages(2);
            assert!(
                log.head_address() > laddr,
                "the forced shift must move the head past the target"
            );
        }))
    });
    let res = s.rmw(&HookKey(TARGET), &5);
    assert!(
        HOOK.with(|h| h.borrow().is_none()),
        "seed {seed}: the hook never fired"
    );
    assert!(
        matches!(res, Ok(Outcome::Done)),
        "seed {seed}: rmw returned {res:?}"
    );
    assert!(store.log().head_address() > laddr);

    // The copy-update landed at the tail with the summed value.
    store.log().set_active_pages(BUFFER_PAGES);
    match s.read(&HookKey(TARGET), &0) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 105, "seed {seed}"),
        other => panic!("seed {seed}: read after rmw returned {other:?}"),
    }
}

#[test]
fn rmw_survives_head_shift_between_chain_walk_and_record_access() {
    for seed in seed_range_from_env(16) {
        run_schedule(seed);
    }
}
