//! Scripted schedule for a roll-to-tail compaction that loses its CAS.
//!
//! `compact_until` checks a cold record's liveness by walking its key's
//! chain down to it, folds the CRDT deltas it passes into the copy, and
//! publishes the copy with one index CAS. A delta appended between the walk
//! and the CAS is newer than the copy's fold: published anyway, the copy
//! would shadow it, and once the original is truncated the key reads the
//! base plus the old deltas only. The CAS must lose instead, and the roll
//! must re-walk and retry.
//!
//! The schedule appends that delta at exactly this seam, with no timing
//! involved: the key type's `PartialEq` is the hook (as in `head_race.rs`).
//! The liveness walk's key comparison on the target's first delta runs it,
//! and it RMWs the target from a second session. After compaction and
//! truncation the key must read base + every delta. Seeds vary how many
//! live records precede the base and how far the delta sits from it.

use faster_core::{FasterKv, FasterKvConfig, Functions, Outcome, ValueCell};
use faster_hlog::HLogConfig;
use faster_storage::MemDevice;
use faster_stress::seed_range_from_env;
use faster_util::{Pod, XorShift64};
use std::cell::RefCell;

const TARGET: u64 = u64::MAX;

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

/// Per-key sum CRDT: RMWs on cold or read-only records append deltas.
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
    fn is_mergeable(&self) -> bool {
        true
    }
    fn identity(&self) -> u64 {
        0
    }
    fn merge(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

fn run_schedule(seed: u64) {
    let mut rng = XorShift64::new(seed | 1);
    let log = HLogConfig { page_bits: 12, buffer_pages: 8, mutable_pages: 2, io_threads: 1 };
    let page = log.page_size();
    let store: FasterKv<HookKey, u64, Sum> =
        FasterKv::new(FasterKvConfig::small().with_log(log), Sum, MemDevice::new(1));
    let s = store.start_session();
    let mut filler = 0u64;
    let mut fill = |n: u64| {
        for _ in 0..n {
            s.upsert(&HookKey(filler), &filler).unwrap();
            filler += 1;
        }
    };

    // The base, behind a seeded number of live records, then pushed to
    // disk so an RMW of the target appends a delta instead of copying.
    fill(rng.next_below(60));
    let base = store.log().tail_address();
    s.upsert(&HookKey(TARGET), &100).unwrap();
    let until = store.log().tail_address();
    while store.log().head_address() <= base {
        fill(64);
    }
    assert!(matches!(s.rmw(&HookKey(TARGET), &5), Ok(Outcome::Done)));
    let delta = store.log().tail_address();
    // Age the delta out of the mutable region (seeded distance), so the
    // hook's RMW appends a second delta rather than updating it in place.
    fill(rng.next_below(400));
    while store.log().safe_read_only_address() <= delta {
        fill(64);
        s.refresh();
    }
    // Leave the tail page room for every append the compaction and the
    // hook make, so neither waits on an eviction while the hook runs.
    while store.log().bytes_to_page_end(store.log().tail_address()) < page - 256 {
        fill(1);
    }

    // Arm the hook: at the liveness walk's first target comparison (the
    // delta above the base), append another delta from a second session.
    let writer = store.clone();
    HOOK.with(|h| {
        *h.borrow_mut() = Some(Box::new(move || {
            let s2 = writer.start_session();
            assert!(matches!(s2.rmw(&HookKey(TARGET), &7), Ok(Outcome::Done)));
        }))
    });
    store.compact_until(until, &s);
    assert!(HOOK.with(|h| h.borrow().is_none()), "seed {seed}: the hook never fired");
    assert!(store.log().begin_address() >= until, "seed {seed}: the base was truncated");

    match s.read(&HookKey(TARGET), &0) {
        Ok(Outcome::Value(v)) => assert_eq!(v, 112, "seed {seed}: base + both deltas"),
        other => panic!("seed {seed}: read after compaction returned {other:?}"),
    }
}

#[test]
fn compaction_retries_a_roll_whose_cas_loses_to_a_new_delta() {
    for seed in seed_range_from_env(16) {
        run_schedule(seed);
    }
}
