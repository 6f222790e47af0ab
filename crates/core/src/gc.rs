//! Log garbage collection (Appendix C).
//!
//! Two mechanisms, as in the paper:
//!
//! * **Expiration** — [`FasterKv::truncate_until`] drops a log prefix
//!   outright ("data stored in cloud providers often has a maximum time to
//!   live"). Index entries and record chains pointing below the new begin
//!   address are treated as dangling and lazily removed when encountered.
//! * **Roll to tail** — [`FasterKv::compact_until`] scans a prefix and
//!   copies *live* key-values to the tail before truncating. Liveness is
//!   exact: a record is copied only if no newer record for its key exists
//!   above it, checked by tracing the chain (with blocking device reads for
//!   the cold part — compaction is a maintenance path).

use crate::record::{RecordBytes, RecordHeader, RecordRef, DELTA_BIT};
use crate::session::{ChainWalk, Link, Step};
use crate::{hash_key, FasterKv, Functions, Session};
use faster_hlog::LogScanner;
use faster_util::{Address, Pod};

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> FasterKv<K, V, F> {
    /// Expiration-based GC: invalidates everything below `addr`.
    ///
    /// When the store is checkpointed through a
    /// [`crate::ckpt_manager::CheckpointManager`], truncate through
    /// [`crate::ckpt_manager::CheckpointManager::gc_truncate`] instead: raw
    /// truncation can climb above the `begin` of a retained checkpoint
    /// generation and silently destroy its fallback replayability.
    pub fn truncate_until(&self, addr: Address) {
        self.inner.log.shift_begin_address(addr);
    }

    /// Roll-to-tail compaction: copies records in `[begin, until)` that are
    /// still live to the tail, then truncates. Returns the number of records
    /// rolled forward. Run from a maintenance thread with its own session.
    pub fn compact_until(&self, until: Address, session: &Session<K, V, F>) -> u64 {
        self.compact_until_clamped(until, until, session)
    }

    /// [`compact_until`](Self::compact_until) for checkpoint-aware callers:
    /// scans (and rolls) up to `until` but truncates only to `truncate_to`
    /// (≤ `until`). Rolling a live record to the tail is always safe;
    /// truncation is what can orphan a retained checkpoint generation, so
    /// only it takes the manager's clamp
    /// ([`crate::ckpt_manager::CheckpointManager::safe_truncation_bound`]).
    pub fn compact_until_clamped(
        &self,
        until: Address,
        truncate_to: Address,
        session: &Session<K, V, F>,
    ) -> u64 {
        let inner = &self.inner;
        let until = until.min(inner.log.safe_read_only_address());
        let rec_size = RecordRef::<K, V>::size();
        let mut rolled = 0u64;
        for page in LogScanner::new(&inner.log, inner.log.begin_address(), until) {
            let Ok(page) = page else { continue };
            let mut off = page.start_offset;
            while off + rec_size <= page.end_offset {
                let slice = &page.bytes[off..off + rec_size];
                let addr = Address::new(page.base.raw() + off as u64);
                off += rec_size;
                let Some((header, key, value)) = RecordRef::<K, V>::parse_bytes(slice) else {
                    break; // padding: rest of page is empty
                };
                if header.is_invalid() || header.is_merge() || header.is_tombstone() {
                    continue;
                }
                if self.roll(&key, addr, header, value, session) {
                    rolled += 1;
                }
                session.refresh();
            }
        }
        self.truncate_until(truncate_to.min(until));
        rolled
    }

    /// Rolls the record at `addr` to the tail if it is still live. The
    /// liveness walk starts from the index-entry snapshot the publish CAS
    /// expects, so anything appended to the chain meanwhile (a CRDT delta,
    /// say) fails the CAS, and the walk re-runs to fold it in or to find the
    /// record superseded. The copy links to the key's primary-log
    /// predecessor: a read-cache chain head is spliced out, as for every
    /// other new tail record (Appendix D).
    fn roll(&self, key: &K, addr: Address, header: RecordHeader, value: V, session: &Session<K, V, F>) -> bool {
        let inner = &self.inner;
        let bits = if header.is_delta() { DELTA_BIT } else { 0 };
        loop {
            let link = Link::from(inner.index.find_or_create_tag(hash_key(key), Some(session.guard())));
            let head = match &link {
                Link::Swap(_, entry) => entry.address(),
                Link::Fresh(_) => Address::INVALID,
            };
            // Exact liveness: any newer base for this key above `addr`
            // supersedes it; newer deltas don't, but a base rolled to the
            // tail would shadow them, so the copy absorbs them.
            let Some(deltas) = self.live_deltas_above(key, head, addr, session) else { return false };
            let value = match deltas {
                Some(d) if !header.is_delta() => inner.functions.merge(&value, &d),
                _ => value,
            };
            if session.publish(link, key, bits, |v| *v = value).is_some() {
                return true;
            }
        }
    }

    /// Walks `key`'s chain from `head` down to `bound`: `None` if a base
    /// record (or tombstone) for `key` lies strictly above it — the record
    /// at `bound` is superseded — else `Some` of the merged CRDT deltas for
    /// `key` above it (`Some(None)` when there are none). Blocking reads
    /// for the cold chain.
    fn live_deltas_above(
        &self,
        key: &K,
        head: Address,
        bound: Address,
        session: &Session<K, V, F>,
    ) -> Option<Option<V>> {
        let f = &self.inner.functions;
        let floor = self.inner.log.begin_address().max(bound.offset_by(1));
        let mut walk = ChainWalk::new();
        // An evicted cache head has nothing to walk yet; the roll's publish
        // refuses it too, and the roll re-walks once the entry is restored.
        let mut addr = session.chain_prev_for_new_record(head).unwrap_or(Address::INVALID);
        while let Some(next) = walk.resume(addr, floor) {
            // A record that cannot be read ends its prong.
            let Some(rec) = self.fetch_record_blocking(next) else {
                addr = Address::INVALID;
                continue;
            };
            match walk.step(f, key, &rec) {
                Step::Next(prev) => addr = prev,
                Step::Deleted | Step::Base => return None,
            }
        }
        Some(walk.acc)
    }

    /// The one blocking record fetch, for maintenance and analytics chain
    /// walks (compaction liveness, `Session::read_history`): a resident
    /// record is copied out of its frame, a cold one read back with one
    /// blocking device read. `None` if the record cannot be read. These
    /// paths block by design, so they keep the storage callback route
    /// instead of a session's completion ring.
    pub(crate) fn fetch_record_blocking(&self, addr: Address) -> Option<RecordBytes<Vec<u8>, K, V>> {
        let log = &self.inner.log;
        let size = RecordRef::<K, V>::size();
        let bytes = match log.get(addr) {
            // Safety: epoch-protected resident record of `size` bytes.
            Some(p) => unsafe { std::slice::from_raw_parts(p, size) }.to_vec(),
            None => {
                let (tx, rx) = std::sync::mpsc::channel();
                log.read_async(addr, size, Box::new(move |r| drop(tx.send(r))));
                rx.recv().ok()?.ok()?
            }
        };
        RecordBytes::parse(bytes)
    }
}
