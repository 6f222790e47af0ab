//! Sessions and the four store operations (Algorithms 2–4, §2.5, §6.3).
//!
//! A [`Session`] is one thread's registration with the store: it wraps an
//! epoch guard (acquired on creation, released on drop), refreshes the epoch
//! every `refresh_interval` operations, and owns the pending queue for
//! operations that returned `PENDING` — disk reads (§5.3) and fuzzy-region
//! RMWs (§6.3). Call [`Session::complete_pending`] periodically to drive
//! continuations, exactly as the paper's thread lifecycle prescribes.
//!
//! ## Completion-driven I/O
//!
//! Pending disk reads are continuation-driven over the device's
//! submission/completion ring: each op that misses memory parks its context
//! in a continuation table keyed by a fresh id, and queues a ring-routed
//! SQE carrying that id. [`Session::complete_pending`] drives the cycle —
//! submit every queued SQE in one batched handoff, reap CQEs straight off
//! the session's [`CompletionRing`] (one atomic swap, no thread hop, no
//! lock), and resume each continuation by id. A single session can
//! therefore keep hundreds of disk reads in flight: issue a batch of
//! reads, then call `complete_pending` to overlap all of their I/O.

use crate::functions::Functions;
use crate::health::{HealthReason, StoreError};
use crate::read_cache::{is_rc, rc_tag, rc_untag};
use crate::record::{
    RecordBytes, RecordHeader, RecordRef, RecordView, DELTA_BIT, INVALID_BIT, TOMBSTONE_BIT,
};
use crate::{hash_key, FasterKv};
use faster_epoch::EpochGuard;
use faster_hlog::{ReadSpan, Region};
use faster_index::{CreateOutcome, CreatedEntry, EntrySlot, HashBucketEntry};
use faster_metrics::{SessionHub, SessionRecorder, Timer};
use faster_storage::{CompletionRing, Cqe, Sqe};
use faster_util::{Address, KeyHash, Pod};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Successful completion of a store operation (the unified operation API).
///
/// Every public operation returns [`OpResult`] = `Result<Outcome, OpError>`:
/// a read that finds the key yields `Value`, an applied mutation yields
/// `Done`, and everything else — absent key, asynchronous continuation,
/// read-only degradation, exhausted I/O — is a typed [`OpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome<O> {
    /// A read found the key; the user functions produced this output.
    Value(O),
    /// A mutation (upsert / RMW / delete) was applied.
    Done,
}

impl<O> Outcome<O> {
    /// The read output, if this outcome carries one.
    #[inline]
    pub fn value(self) -> Option<O> {
        match self {
            Outcome::Value(o) => Some(o),
            Outcome::Done => None,
        }
    }
}

/// Why an operation did not (or has not yet) produced an [`Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpError {
    /// The key does not exist (reads; a delete of an absent key is `Done`).
    NotFound,
    /// The operation went asynchronous (disk read, fuzzy-region RMW); the id
    /// is echoed by the [`Completion`] that [`Session::complete_pending`]
    /// eventually returns for it.
    Pending(u64),
    /// The store has degraded to read-only (DESIGN.md §12) and refuses new
    /// mutations; the reason names the fault. Reads are never refused.
    ReadOnly(HealthReason),
    /// The operation's I/O failed ([`faster_storage::IoError`]) and
    /// exhausted its bounded retry budget. The store was **not** mutated and
    /// the key was **not** declared absent — the caller may re-issue the
    /// operation once the device recovers. (A GC-truncated record, by
    /// contrast, genuinely means "key absent" and completes as
    /// `Err(NotFound)` / `Ok(Done)`.) Surfaced only through completions.
    Io(faster_storage::IoError),
}

impl OpError {
    /// The pending id, when the operation went asynchronous.
    #[inline]
    pub fn pending_id(&self) -> Option<u64> {
        match self {
            OpError::Pending(id) => Some(*id),
            _ => None,
        }
    }
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::NotFound => write!(f, "key not found"),
            OpError::Pending(id) => write!(f, "operation pending (id {id})"),
            OpError::ReadOnly(r) => write!(f, "store is read-only: {r}"),
            OpError::Io(e) => write!(f, "I/O failed: {e}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<StoreError> for OpError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::ReadOnly(r) => OpError::ReadOnly(r),
        }
    }
}

/// Result of every store operation. See [`Outcome`] and [`OpError`].
pub type OpResult<O> = Result<Outcome<O>, OpError>;

/// A formerly pending operation completed by [`Session::complete_pending`]:
/// the id the operation originally returned via `OpError::Pending`, plus its
/// final [`OpResult`] (`Ok(Value)` / `Err(NotFound)` for reads, `Ok(Done)`
/// for RMWs, `Err(Io)` when the I/O retry budget ran out).
#[derive(Debug)]
pub struct Completion<O> {
    pub id: u64,
    pub result: OpResult<O>,
}

/// Bounded retry budget for transiently failed I/O (device errors, not
/// GC truncation). Retries pace themselves with [`faster_util::Backoff`];
/// past the budget the op completes as `Err(OpError::Io)`.
const MAX_IO_RETRIES: u32 = 8;

/// One operation of a heterogeneous batch ([`Session::execute_batch`]).
#[derive(Debug, Clone)]
pub enum BatchOp<K, V, I> {
    Read { key: K, input: I },
    Upsert { key: K, value: V },
    Rmw { key: K, input: I },
    Delete { key: K },
}

impl<K, V, I> BatchOp<K, V, I> {
    #[inline]
    fn op(&self) -> Op<'_, K, V, I> {
        match self {
            BatchOp::Read { key, input } => Op::Read { key, input, head: None },
            BatchOp::Upsert { key, value } => Op::Upsert { key, value },
            BatchOp::Rmw { key, input } => Op::Rmw { key, input },
            BatchOp::Delete { key } => Op::Delete { key },
        }
    }
}

/// One operation, borrowed from whichever entry point issued it (a scalar
/// method, `read_batch` or `execute_batch`) — see [`Session::dispatch`].
enum Op<'a, K, V, I> {
    /// `head`: a chain head the batch pipeline already probed (`None`:
    /// probe the index).
    Read { key: &'a K, input: &'a I, head: Option<Address> },
    Upsert { key: &'a K, value: &'a V },
    Rmw { key: &'a K, input: &'a I },
    Delete { key: &'a K },
}

impl<K, V, I> Op<'_, K, V, I> {
    #[inline]
    fn key(&self) -> &K {
        match self {
            Op::Read { key, .. } | Op::Upsert { key, .. } | Op::Rmw { key, .. } | Op::Delete { key } => key,
        }
    }
}

/// How a new tail record reaches the index ([`Session::publish`]).
pub(crate) enum Link<'a> {
    /// CAS the entry, which must still hold this snapshot.
    Swap(EntrySlot<'a>, HashBucketEntry),
    /// Finalize a freshly claimed tentative entry (no chain to link to).
    Fresh(CreatedEntry<'a>),
}

impl<'a> From<CreateOutcome<'a>> for Link<'a> {
    fn from(outcome: CreateOutcome<'a>) -> Self {
        match outcome {
            CreateOutcome::Found(slot) => {
                let entry = slot.load();
                Link::Swap(slot, entry)
            }
            CreateOutcome::Created(created) => Link::Fresh(created),
        }
    }
}

/// What a chain walk carries from record to record: Algorithm 2's loop,
/// extended with CRDT deltas (§6.3) and merge records (Appendix B).
pub(crate) struct ChainWalk<V> {
    /// Deltas folded so far, newest first.
    pub(crate) acc: Option<V>,
    /// Merge-record second prongs still to search.
    fallbacks: Vec<Address>,
}

/// One record's verdict in a chain walk ([`ChainWalk::step`]).
pub(crate) enum Step {
    /// Keep walking here: a merge record (its second prong is queued), an
    /// invalid or other-key record, or a delta (now folded).
    Next(Address),
    /// A tombstone for the key ends the walk.
    Deleted,
    /// The key's base record: the caller reads its value.
    Base,
}

impl<V: Pod> ChainWalk<V> {
    pub(crate) fn new() -> Self {
        Self { acc: None, fallbacks: Vec::new() }
    }

    /// Classifies one record of `key`'s chain.
    pub(crate) fn step<K: Pod + Eq, F: Functions<K, V>>(
        &mut self,
        f: &F,
        key: &K,
        rec: &impl RecordView<K, V>,
    ) -> Step {
        let h = rec.header();
        if h.is_merge() {
            self.fallbacks.push(rec.merge_second());
        } else if !h.is_invalid() && rec.key() == *key {
            if h.is_tombstone() {
                return Step::Deleted;
            }
            if !h.is_delta() {
                return Step::Base;
            }
            let part = rec.value();
            self.acc = Some(match &self.acc {
                Some(a) => f.merge(a, &part),
                None => part,
            });
        }
        Step::Next(h.prev())
    }

    /// Where the walk goes from `next`: `next` itself if it is valid and at
    /// or above `floor`; otherwise this prong has ended (chain end, or a
    /// GC'd prefix — Appendix C) and the walk takes the next merge prong.
    /// `None` once every prong is exhausted.
    pub(crate) fn resume(&mut self, mut next: Address, floor: Address) -> Option<Address> {
        while !next.is_valid() || next < floor {
            next = self.fallbacks.pop()?;
        }
        Some(next)
    }

    /// Folds the deltas walked so far onto a base value, and resets them.
    pub(crate) fn fold_base<K: Pod, F: Functions<K, V>>(&mut self, f: &F, base: V) -> V {
        match self.acc.take() {
            Some(a) => f.merge(&base, &a),
            None => base,
        }
    }

    /// The walk's value: the base (if any) with the deltas folded in;
    /// deltas with no base fold onto the identity (§6.3). `None`: absent.
    pub(crate) fn finish<K: Pod, F: Functions<K, V>>(mut self, f: &F, base: Option<V>) -> Option<V> {
        match base {
            Some(b) => Some(self.fold_base(f, b)),
            None => self.acc.map(|a| f.merge(&f.identity(), &a)),
        }
    }
}

#[derive(Clone, Copy)]
enum PendingKind {
    Read,
    Rmw,
}

struct PendingOp<K, V, I> {
    id: u64,
    key: K,
    hash: KeyHash,
    input: I,
    kind: PendingKind,
    /// Address whose read was issued (continuation resumes from its record).
    read_addr: Address,
    /// Entry address snapshot for the RMW CAS-consistency check.
    entry_addr: Address,
    /// The chain walk the continuation resumes.
    walk: ChainWalk<V>,
    /// Transient-I/O-failure retries consumed so far (see [`MAX_IO_RETRIES`]).
    attempts: u32,
}

/// A pending op parked in the continuation table: the context to resume
/// when the CQE bearing its id is reaped, plus the issue timestamp feeding
/// the `io_latency` histogram.
struct Parked<K, V, I> {
    op: PendingOp<K, V, I>,
    issued: Instant,
    /// Checksum-verification plan for the in-flight read; `None` when the
    /// op short-circuited (its error CQE is already in the ring).
    span: Option<ReadSpan>,
}

/// The continuation table: pending ops keyed by SQE id.
type ContinuationTable<K, V, I> = HashMap<u64, Parked<K, V, I>>;

/// Retained-capacity bound for the CQE reap buffer: a pathological burst
/// (deep io-depth drain) may grow it arbitrarily, so oversized buffers are
/// shrunk back after the drain instead of pinning the high-water mark
/// forever.
const IO_SCRATCH_MAX: usize = 1024;

/// How long a waiting `complete_pending` parks on the completion ring per
/// pass. Bounded so the epoch keeps refreshing while we wait (flush and
/// eviction triggers may be what our own I/O is stuck behind).
const RING_WAIT: Duration = Duration::from_micros(200);

/// A thread's handle onto the store. Not `Sync`: one session per thread,
/// exactly like the paper's thread model.
///
/// # Liveness
///
/// Every *live* session must keep operating (operations auto-refresh the
/// epoch every `refresh_interval` ops) or be dropped: an idle registered
/// session pins the current epoch, which stalls epoch-gated maintenance
/// (page flushes, evictions, resize phase changes) for the whole store —
/// exactly the thread contract of §2.5. Park a thread? Drop its session and
/// start a new one later.
pub struct Session<K: Pod, V: Pod, F: Functions<K, V>> {
    store: FasterKv<K, V, F>,
    guard: EpochGuard,
    // Session-local state uses Cell/RefCell: a session belongs to exactly one
    // thread (it is !Sync), and interior mutability keeps operation methods
    // at &self so index EntrySlot borrows never conflict.
    ops_since_refresh: Cell<u32>,
    next_id: Cell<u64>,
    outstanding: Cell<usize>,
    /// Completion ring the session's SQEs route their CQEs into. Shared
    /// with the device (each in-flight SQE holds an `Arc`), so completions
    /// racing a session drop land harmlessly in the ring and are freed
    /// with the last reference.
    ring: Arc<CompletionRing>,
    /// Locally queued SQEs, handed to the device in one `submit_all` batch
    /// per `complete_pending` pass.
    sq: RefCell<Vec<Sqe>>,
    /// Continuation table: pending ops keyed by their SQE id.
    pending: RefCell<ContinuationTable<K, V, F::Input>>,
    /// Reused CQE reap buffer so completion processing allocates nothing
    /// per call once warm (capacity bounded by [`IO_SCRATCH_MAX`]).
    io_scratch: RefCell<Vec<Cqe>>,
    /// Fuzzy-region RMWs awaiting retry at the next `complete_pending`
    /// (§6.3).
    retries: RefCell<VecDeque<PendingOp<K, V, F::Input>>>,
    /// This session's slot in the store-wide metrics registry (single
    /// writer: this thread). Retired into the hub's accumulator on drop.
    rec: Arc<SessionRecorder>,
    /// Shared per-op latency histograms (+ the runtime latency switch).
    hub: Arc<SessionHub>,
    /// Set by `read_internal` when the current first-pass read was served
    /// from the read cache; the caller classifies the read from it.
    read_rc_hit: Cell<bool>,
    /// Highest WAL LSN this session has appended (0 = none). Mutations are
    /// durable once the WAL acks through this LSN (DESIGN.md §10).
    wal_lsn: Cell<u64>,
    /// Sticky WAL append failure: once an append is refused (the log hit a
    /// commit failure), every later durability wait on this session errors.
    wal_error: RefCell<Option<faster_storage::IoError>>,
    /// Ids of WAL durability notices registered on this session's ring
    /// ([`Session::notify_wal_durable`]); their CQEs are routed here, not to
    /// the continuation table.
    wal_notices: RefCell<std::collections::HashSet<u64>>,
    /// Resolved WAL notices awaiting pickup by [`Session::take_wal_notice`].
    wal_notice_results: RefCell<HashMap<u64, Result<(), faster_storage::IoError>>>,
}

impl<K: Pod + Eq, V: Pod, F: Functions<K, V>> Session<K, V, F> {
    pub(crate) fn new(store: FasterKv<K, V, F>) -> Self {
        let guard = store.inner.epoch.acquire();
        let hub = store.inner.metrics.sessions.clone();
        let rec = hub.register();
        Self {
            store,
            guard,
            ops_since_refresh: Cell::new(0),
            next_id: Cell::new(1),
            outstanding: Cell::new(0),
            ring: Arc::new(CompletionRing::new()),
            sq: RefCell::new(Vec::new()),
            pending: RefCell::new(HashMap::new()),
            io_scratch: RefCell::new(Vec::new()),
            retries: RefCell::new(VecDeque::new()),
            rec,
            hub,
            read_rc_hit: Cell::new(false),
            wal_lsn: Cell::new(0),
            wal_error: RefCell::new(None),
            wal_notices: RefCell::new(std::collections::HashSet::new()),
            wal_notice_results: RefCell::new(HashMap::new()),
        }
    }

    /// The session's epoch guard (used by maintenance operations).
    pub fn guard(&self) -> &EpochGuard {
        &self.guard
    }

    /// Classifies a first-pass read's synchronous outcome into exactly one
    /// of `rc_hits` / `mem_reads` / `reads_pending` (the registry's read
    /// identity), and feeds the read-cache hit/miss counters when the store
    /// has a cache (a read that goes to disk is by definition a cache miss).
    fn classify_read(&self, r: &OpResult<F::Output>) {
        let rc_hit = self.read_rc_hit.get();
        match r {
            Err(OpError::Pending(_)) => self.rec.reads_pending.inc(),
            _ if rc_hit => self.rec.rc_hits.inc(),
            _ => self.rec.mem_reads.inc(),
        }
        if self.store.inner.rc.is_some() {
            let rcm = &self.store.inner.metrics.read_cache;
            if rc_hit {
                rcm.hits.inc();
            } else {
                rcm.misses.inc();
            }
        }
    }

    /// Counts one successful mutation: `writes` plus exactly one of the
    /// `in_place` / `rcu` / `appends` buckets (the write identity).
    #[inline]
    fn count_write(&self, bucket: &faster_metrics::Cell64) {
        self.rec.writes.inc();
        bucket.inc();
    }

    /// Reports `records` log records made dead by this op (RCU-superseded,
    /// tombstoned, or abandoned after a lost CAS) to the hlog's dead-space
    /// counter. An RCU supersedes at most one older version per key, so this
    /// is an upper bound when the chain never actually held the key — the
    /// safe direction for a compaction trigger.
    #[inline]
    fn note_dead(&self, records: u64) {
        self.store
            .inner
            .log
            .note_dead_bytes(records * RecordRef::<K, V>::size() as u64);
    }

    /// Number of operations currently pending (I/O or fuzzy retries).
    pub fn pending_count(&self) -> usize {
        self.outstanding.get()
    }

    /// Explicit epoch refresh (§2.4); also runs automatically every
    /// `refresh_interval` operations.
    pub fn refresh(&self) {
        self.guard.refresh();
        self.ops_since_refresh.set(0);
    }

    #[inline]
    fn maybe_refresh(&self) {
        let n = self.ops_since_refresh.get() + 1;
        self.ops_since_refresh.set(n);
        if n >= self.store.inner.cfg.refresh_interval {
            self.refresh();
        }
    }

    /// Batch-amortized epoch bookkeeping: one counter update (and at most
    /// one refresh) for `n` operations, instead of `n` counter round-trips.
    #[inline]
    fn batch_tick(&self, n: usize) {
        let total = self.ops_since_refresh.get().saturating_add(n as u32);
        if total >= self.store.inner.cfg.refresh_interval {
            self.refresh();
        } else {
            self.ops_since_refresh.set(total);
        }
    }

    #[inline]
    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Decrements the outstanding-op count. Issue and completion are
    /// strictly paired, so the count can never go negative — asserted in
    /// debug builds because an unbalanced decrement would silently turn
    /// `complete_pending(wait)` into a premature return.
    #[inline]
    fn dec_outstanding(&self) {
        let n = self.outstanding.get();
        debug_assert!(n > 0, "outstanding I/O accounting went negative");
        self.outstanding.set(n.saturating_sub(1));
    }

    /// A fresh pending-op context for `key` (reusing `id` when a pending op
    /// restarts), with no read issued yet.
    fn pending_op(
        &self,
        kind: PendingKind,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        id: Option<u64>,
    ) -> PendingOp<K, V, F::Input> {
        PendingOp {
            id: id.unwrap_or_else(|| self.fresh_id()),
            key: *key,
            hash,
            input: input.clone(),
            kind,
            read_addr: Address::INVALID,
            entry_addr: Address::INVALID,
            walk: ChainWalk::new(),
            attempts: 0,
        }
    }

    /// Issues the record read for `op.read_addr` (first hop, next chain
    /// hop, or a bounded transient-failure retry) and returns the op's id:
    /// the op parks in the continuation table and its ring-routed SQE goes
    /// out with the next `complete_pending` batch. A GC-truncated address
    /// short-circuits: the Truncated CQE is already in the ring under this
    /// id and no SQE is queued.
    fn issue_io(&self, op: PendingOp<K, V, F::Input>) -> u64 {
        let id = op.id;
        self.rec.io_issued.inc();
        self.outstanding.set(self.outstanding.get() + 1);
        let made = self
            .store
            .inner
            .log
            .make_read_sqe(id, op.read_addr, RecordRef::<K, V>::size(), &self.ring);
        let span = made.map(|(sqe, span)| {
            self.sq.borrow_mut().push(sqe);
            span
        });
        let prev = self.pending.borrow_mut().insert(id, Parked { op, issued: Instant::now(), span });
        debug_assert!(prev.is_none(), "duplicate pending id {id}");
        id
    }

    /// The key's chain head from the index (`INVALID` when it has none).
    #[inline]
    fn chain_head(&self, hash: KeyHash) -> Address {
        match self.store.inner.index.find_tag(hash, Some(&self.guard)) {
            Some(slot) => slot.load().address(),
            None => Address::INVALID,
        }
    }

    // ============================================================ DISPATCH

    /// Runs one operation: the single dispatch point behind the scalar
    /// methods, [`Session::read_batch`] and [`Session::execute_batch`].
    /// Counts the op, applies the read-only gate to mutations and
    /// classifies reads; latency timing and epoch bookkeeping stay with the
    /// caller (per op for scalar calls, once per batch otherwise).
    #[inline(always)]
    fn dispatch(&self, op: Op<'_, K, V, F::Input>, hash: KeyHash) -> OpResult<F::Output> {
        match op {
            Op::Read { key, input, head } => {
                self.rec.reads.inc();
                self.read_rc_hit.set(false);
                let head = head.unwrap_or_else(|| self.chain_head(hash));
                let r = self.read_internal(key, hash, input, head, ChainWalk::new(), None);
                self.classify_read(&r);
                r
            }
            Op::Upsert { key, value } => {
                self.writable()?;
                self.rec.upserts.inc();
                self.upsert_internal(key, hash, value);
                Ok(Outcome::Done)
            }
            Op::Rmw { key, input } => {
                self.writable()?;
                self.rec.rmws.inc();
                self.rmw_internal(key, hash, input, None)
            }
            Op::Delete { key } => {
                self.writable()?;
                self.rec.deletes.inc();
                self.delete_internal(key, hash);
                Ok(Outcome::Done)
            }
        }
    }

    /// A scalar call: one dispatched op, timed into `latency` (a no-op
    /// unless built with `metrics-timing` and enabled in `MetricsConfig`),
    /// then the per-op epoch refresh cadence. A refused mutation was
    /// neither applied nor counted, so it is not timed either.
    #[inline(always)]
    fn scalar(
        &self,
        op: Op<'_, K, V, F::Input>,
        latency: &faster_metrics::LatencyHistogram,
    ) -> OpResult<F::Output> {
        let t = Timer::start(self.hub.latency_enabled);
        let hash = hash_key(op.key());
        let r = self.dispatch(op, hash);
        if !matches!(r, Err(OpError::ReadOnly(_))) {
            t.observe(latency);
            self.maybe_refresh();
        }
        r
    }

    /// The read-only gate every mutation passes (DESIGN.md §12): a store
    /// degraded to read-only refuses new mutations with a typed reason.
    #[inline]
    fn writable(&self) -> Result<(), OpError> {
        match self.store.inner.health.read_only_error() {
            Some(StoreError::ReadOnly(r)) => Err(OpError::ReadOnly(r)),
            None => Ok(()),
        }
    }

    // ================================================================ READ

    /// Reads the value for `key` (Algorithm 2). For mergeable (CRDT) stores
    /// the read reconciles delta records along the chain (§6.3).
    ///
    /// Returns `Ok(Outcome::Value(out))` on a hit, `Err(OpError::NotFound)`
    /// on a miss, or `Err(OpError::Pending(id))` when the read went to disk
    /// (resolved by [`Session::complete_pending`]).
    pub fn read(&self, key: &K, input: &F::Input) -> OpResult<F::Output> {
        self.scalar(Op::Read { key, input, head: None }, &self.hub.read_latency)
    }

    /// The read walk from `addr` (a chain head, or where a continuation
    /// resumes mid-chain); `id` reuses a pending op's id.
    fn read_internal(
        &self,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        mut addr: Address,
        mut walk: ChainWalk<V>,
        id: Option<u64>,
    ) -> OpResult<F::Output> {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let (rec, cached) = if is_rc(addr) {
                // Appendix D: the entry points into the read-cache log.
                let Some(rc_log) = inner.rc.as_ref() else { break };
                let Some(p) = rc_log.get(rc_untag(addr)) else {
                    // Evicted under us; the eviction hook is restoring the
                    // entry. Refresh (drives the trigger) + restart.
                    self.refresh();
                    addr = self.chain_head(hash);
                    continue;
                };
                // Safety: epoch-protected resident cache record.
                (unsafe { RecordRef::<K, V>::from_raw(p) }, true)
            } else {
                let Some(next) = walk.resume(addr, inner.log.begin_address()) else { break };
                addr = next;
                let Some(p) = inner.log.get(addr) else {
                    // Below head: go asynchronous (Alg 2 line 6).
                    let op = PendingOp {
                        read_addr: addr,
                        walk,
                        ..self.pending_op(PendingKind::Read, key, hash, input, id)
                    };
                    return Err(OpError::Pending(self.issue_io(op)));
                };
                // Safety: epoch-protected resident record.
                (unsafe { RecordRef::<K, V>::from_raw(p) }, false)
            };
            match walk.step(f, key, &rec) {
                Step::Next(prev) => addr = prev,
                Step::Deleted => break,
                Step::Base if cached => {
                    // Second chance (§6.4 applied to the cache): a hit
                    // outside the cache's mutable region copies the record
                    // to the cache tail.
                    if walk.acc.is_none() {
                        self.rc_second_chance(key, hash, &rec, addr);
                    }
                    self.read_rc_hit.set(true);
                    return self.output(key, input, walk.finish(f, Some(rec.read_value())));
                }
                Step::Base => {
                    // Base record: produce the output (Alg 2 lines 12-15).
                    if walk.acc.is_none() && addr >= inner.log.safe_ipu_boundary() {
                        return Ok(Outcome::Value(f.concurrent_reader(key, input, rec.value_cell())));
                    }
                    return self.output(key, input, walk.finish(f, Some(rec.read_value())));
                }
            }
        }
        self.output(key, input, walk.finish(f, None))
    }

    /// A read's result from the value its walk reconciled (`None`: absent).
    fn output(&self, key: &K, input: &F::Input, value: Option<V>) -> OpResult<F::Output> {
        match value {
            Some(v) => Ok(Outcome::Value(self.store.inner.functions.single_reader(key, input, &v))),
            None => Err(OpError::NotFound),
        }
    }

    // ================================================================= WAL

    /// Logs a logical redo record for a mutation this session just applied
    /// (DESIGN.md §10). No-op for stores without a WAL — including a
    /// recovering store mid-replay, which only attaches its WAL after the
    /// suffix has been reapplied. An append refused by a failed log latches
    /// into `wal_error`; the mutation itself stands (it is applied, just
    /// not durable), and every subsequent durability wait reports the loss.
    fn wal_log(&self, kind: u8, key: &K, value: Option<&V>) {
        let Some(wal) = self.store.inner.wal.get() else { return };
        let payload = crate::walrec::encode::<K, V>(kind, key, value);
        match wal.append(&payload) {
            Ok(lsn) => self.wal_lsn.set(lsn),
            Err(e) => self.wal_failed(e),
        }
    }

    /// A WAL failure is sticky (no group will ever ack again): per-op
    /// durability is gone for good, so the store degrades to read-only and
    /// the session latches the error for every later durability wait.
    fn wal_failed(&self, e: faster_storage::IoError) {
        self.store.inner.health.to_read_only(HealthReason::WalFailed);
        self.wal_error.borrow_mut().get_or_insert(e);
    }

    /// Blocks until every mutation this session has issued is group-commit
    /// durable in the WAL — the blocking wrapper over the notice primitive
    /// ([`Session::notify_wal_durable`]). `Err` means some mutation was
    /// **never acked** — either its append was refused or its group's flush
    /// barrier failed; the error is sticky (the WAL refuses all further
    /// commits). Immediately `Ok` on stores without a WAL.
    pub fn wait_wal_durable(&self) -> Result<(), faster_storage::IoError> {
        if let Some(e) = self.wal_error.borrow().as_ref() {
            return Err(e.clone());
        }
        let Some(wal) = self.store.inner.wal.get() else { return Ok(()) };
        wal.wait_durable(self.wal_lsn.get()).inspect_err(|e| self.wal_failed(e.clone()))
    }

    /// Registers a ring-routed durability notice for everything this session
    /// has appended (DESIGN.md §10 follow-on): when the WAL group covering
    /// this session's last append commits (or the log fails), a CQE bearing
    /// the returned id lands in this session's completion ring — the same
    /// ring `complete_pending` reaps — so a pipelined caller can park once
    /// for disk reads *and* durability acks. Returns `None` when there is
    /// nothing to wait for (no WAL, or no append yet). Resolve the notice
    /// with [`Session::take_wal_notice`] after a `complete_pending` pass.
    pub fn notify_wal_durable(&self) -> Option<u64> {
        let wal = self.store.inner.wal.get()?;
        if self.wal_lsn.get() == 0 {
            return None;
        }
        let id = self.fresh_id();
        self.wal_notices.borrow_mut().insert(id);
        wal.notify_durable(self.wal_lsn.get(), id, &self.ring);
        Some(id)
    }

    /// Takes the resolved result of a durability notice registered with
    /// [`Session::notify_wal_durable`], if a `complete_pending` pass has
    /// reaped its CQE. `None` = still in flight.
    pub fn take_wal_notice(&self, id: u64) -> Option<Result<(), faster_storage::IoError>> {
        self.wal_notice_results.borrow_mut().remove(&id)
    }

    /// Installs `waker` as the ring's push hook: every CQE pushed into this
    /// session's completion ring (I/O completions, WAL durability notices)
    /// invokes it. A front-end points this at a self-pipe/eventfd so one
    /// `poll` park covers ring CQEs *and* socket readiness.
    pub fn set_io_waker(&self, waker: impl Fn() + Send + Sync + 'static) {
        self.ring.set_waker(waker);
    }

    /// Removes the hook installed by [`Session::set_io_waker`].
    pub fn clear_io_waker(&self) {
        self.ring.clear_waker();
    }

    // ============================================================= PUBLISH

    /// The one record-publish step of every append-then-CAS site (Alg 3/4
    /// CREATE_RECORD, deletes, WAL replay, compaction): appends a record for
    /// `key` at the tail, linked to the key's *primary-log* predecessor,
    /// lets `fill` write its value, and publishes it through `link`. On a
    /// lost CAS the record is invalidated, its bytes count as dead, and the
    /// result is `None`: the caller re-probes and retries. So it is when the
    /// chain head is a cache record the cache has just evicted (nothing is
    /// appended then): its primary predecessor is out of reach until the
    /// eviction hook restores the entry, and the hook waits for this
    /// session's epoch refresh, which this step performs.
    pub(crate) fn publish(
        &self,
        link: Link<'_>,
        key: &K,
        bits: u64,
        fill: impl FnOnce(&mut V),
    ) -> Option<RecordRef<K, V>> {
        let log = &self.store.inner.log;
        let prev = match &link {
            Link::Swap(_, entry) => self.chain_prev_for_new_record(entry.address()),
            Link::Fresh(_) => Some(Address::INVALID),
        };
        let Some(prev) = prev else {
            self.refresh();
            return None;
        };
        let addr = log.allocate(RecordRef::<K, V>::size() as u32, &self.guard);
        let p = log.get(addr).expect("fresh tail allocation is resident");
        // Safety: exclusive until published via the index.
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.init_header(RecordHeader::new(prev).with(bits));
        rec.init_key(key);
        fill(unsafe { rec.value_mut() });
        match link {
            Link::Swap(slot, entry) => {
                if slot.cas_address(entry, addr).is_err() {
                    rec.set_bits(INVALID_BIT);
                    self.note_dead(1);
                    return None;
                }
            }
            Link::Fresh(created) => {
                created.finalize(addr);
            }
        }
        Some(rec)
    }

    /// The `prev` pointer a new tail record should carry when the current
    /// chain head is `head`: tagged read-cache heads are spliced out
    /// (replaced by the primary address the cache record points at), since
    /// cache addresses are volatile and must never persist in record
    /// headers (Appendix D). `None` when `head` is a cache record already
    /// below the cache's head (evicted; the hook is restoring the entry).
    pub(crate) fn chain_prev_for_new_record(&self, head: Address) -> Option<Address> {
        if !is_rc(head) {
            return Some(head);
        }
        let p = self.store.inner.rc.as_ref()?.get(rc_untag(head))?;
        // Safety: epoch-protected resident cache record.
        Some(unsafe { RecordRef::<K, V>::from_raw(p) }.header().prev())
    }

    /// Publishes a full value for `key` (an RCU copy when `rcu`, else a
    /// fresh or re-created record), counts it and logs its post-image.
    /// Returns false if the CAS lost (caller retries).
    fn put(&self, link: Link<'_>, key: &K, rcu: bool, fill: impl FnOnce(&mut V)) -> bool {
        let Some(rec) = self.publish(link, key, 0, fill) else { return false };
        if rcu {
            self.count_write(&self.rec.rcu);
            self.note_dead(1);
        } else {
            self.count_write(&self.rec.appends);
        }
        self.wal_log(crate::walrec::KIND_PUT, key, Some(&rec.read_value()));
        true
    }

    // ============================================================== UPSERT

    /// Blind update (Algorithm 3): in-place if the record is in the mutable
    /// region, otherwise a new record at the tail. Never goes pending
    /// (Table 2: blind updates need no old value). Fallible by default:
    /// refuses with [`OpError::ReadOnly`] once the store has degraded —
    /// a mutation the store can no longer make durable should not be
    /// silently accepted.
    pub fn upsert(&self, key: &K, value: &V) -> OpResult<F::Output> {
        self.scalar(Op::Upsert { key, value }, &self.hub.upsert_latency)
    }

    /// Algorithm 3 body.
    fn upsert_internal(&self, key: &K, hash: KeyHash, value: &V) {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let (link, rcu) = match inner.index.find_or_create_tag(hash, Some(&self.guard)) {
                CreateOutcome::Created(created) => (Link::Fresh(created), false),
                CreateOutcome::Found(slot) => {
                    let entry = slot.load();
                    // Cache records are never updated in place: the RCU
                    // below splices the cache copy out. Trace only the
                    // mutable suffix: anything deeper gets shadowed by the
                    // new tail record anyway.
                    let found = if is_rc(entry.address()) {
                        None
                    } else {
                        self.find_in_memory_above(key, entry.address(), inner.log.ipu_boundary())
                    };
                    if let Some((_, p)) = found {
                        // Safety: resident above this guard's read-only boundary.
                        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                        if !rec.header().is_tombstone() && !rec.header().is_delta() {
                            f.concurrent_writer(key, value, rec.value_cell());
                            self.count_write(&self.rec.in_place);
                            // Post-image read may interleave with a racing
                            // writer of the same cell; the WAL then orders
                            // the two racers arbitrarily, exactly as racy as
                            // the in-place update itself (DESIGN.md §10).
                            self.wal_log(crate::walrec::KIND_PUT, key, Some(&rec.read_value()));
                            return;
                        }
                    }
                    (Link::Swap(slot, entry), true)
                }
            };
            // RCU (or insert): new record at the tail, linked to the old chain.
            if self.put(link, key, rcu, |v| f.single_writer(key, value, v)) {
                return;
            }
            // Alg 3 line 19: retry.
        }
    }

    // ================================================================= RMW

    /// Read-modify-write (Algorithm 4 + Table 2). May return
    /// [`OpError::Pending`] for disk-resident records or fuzzy-region hits,
    /// and refuses with [`OpError::ReadOnly`] on a degraded store.
    pub fn rmw(&self, key: &K, input: &F::Input) -> OpResult<F::Output> {
        self.scalar(Op::Rmw { key, input }, &self.hub.rmw_latency)
    }

    fn rmw_internal(
        &self,
        key: &K,
        hash: KeyHash,
        input: &F::Input,
        reuse_id: Option<u64>,
    ) -> OpResult<F::Output> {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let slot = match inner.index.find_or_create_tag(hash, Some(&self.guard)) {
                CreateOutcome::Found(slot) => slot,
                CreateOutcome::Created(created) => {
                    self.rcu_create(Link::Fresh(created), key, input, None);
                    return Ok(Outcome::Done);
                }
            };
            let entry = slot.load();
            let chain_head = if is_rc(entry.address()) {
                // Cache hit for RMW: the old value is right here — no I/O
                // needed. Write the updated primary record.
                let Some(p) = inner.rc.as_ref().and_then(|rc| rc.get(rc_untag(entry.address()))) else {
                    // Evicted: let the hook restore the entry.
                    self.refresh();
                    continue;
                };
                // Safety: epoch-protected resident cache record.
                let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                if rec.key() == *key {
                    let old = rec.read_value();
                    if self.rcu_create(Link::Swap(slot, entry), key, input, Some(old)) {
                        return Ok(Outcome::Done);
                    }
                    continue;
                }
                // Cached record is another key's: trace from its primary prev.
                rec.header().prev()
            } else {
                entry.address()
            };
            let head = inner.log.head_address();
            // Built only on the publishing paths, not on the in-place one.
            let link = move || Link::Swap(slot, entry);
            let applied = match self.find_in_memory_above(key, chain_head, head) {
                Some((laddr, p)) => {
                    // Safety: resident above this guard's head snapshot.
                    let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
                    let h = rec.header();
                    // Classify against the walk's head snapshot: a flush
                    // completion may have pushed the live head past `laddr`
                    // since, but its frame stays mapped until this guard
                    // refreshes.
                    match inner.log.classify_with_head(laddr, head) {
                        // Deleted: re-create from the initial value.
                        _ if h.is_tombstone() => self.rcu_create(link(), key, input, None),
                        Region::Mutable => {
                            f.in_place_updater(key, input, rec.value_cell());
                            self.count_write(&self.rec.in_place);
                            self.wal_log(crate::walrec::KIND_PUT, key, Some(&rec.read_value()));
                            return Ok(Outcome::Done);
                        }
                        // CRDT: append a delta (§6.3).
                        Region::Fuzzy if f.is_mergeable() => self.append_delta(link(), key, input),
                        Region::Fuzzy => {
                            // Defer: pending list, retried later.
                            self.rec.fuzzy_pending.inc();
                            let op = self.pending_op(PendingKind::Rmw, key, hash, input, reuse_id);
                            let id = op.id;
                            self.outstanding.set(self.outstanding.get() + 1);
                            self.retries.borrow_mut().push_back(op);
                            return Err(OpError::Pending(id));
                        }
                        // RCU of a delta would double-count: append a fresh
                        // delta instead.
                        Region::ReadOnly if h.is_delta() => self.append_delta(link(), key, input),
                        // Copy to tail with the updated value.
                        Region::ReadOnly => self.rcu_create(link(), key, input, Some(rec.read_value())),
                        Region::OnDisk => unreachable!("found at or above the head snapshot"),
                    }
                }
                // Not in memory: the chain either continues on disk or ends.
                None => match self.first_below(key, chain_head, head) {
                    // CRDT: no need to read the old value.
                    Some(_) if f.is_mergeable() => self.append_delta(link(), key, input),
                    Some(daddr) => {
                        let op = PendingOp {
                            read_addr: daddr,
                            entry_addr: entry.address(),
                            ..self.pending_op(PendingKind::Rmw, key, hash, input, reuse_id)
                        };
                        return Err(OpError::Pending(self.issue_io(op)));
                    }
                    // Absent: create from the initial value.
                    None => self.rcu_create(link(), key, input, None),
                },
            };
            if applied {
                return Ok(Outcome::Done);
            }
        }
    }

    /// Creates the RCU/initial record and publishes it (Alg 4
    /// CREATE_RECORD). Returns false if the CAS lost (caller retries).
    fn rcu_create(&self, link: Link<'_>, key: &K, input: &F::Input, old: Option<V>) -> bool {
        let f = &self.store.inner.functions;
        // With an old value this is a read-copy-update; without one it
        // (re-)creates the key from the initial value.
        self.put(link, key, old.is_some(), |v| match &old {
            Some(old) => f.copy_updater(key, input, old, v),
            None => f.initial_updater(key, input, v),
        })
    }

    /// Creates a CRDT delta record (partial value from the identity) at the
    /// tail (§6.3).
    fn append_delta(&self, link: Link<'_>, key: &K, input: &F::Input) -> bool {
        let f = &self.store.inner.functions;
        let filled = self.publish(link, key, DELTA_BIT, |v| f.copy_updater(key, input, &f.identity(), v));
        let Some(rec) = filled else { return false };
        self.count_write(&self.rec.appends);
        self.rec.deltas.inc();
        // The delta record is exclusively ours (fresh tail record), so the
        // logged partial is exact.
        self.wal_log(crate::walrec::KIND_DELTA, key, Some(&rec.read_value()));
        true
    }

    // ============================================================== DELETE

    /// Deletes `key` by appending a tombstone record (§5.3). Log GC reclaims
    /// the space (Appendix C). Deleting an absent key is still `Done`;
    /// refuses with [`OpError::ReadOnly`] on a degraded store.
    pub fn delete(&self, key: &K) -> OpResult<F::Output> {
        self.scalar(Op::Delete { key }, &self.hub.delete_latency)
    }

    /// Tombstone append.
    fn delete_internal(&self, key: &K, hash: KeyHash) {
        let inner = &self.store.inner;
        // No entry: nothing to delete.
        while let Some(slot) = inner.index.find_tag(hash, Some(&self.guard)) {
            let entry = slot.load();
            let a = entry.address();
            if !is_rc(a) && (!a.is_valid() || a < inner.log.begin_address()) {
                // GC'd chain: drop the dangling entry (Appendix C).
                let _ = slot.cas_delete(entry);
                return;
            }
            // Tombstones carry no value; zeroed frame bytes suffice.
            if self.publish(Link::Swap(slot, entry), key, TOMBSTONE_BIT, |_| ()).is_some() {
                self.count_write(&self.rec.appends);
                // The shadowed version plus the tombstone itself are both
                // reclaimable by compaction.
                self.note_dead(2);
                self.wal_log(crate::walrec::KIND_DELETE, key, None);
                return;
            }
        }
    }

    // =============================================================== BATCH
    //
    // Batched issue (DESIGN.md §3 "Batched execution & prefetching"): the
    // scalar hot path pays a serial dependent-load chain per operation —
    // hash → bucket probe → record dereference — so each op stalls on two
    // DRAM round-trips. The batched entry points run that chain as a
    // MICA-style software pipeline over the whole batch: hash every key and
    // prefetch every target bucket, then (reads) probe every bucket and
    // prefetch every resolved record, then execute. The loads of one stage
    // are independent across ops, so their cache misses overlap up to the
    // memory-level parallelism of the core instead of serializing.
    //
    // Semantics are identical to issuing the ops sequentially on this
    // session: each op runs through the same `dispatch` as a scalar call,
    // one at a time in submission order, in the final stage; the earlier
    // stages are pure hints plus an index probe that the execute stage
    // re-validates exactly the way the scalar path does. Epoch refresh is
    // amortized to once per batch, which is also the natural cadence for
    // draining I/O completions ([`Session::complete_pending`] once per
    // batch, not once per op).

    /// Pipeline stage 1 for one key: hash it and prefetch its bucket.
    #[inline]
    fn hash_and_prefetch(&self, key: &K) -> KeyHash {
        let h = hash_key(key);
        self.store.inner.index.prefetch_bucket(h);
        h
    }

    /// Reads a batch of keys with one shared `input`, returning one result
    /// per key in order. Equivalent to calling [`Session::read`] per key;
    /// pending results complete through [`Session::complete_pending`].
    pub fn read_batch(&self, keys: &[K], input: &F::Input) -> Vec<OpResult<F::Output>> {
        let inner = &self.store.inner;
        self.rec.batches.inc();
        let hashes: Vec<KeyHash> = keys.iter().map(|key| self.hash_and_prefetch(key)).collect();
        // Stage 2: probe the (now arriving) buckets; prefetch each resolved
        // chain head so the record lines are in flight before stage 3.
        let heads: Vec<Address> = hashes
            .iter()
            .map(|&hash| {
                let head = self.chain_head(hash);
                if is_rc(head) {
                    if let Some(rc_log) = inner.rc.as_ref() {
                        rc_log.prefetch(rc_untag(head));
                    }
                } else if head.is_valid() {
                    inner.log.prefetch(head);
                }
                head
            })
            .collect();
        // Stage 3: execute in submission order — the same walk as scalar
        // `read`, resumed from the already-probed chain head.
        let out = keys
            .iter()
            .zip(hashes.iter().zip(&heads))
            .map(|(key, (&hash, &head))| self.dispatch(Op::Read { key, input, head: Some(head) }, hash))
            .collect();
        self.batch_tick(keys.len());
        out
    }

    /// Executes a heterogeneous batch, returning one [`OpResult`] per op in
    /// submission order. Equivalent to issuing each op individually: reads
    /// yield `Value`/`NotFound`/`Pending`, mutations yield `Done` (or
    /// `Pending` for an RMW that went asynchronous). On a read-only store
    /// the reads still execute; every mutation slot is `Err(ReadOnly)` —
    /// exactly what a protocol front-end needs to keep serving GETs while
    /// SETs bounce (DESIGN.md §12/§13).
    pub fn execute_batch(&self, ops: &[BatchOp<K, V, F::Input>]) -> Vec<OpResult<F::Output>> {
        self.rec.batches.inc();
        let hashes: Vec<KeyHash> = ops.iter().map(|op| self.hash_and_prefetch(op.op().key())).collect();
        let out = ops.iter().zip(hashes).map(|(op, hash)| self.dispatch(op.op(), hash)).collect();
        self.batch_tick(ops.len());
        out
    }

    /// Returns up to `limit` historical versions of `key`, newest first, by
    /// walking the record chain across memory and storage (Appendix F:
    /// "query historical values of a given key (since our record versions
    /// are linked in the log)"). Deltas fold into the next older base
    /// version; a tombstone ends the history. Storage hops block — this is
    /// an analytics path, not an operation path.
    pub fn read_history(&self, key: &K, limit: usize) -> Vec<V> {
        let inner = &self.store.inner;
        let f = &inner.functions;
        let mut out = Vec::new();
        let mut walk = ChainWalk::new();
        let mut addr = loop {
            match self.chain_prev_for_new_record(self.chain_head(hash_key(key))) {
                Some(head) => break head,
                None => self.refresh(), // an evicted cache head: let the hook restore it
            }
        };
        while out.len() < limit {
            let Some(next) = walk.resume(addr, inner.log.begin_address()) else { break };
            let Some(rec) = self.store.fetch_record_blocking(next) else { break };
            addr = rec.header().prev();
            match walk.step(f, key, &rec) {
                Step::Next(_) => {}
                Step::Deleted => break,
                Step::Base => out.push(walk.fold_base(f, rec.value())),
            }
        }
        if out.len() < limit {
            out.extend(walk.finish(f, None));
        }
        out
    }

    // ============================================================ helpers

    /// Copies a cache record hit outside the cache's mutable region to the
    /// cache tail (second chance), re-pointing the index entry.
    fn rc_second_chance(&self, key: &K, hash: KeyHash, rec: &RecordRef<K, V>, tagged: Address) {
        let Some(rc_log) = self.store.inner.rc.as_ref() else { return };
        if rc_log.classify(rc_untag(tagged)) == Region::Mutable {
            return; // young enough already
        }
        if self.rc_install(key, hash, tagged, rec.header().prev(), rec.read_value()) {
            self.store.inner.metrics.read_cache.promotions.inc();
        }
    }

    /// After a disk read served a key whose record is the chain head,
    /// inserts a copy into the read cache (Appendix D read path). Only chain
    /// heads are cached: anything else would hide newer records of other
    /// keys.
    fn try_cache_insert(&self, key: &K, hash: KeyHash, value: V, primary: Address) {
        if self.rc_install(key, hash, primary, primary, value) {
            self.store.inner.metrics.read_cache.inserts.inc();
        }
    }

    /// Appends a read-cache copy of `(key, value)` whose `prev` is the
    /// primary record `primary`, and swings the index entry to it iff the
    /// entry still points at `expected`.
    fn rc_install(&self, key: &K, hash: KeyHash, expected: Address, primary: Address, value: V) -> bool {
        let inner = &self.store.inner;
        let Some(rc_log) = inner.rc.as_ref() else { return false };
        let Some(slot) = inner.index.find_tag(hash, Some(&self.guard)) else { return false };
        let cur = slot.load();
        if cur.address() != expected {
            return false; // chain moved on
        }
        let addr = rc_log.allocate(RecordRef::<K, V>::size() as u32, &self.guard);
        let p = rc_log.get(addr).expect("fresh cache allocation resident");
        // Safety: exclusive until published via the index.
        let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
        rec.init_header(RecordHeader::new(primary));
        rec.init_key(key);
        unsafe { *rec.value_mut() = value };
        slot.cas_address(cur, rc_tag(addr)).is_ok()
    }

    /// Walks the in-memory chain from `from`, returning the first record
    /// matching `key` at an address `>= floor`, with its pointer. Merge
    /// records are followed (both prongs are at/below the disk boundary by
    /// construction). `floor` is a region boundary loaded under this
    /// session's guard, so residency is judged against it, not the live
    /// head: a record found here stays readable until the next refresh.
    fn find_in_memory_above(&self, key: &K, from: Address, floor: Address) -> Option<(Address, *mut u8)> {
        let inner = &self.store.inner;
        let mut addr = from;
        while addr.is_valid() && addr >= floor && addr >= inner.log.begin_address() {
            let p = inner.log.get_with_head(addr, floor)?;
            let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
            let h = rec.header();
            if !h.is_invalid() && !h.is_merge() && rec.key() == *key {
                return Some((addr, p));
            }
            addr = h.prev();
        }
        None
    }

    /// Walks the in-memory chain and returns the first address *below*
    /// `floor` (the disk continuation), if the in-memory prefix did not
    /// already contain `key`.
    fn first_below(&self, key: &K, from: Address, floor: Address) -> Option<Address> {
        let inner = &self.store.inner;
        let begin = inner.log.begin_address();
        let mut addr = from;
        while addr.is_valid() {
            if addr < begin {
                return None; // truncated by GC: treat as chain end
            }
            if addr < floor {
                return Some(addr);
            }
            let Some(p) = inner.log.get_with_head(addr, floor) else { return Some(addr) };
            let rec = unsafe { RecordRef::<K, V>::from_raw(p) };
            let h = rec.header();
            debug_assert!(h.is_invalid() || h.is_merge() || rec.key() != *key);
            addr = h.prev();
        }
        None
    }

    // ================================================== pending completion

    /// Processes completed asynchronous operations and fuzzy retries,
    /// returning finished [`Completion`]s. With `wait`, blocks until nothing
    /// is outstanding — parked on the completion ring, not spinning — and
    /// then until this session's WAL appends are group-commit durable (a
    /// failed WAL returns at once; the loss surfaces through
    /// [`Session::wait_wal_durable`], which keeps erroring).
    ///
    /// Each pass: run fuzzy retries, hand every queued SQE to the device in
    /// one `submit_all` batch, reap CQEs straight off the ring, and resume
    /// each continuation by id. Continuations that hop further down a chain
    /// queue fresh SQEs, which go out before the pass parks — the device is
    /// never idle while the session waits.
    pub fn complete_pending(&self, wait: bool) -> Vec<Completion<F::Output>> {
        let mut done = Vec::new();
        // Nothing outstanding means nothing queued, parked or in flight
        // (every counted op is one of those), and no WAL durability notice
        // waiting for its CQE: then `wait` must not touch the ring or the
        // epoch.
        let idle = self.outstanding.get() == 0 && self.wal_notices.borrow().is_empty();
        debug_assert!(!idle || (self.sq.borrow().is_empty() && self.pending.borrow().is_empty()));
        if !idle {
            loop {
                // Fuzzy retries: by the time we're called again, the offending
                // address is usually below safe-read-only and takes the RCU path.
                let n_retries = self.retries.borrow().len();
                for _ in 0..n_retries {
                    let op = { self.retries.borrow_mut().pop_front() }.expect("len checked");
                    self.dec_outstanding();
                    // An `Err` re-queued it under the same id.
                    if self.rmw_internal(&op.key, op.hash, &op.input, Some(op.id)).is_ok() {
                        done.push(Completion { id: op.id, result: Ok(Outcome::Done) });
                    }
                }
                // Batched doorbell, then reap whatever has completed so far.
                self.submit_queued();
                self.reap_and_run(&mut done);
                // Continuations may have queued follow-up SQEs (next chain hop,
                // transient retry): submit them before deciding to park.
                self.submit_queued();
                if !wait || self.outstanding.get() == 0 {
                    break;
                }
                // Waiting on the device: refresh (epoch triggers must keep
                // firing — our own I/O may be gated behind a flush), then park
                // on the ring's condvar until a CQE lands or the bounded
                // timeout forces another maintenance pass. No backoff spinning.
                self.refresh();
                self.ring.wait_nonempty(RING_WAIT);
            }
        }
        if wait {
            let _ = self.wait_wal_durable();
        }
        done
    }

    /// Hands every locally queued SQE to the device in one batch, sampling
    /// the in-flight depth the batch tops up to.
    fn submit_queued(&self) {
        let mut sq = self.sq.borrow_mut();
        if sq.is_empty() {
            return;
        }
        self.hub.io_depth.record(self.outstanding.get() as u64);
        self.store.inner.log.device().submit_all(&mut sq);
    }

    /// Reaps every published CQE and resumes the continuation each one
    /// keys.
    fn reap_and_run(&self, done: &mut Vec<Completion<F::Output>>) {
        let mut cqes = std::mem::take(&mut *self.io_scratch.borrow_mut());
        self.ring.reap(&mut cqes);
        for cqe in cqes.drain(..) {
            // WAL durability notices share the ring but not the continuation
            // table (they are acks, not I/O): route them to their own slot.
            if self.wal_notices.borrow_mut().remove(&cqe.id) {
                let r = cqe.result.map(|_| ());
                if let Err(e) = &r {
                    self.wal_failed(e.clone());
                }
                self.wal_notice_results.borrow_mut().insert(cqe.id, r);
                continue;
            }
            // Scope the table borrow: continuations re-enter `issue_io`.
            let parked = self.pending.borrow_mut().remove(&cqe.id);
            let Some(Parked { mut op, issued, span }) = parked else {
                debug_assert!(false, "CQE {} has no parked continuation", cqe.id);
                continue;
            };
            self.dec_outstanding();
            self.rec.io_completed.inc();
            let log = &self.store.inner.log;
            // The reaper owns the completed half of the hlog read identity
            // (`make_read_sqe` counted the issue).
            log.metrics().reads_completed.inc();
            self.hub.io_latency.record(issued.elapsed().as_nanos() as u64);
            let verified = cqe.result.map(|bytes| match &span {
                Some(s) => log.verify_extract(s, bytes),
                None => Ok(bytes),
            });
            match verified {
                Ok(Ok(bytes)) => self.continue_io(op, bytes, done),
                // Transient device error: the record may well still be
                // durable, so answering "key absent" here would fabricate a
                // loss (and, for RMW, reset the value). Retry the same read
                // with bounded backoff.
                Err(faster_storage::IoError::Failed(_)) if op.attempts < MAX_IO_RETRIES => {
                    op.attempts += 1;
                    self.rec.io_retries.inc();
                    let mut pause = faster_util::Backoff::new();
                    for _ in 0..op.attempts {
                        pause.snooze();
                    }
                    self.issue_io(op);
                }
                // Checksum mismatch or short read, a quarantined page (the
                // fault hook has already degraded the store), or an
                // exhausted retry budget: never hand suspect bytes to the
                // continuation and never answer "key absent" — the record
                // may exist, we just cannot prove what it held. A distinct
                // failure that mutates nothing.
                Ok(Err(err))
                | Err(err @ (faster_storage::IoError::Corrupt { .. } | faster_storage::IoError::Failed(_))) => {
                    self.rec.io_failed.inc();
                    done.push(Completion { id: op.id, result: Err(OpError::Io(err)) });
                }
                // Truncated (log GC) or out-of-range: the record is
                // genuinely gone — this prong of the chain ends here.
                Err(_) => self.continue_io(op, Vec::new(), done),
            }
        }
        // Hand the drain buffer back for reuse, shrinking a burst-sized
        // buffer so one deep drain doesn't pin its high-water capacity.
        if cqes.capacity() > IO_SCRATCH_MAX {
            cqes.shrink_to(IO_SCRATCH_MAX);
        }
        *self.io_scratch.borrow_mut() = cqes;
    }

    /// Continues a pending op with the record bytes read from storage: one
    /// chain-walk step, then either another hop or the op's end. Empty or
    /// unparsable bytes (padding, a truncated record) end this prong.
    fn continue_io(&self, mut op: PendingOp<K, V, F::Input>, bytes: Vec<u8>, done: &mut Vec<Completion<F::Output>>) {
        let f = &self.store.inner.functions;
        let rec = RecordBytes::<_, K, V>::parse(bytes);
        let step = match &rec {
            Some(r) => op.walk.step(f, &op.key, r),
            None => Step::Next(Address::INVALID),
        };
        let base = match step {
            Step::Next(next) => match op.walk.resume(next, self.store.inner.log.begin_address()) {
                Some(next) => return self.hop(op, next, done),
                None => None,
            },
            Step::Deleted => None,
            Step::Base => rec.map(|r| r.value()),
        };
        if let (PendingKind::Read, Some(v), None) = (op.kind, base, &op.walk.acc) {
            // Appendix D: populate the read cache when the record read is
            // still the chain head.
            self.try_cache_insert(&op.key, op.hash, v, op.read_addr);
        }
        let value = std::mem::replace(&mut op.walk, ChainWalk::new()).finish(f, base);
        match op.kind {
            PendingKind::Read => {
                let result = self.output(&op.key, &op.input, value);
                done.push(Completion { id: op.id, result });
            }
            PendingKind::Rmw => {
                if let Some(id) = self.rmw_complete(op, value) {
                    done.push(Completion { id, result: Ok(Outcome::Done) });
                }
            }
        }
    }

    /// Takes a pending op one hop further down its chain, to `next`.
    fn hop(&self, mut op: PendingOp<K, V, F::Input>, next: Address, done: &mut Vec<Completion<F::Output>>) {
        match op.kind {
            PendingKind::Read => {
                // Resume the walk (usually another disk hop; may also climb
                // back into memory after a merge-record fallback).
                let walk = std::mem::replace(&mut op.walk, ChainWalk::new());
                let r = self.read_internal(&op.key, op.hash, &op.input, next, walk, Some(op.id));
                if !matches!(r, Err(OpError::Pending(_))) {
                    done.push(Completion { id: op.id, result: r });
                }
            }
            PendingKind::Rmw => {
                // Fresh address, fresh transient-retry budget.
                op.read_addr = next;
                op.attempts = 0;
                self.issue_io(op);
            }
        }
    }

    /// Applies a pending RMW's update once the old value (or its absence) is
    /// known. Returns the op id when complete, `None` if it went pending
    /// again (index changed underneath: full restart, Alg 4 line 32).
    fn rmw_complete(&self, op: PendingOp<K, V, F::Input>, old: Option<V>) -> Option<u64> {
        let inner = &self.store.inner;
        let applied = match Link::from(inner.index.find_or_create_tag(op.hash, Some(&self.guard))) {
            // The chain changed while we were reading: restart.
            Link::Swap(_, entry) if entry.address() != op.entry_addr => false,
            link @ Link::Swap(..) => self.rcu_create(link, &op.key, &op.input, old),
            // Entry vanished (deleted) meanwhile: fresh initial record.
            link @ Link::Fresh(_) => self.rcu_create(link, &op.key, &op.input, None),
        };
        if applied {
            return Some(op.id);
        }
        // An `Err` re-queued it pending under the same id.
        self.rmw_internal(&op.key, op.hash, &op.input, Some(op.id)).ok().map(|_| op.id)
    }

    // ========================================================== WAL replay

    /// Reapplies one decoded WAL record during recovery (DESIGN.md §10).
    /// Only runs on a store whose WAL is not yet attached (recovery wires
    /// the resumed log in after the suffix is replayed), so nothing here
    /// re-appends.
    pub(crate) fn replay_wal_op(&self, op: crate::walrec::WalOp<K, V>) {
        debug_assert!(self.store.inner.wal.get().is_none(), "WAL replay with a WAL attached");
        match op {
            crate::walrec::WalOp::Put { key, value } => self.replay(&key, &value, false),
            crate::walrec::WalOp::Delete { key } => self.delete_internal(&key, hash_key(&key)),
            crate::walrec::WalOp::Delta { key, partial } => self.replay(&key, &partial, true),
        }
        self.maybe_refresh();
    }

    /// Physical redo: appends a record holding exactly `value` — a full
    /// post-image, or with `delta` a CRDT partial atop the key's chain — no
    /// writer callbacks, the bytes already are what the original operation
    /// produced. Idempotent for post-images, so records double-covered by a
    /// fuzzy checkpoint converge to the same state. A partial whose chain
    /// is gone folds into a fresh full value (merge with the identity is
    /// exactly the partial's contribution).
    fn replay(&self, key: &K, value: &V, delta: bool) {
        let inner = &self.store.inner;
        let f = &inner.functions;
        loop {
            let link = Link::from(inner.index.find_or_create_tag(hash_key(key), Some(&self.guard)));
            let as_delta = delta && matches!(link, Link::Swap(..));
            let image = if delta && !as_delta { f.merge(&f.identity(), value) } else { *value };
            let bits = if as_delta { DELTA_BIT } else { 0 };
            if self.publish(link, key, bits, |v| *v = image).is_some() {
                self.count_write(&self.rec.appends);
                if as_delta {
                    self.rec.deltas.inc();
                }
                return;
            }
        }
    }
}

impl<K: Pod, V: Pod, F: Functions<K, V>> Drop for Session<K, V, F> {
    fn drop(&mut self) {
        // Outstanding I/O callbacks only touch the Arc'd queue; results for a
        // dropped session are simply discarded. The guard's Drop releases the
        // epoch slot (§2.5 Release). The recorder folds into the hub's
        // retired accumulator so store-wide totals survive session churn.
        self.hub.retire(&self.rec);
    }
}
