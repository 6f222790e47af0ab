//! `kv-rmw-zipf`: in process, two sessions on two threads issue scalar
//! `Session::rmw` on a `CountStore`, Zipf 0.99 over a dataset that sits in
//! the mutable region of the in-memory log. No WAL, no device reads: the
//! paper's 0:100 in-place update path (index probe, fetch-and-add, epoch
//! refresh).
//!
//! The 32 Ki keys (768 KiB of records) fit a core's L2, and each thread
//! owns alternate 64-key blocks, so the two threads never write the same
//! cache line. On a 2-vCPU guest of a shared host, a dataset spilling into
//! the shared L3, or hot counters bouncing between the vCPUs, made
//! throughput swing 2x from run to run with the host's placement; this
//! shape measures the CPU cost of the hot path instead.
//!
//! Oracle: the sum of all counters equals the load sum plus every RMW
//! input applied, checked on the live store and again on the store
//! recovered from the closing checkpoint.

use crate::layers::{self, Counters};
use crate::report::{self, Args, Policy, Report};
use crate::stats::{self, Sliced};
use crate::trace::{Span, Tracer};
use crate::{repeated, Absorb, OpStream, Store, SETUP_REPS, ZIPF_THETA};
use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager};
use faster_core::{CountStore, FasterKv, FasterKvConfig, OpError, Outcome};
use faster_hlog::HLogConfig;
use faster_storage::{Device, MemDevice};
use faster_ycsb::ZipfianGenerator;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 1 << 15;
const THREADS: usize = 2;
/// Keys per block; thread `t` owns the blocks `b` with `b % THREADS == t`.
const STRIPE: u64 = 64;
/// RMWs per latency sample.
const WINDOW: usize = 64;
/// Windows per `core.rmw` span: one span per 4096 RMWs keeps a traced
/// run's spans in the hundreds of thousands.
const SPAN_WINDOWS: u64 = 64;
/// Pregenerated keys per thread; the measured loop cycles through them.
const GEN_OPS: usize = 1 << 21;
/// Warm-up windows per thread, part of every setup.
const WARMUP_WINDOWS: u64 = 4096;

fn config() -> FasterKvConfig {
    FasterKvConfig::for_keys(KEYS).with_log(HLogConfig::default().with_mutable_fraction(0.9))
}

fn load_value(k: u64) -> u64 {
    k % 1000 + 1
}

/// Moves each key into the same position of the nearest block thread `t`
/// owns; the skew is kept, and `KEYS` is a multiple of `STRIPE * THREADS`.
fn stripe(keys: Vec<u64>, t: u64) -> Vec<u64> {
    let n = THREADS as u64;
    keys.into_iter()
        .map(|k| {
            let block = k / STRIPE;
            (block - block % n + t) * STRIPE + k % STRIPE
        })
        .collect()
}

/// RMW input for position `pos` of a key buffer.
fn input_at(pos: usize) -> u64 {
    (pos as u64 & 7) + 1
}

struct Setup {
    store: Store,
    log_dev: Arc<dyn Device>,
    ckpt_dev: Arc<dyn Device>,
    /// Sum of the store's counters the oracle expects.
    expected_sum: u64,
}

/// One thread's share of a phase.
struct Part {
    windows: u64,
    input_sum: u64,
    pending: u64,
    errors: Vec<String>,
    sliced: Sliced,
}

/// Runs RMW windows on a fresh session until `windows`, or until `secs`
/// after `start`.
fn drive(
    store: &Store,
    keys: &[u64],
    pos: usize,
    windows: u64,
    start: Instant,
    secs: Option<f64>,
    tracer: &mut Tracer,
) -> Part {
    let session = store.start_session();
    let deadline = secs.map(|s| start + Duration::from_secs_f64(s));
    let mask = keys.len() - 1;
    let mut pos = pos & mask;
    let mut p = Part {
        windows: 0,
        input_sum: 0,
        pending: 0,
        errors: Vec::new(),
        sliced: Sliced::new(secs),
    };
    let mut span_start = None;
    while p.windows < windows {
        let t0 = Instant::now();
        let span_t0 = *span_start.get_or_insert(t0);
        let mut pending = 0u64;
        for _ in 0..WINDOW {
            let (key, input) = (keys[pos], input_at(pos));
            pos = (pos + 1) & mask;
            match session.rmw(&key, &input) {
                Ok(_) => p.input_sum += input,
                Err(OpError::Pending(_)) => {
                    pending += 1;
                    p.input_sum += input;
                }
                Err(e) => p.errors.push(format!("rmw({key}) refused: {e}")),
            }
        }
        if pending > 0 {
            p.pending += pending;
            for c in session.complete_pending(true) {
                if let Err(e) = c.result {
                    p.errors.push(format!("pending rmw {} failed: {e}", c.id));
                }
            }
        }
        let t1 = Instant::now();
        p.sliced
            .record(t1 - start, WINDOW as u64, &[(t1 - t0).as_nanos() as u64]);
        p.windows += 1;
        let last = p.windows == windows || deadline.is_some_and(|d| t1 >= d);
        if last || p.windows.is_multiple_of(SPAN_WINDOWS) {
            tracer.record(Span {
                name: "core.rmw",
                start_ns: tracer.stamp(span_t0),
                end_ns: tracer.stamp(t1),
                parent: None,
                id: (p.windows - 1) / SPAN_WINDOWS,
            });
            span_start = None;
        }
        if last {
            break;
        }
    }
    p
}

/// Result of one measured phase across all threads.
#[derive(Default)]
struct Phase {
    ops: u64,
    secs: f64,
    sliced: Sliced,
}

impl Absorb for Phase {
    fn absorb(&mut self, other: Phase) {
        self.ops += other.ops;
        self.secs += other.secs;
        self.sliced.append(other.sliced);
    }
}

#[allow(clippy::too_many_arguments)]
fn phase(
    setup: &mut Setup,
    keys: &[Vec<u64>],
    pos: usize,
    windows: u64,
    secs: Option<f64>,
    tracer: &mut Tracer,
    traced: bool,
    r: &mut Report,
) -> Phase {
    let start = Instant::now();
    let store = &setup.store;
    let parts: Vec<(Part, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .iter()
            .map(|k| {
                let mut t = tracer.fork(traced);
                s.spawn(move || (drive(store, k, pos, windows, start, secs, &mut t), t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rmw thread panicked"))
            .collect()
    });
    let mut ph = Phase {
        ops: 0,
        secs: start.elapsed().as_secs_f64(),
        sliced: Sliced::new(secs),
    };
    for (p, t) in parts {
        ph.ops += p.windows * WINDOW as u64;
        ph.sliced.merge(p.sliced);
        setup.expected_sum += p.input_sum;
        r.attempted += p.windows * WINDOW as u64;
        for e in p.errors {
            r.fail(e);
        }
        if p.pending > 0 {
            r.note(format!("rmw: {} ops went pending", p.pending));
        }
        tracer.absorb(t);
    }
    ph
}

fn build(keys: &[Vec<u64>], tracer: &mut Tracer, r: &mut Report) -> Setup {
    let log_dev: Arc<dyn Device> = MemDevice::new(1);
    let ckpt_dev: Arc<dyn Device> = MemDevice::new(1);
    let store: Store = FasterKv::new(config(), CountStore, log_dev.clone());
    let mut expected_sum = 0u64;
    {
        let session = store.start_session();
        for k in 0..KEYS {
            let v = load_value(k);
            if let Err(e) = session.upsert(&k, &v) {
                r.fail(format!("load upsert({k}) refused: {e}"));
            }
            expected_sum += v;
        }
        session.complete_pending(true);
    }
    let mut setup = Setup {
        store,
        log_dev,
        ckpt_dev,
        expected_sum,
    };
    // Warm-up starts halfway through the key buffers, so the measured
    // phase does not replay it.
    phase(
        &mut setup,
        keys,
        GEN_OPS / 2,
        WARMUP_WINDOWS,
        None,
        tracer,
        false,
        r,
    );
    setup
}

/// Sums every counter through a session, in read batches.
fn sum_counters(store: &Store, r: &mut Report, what: &str) -> u64 {
    let session = store.start_session();
    let mut sum = 0u64;
    let keys: Vec<u64> = (0..KEYS).collect();
    for chunk in keys.chunks(256) {
        for (k, res) in chunk.iter().zip(session.read_batch(chunk, &0)) {
            match res {
                Ok(Outcome::Value(v)) => sum = sum.wrapping_add(v),
                Err(OpError::Pending(_)) => {}
                Ok(Outcome::Done) | Err(_) => r.fail(format!("{what}: read({k}) = {res:?}")),
            }
        }
        for c in session.complete_pending(true) {
            match c.result {
                Ok(Outcome::Value(v)) => sum = sum.wrapping_add(v),
                other => r.fail(format!("{what}: pending read {} = {other:?}", c.id)),
            }
        }
    }
    sum
}

pub fn run(args: &Args, tracer: &mut Tracer) -> (Report, Vec<String>) {
    let mut r = Report::default();
    let stamp = report::stamp(
        args,
        &Policy {
            transport: "in-process, 2 sessions on 2 threads, scalar Session::rmw",
            log: config().log,
            read_cache: None,
            wal_batch_window: None,
            devices: "log and checkpoint on zero-latency MemDevice (no device reads in the window)",
        },
    );
    let zipf = ZipfianGenerator::new(KEYS, ZIPF_THETA);
    let keys: Vec<Vec<u64>> = (0..THREADS as u64)
        .map(|t| {
            let span = tracer.open("ycsb", None, t);
            let mut ops = OpStream::new(&zipf, KEYS, 0, args.seed, t + 1);
            let keys = stripe((0..GEN_OPS).map(|_| ops.next_op().0).collect(), t);
            tracer.close(span);
            keys
        })
        .collect();
    let (mut setup, setup_times) = repeated(SETUP_REPS, || build(&keys, tracer, &mut r));
    r.set("setup_s", stats::median(&setup_times));
    r.note(format!("setup: {SETUP_REPS} setups of {KEYS} keys + {WARMUP_WINDOWS} warm-up windows/thread: {setup_times:?} s"));

    let devices = [setup.log_dev.clone(), setup.ckpt_dev.clone()];
    let window_start = layers::device_totals(&devices).bytes_written;
    let (measured, window_ops) = if args.trace {
        crate::ycsb_layer(&mut r, tracer, (GEN_OPS * THREADS) as u64);
        let mut pos = 0;
        let (untraced, traced, deltas) = crate::alternate(args.seconds, |secs, on| {
            let before = Counters::take(&setup.store.metrics(), &devices);
            let ph = phase(
                &mut setup,
                &keys,
                pos,
                u64::MAX,
                Some(secs),
                tracer,
                on,
                &mut r,
            );
            pos += ph.ops as usize / THREADS;
            (
                ph,
                before.until(&Counters::take(&setup.store.metrics(), &devices)),
            )
        });
        layers::counter_layers(&mut r, &deltas, traced.secs, traced.ops, 0);
        let spans = crate::trace::totals_by_name(tracer.spans());
        let rmw = spans.get("core.rmw").copied().unwrap_or_default();
        layers::put(
            &mut r,
            "core.rmw_ns_per_op",
            rmw.self_ns as f64,
            traced.ops as f64,
            "ops",
        );
        crate::overhead_layer(
            &mut r,
            untraced.ops as f64 / untraced.secs,
            traced.ops as f64 / traced.secs,
        );
        let ops = untraced.ops + traced.ops;
        (traced, ops)
    } else {
        let ph = phase(
            &mut setup,
            &keys,
            0,
            u64::MAX,
            Some(args.seconds),
            tracer,
            false,
            &mut r,
        );
        let ops = ph.ops;
        (ph, ops)
    };
    r.note(format!(
        "measured: {} ops in {:.3} s",
        measured.ops, measured.secs
    ));
    crate::end_to_end(
        &mut r,
        measured.sliced,
        &format!("latency per {WINDOW}-op window"),
    );
    // Oracle on the live store.
    let live = sum_counters(&setup.store, &mut r, "live");
    if live != setup.expected_sum {
        r.fail(format!(
            "live counter sum {live} != expected {}",
            setup.expected_sum
        ));
    }
    r.attempted += 1;

    let mgr = CheckpointManager::new(setup.ckpt_dev.clone(), CheckpointConfig::default());
    let ckpt_s = crate::closing_checkpoint(
        &mut r,
        tracer,
        &mgr,
        &setup.store,
        &devices,
        window_start,
        window_ops,
    );
    r.set("ckpt_manager.checkpoint_s", ckpt_s);
    drop(mgr);
    let Setup {
        store,
        log_dev,
        ckpt_dev,
        expected_sum,
    } = setup;
    drop(store);
    if let Some(store) = crate::recover_kv(&mut r, tracer, config(), &log_dev, &ckpt_dev) {
        let sum = sum_counters(&store, &mut r, "recovered");
        if sum != expected_sum {
            r.fail(format!(
                "recovered counter sum {sum} != expected {expected_sum}"
            ));
        }
    }
    r.attempted += 1;
    (r, stamp)
}
