//! `kv-cold-read`: in process, one session issues `execute_batch` windows
//! of 64 and drains them with `complete_pending`. 90% reads / 10% blind
//! upserts (Fig 10's R:BU shape), Zipf 0.99, over a dataset 12x the
//! HybridLog memory budget, with a read cache smaller than the hot set
//! and the log on an NVMe-model `MemDevice`.
//!
//! Oracle: every read returns the last value this session upserted for
//! the key as of the read's issue (a parked read resolves against the
//! record version current when it was issued); after recovery from the
//! closing checkpoint, a seeded sample of keys holds its last value.

use crate::layers::{self, Counters};
use crate::report::{self, Args, Policy, Report};
use crate::stats::{self, Sliced};
use crate::trace::{totals_by_name, Tracer};
use crate::{repeated, Absorb, OpStream, Store, SETUP_REPS, ZIPF_THETA};
use faster_core::ckpt_manager::{CheckpointConfig, CheckpointManager};
use faster_core::{BatchOp, CountStore, FasterKv, FasterKvConfig, OpError, OpResult, Outcome};
use faster_hlog::HLogConfig;
use faster_storage::{Device, LatencyModel, MemDevice};
use faster_ycsb::ZipfianGenerator;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 1 << 21;
/// Ops per `execute_batch` window.
const WINDOW: usize = 64;
/// Percent of ops that are blind upserts.
const UPSERT_PCT: u64 = 10;
/// Warm-up windows, part of every setup.
const WARMUP_WINDOWS: u64 = 2000;
/// Keys read back from the recovered store.
const RECOVERY_SAMPLE: usize = 4096;

/// 256 KiB pages x 16 frames = 4 MiB of log memory, 90% mutable; the
/// 2 Mi-key dataset (24-byte records, 48 MiB) is 12x that.
fn log_config() -> HLogConfig {
    HLogConfig {
        page_bits: 18,
        buffer_pages: 16,
        mutable_pages: 0,
        io_threads: 2,
    }
    .with_mutable_fraction(0.9)
}

/// 1 MiB read cache (about 43 K records), half of it second-chance.
fn cache_config() -> HLogConfig {
    HLogConfig {
        page_bits: 16,
        buffer_pages: 16,
        mutable_pages: 8,
        io_threads: 1,
    }
}

fn config() -> FasterKvConfig {
    FasterKvConfig::for_keys(KEYS)
        .with_log(log_config())
        .with_read_cache(cache_config())
}

fn load_value(k: u64) -> u64 {
    k.wrapping_mul(7) + 3
}

struct Setup {
    store: Store,
    log_dev: Arc<dyn Device>,
    ckpt_dev: Arc<dyn Device>,
    /// Last value written per key: the oracle.
    expected: Vec<u64>,
    next_value: u64,
}

/// Totals of one phase.
#[derive(Default)]
struct Phase {
    ops: u64,
    sets: u64,
    pending: u64,
    windows: u64,
    secs: f64,
    sliced: Sliced,
}

impl Absorb for Phase {
    fn absorb(&mut self, other: Phase) {
        self.ops += other.ops;
        self.sets += other.sets;
        self.pending += other.pending;
        self.windows += other.windows;
        self.secs += other.secs;
        self.sliced.append(other.sliced);
    }
}

fn check(r: &mut Report, got: OpResult<u64>, want: Option<u64>, key: u64) {
    match (got, want) {
        (Ok(Outcome::Value(v)), Some(w)) if v == w => {}
        (Ok(Outcome::Done), None) => {}
        (got, want) => r.fail(format!("key {key}: got {got:?}, expected {want:?}")),
    }
}

/// Runs windows drawn from `ops` until `windows`, or for `secs`.
fn phase(
    s: &mut Setup,
    ops: &mut OpStream,
    windows: u64,
    secs: Option<f64>,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let session = s.store.start_session();
    let mut ph = Phase {
        sliced: Sliced::new(secs),
        ..Phase::default()
    };
    let mut batch = Vec::with_capacity(WINDOW);
    let mut want: Vec<(u64, Option<u64>)> = Vec::with_capacity(WINDOW);
    let mut parked: HashMap<u64, (u64, Option<u64>)> = HashMap::new();
    let begin = Instant::now();
    let deadline = secs.map(|x| begin + Duration::from_secs_f64(x));
    while ph.windows < windows {
        let id = ph.windows;
        let root = tracer.open("client.window", None, id);
        let gen = tracer.open("ycsb", Some(root), id);
        batch.clear();
        want.clear();
        for _ in 0..WINDOW {
            let (key, upsert) = ops.next_op();
            if upsert {
                let value = s.next_value;
                s.next_value += 1;
                s.expected[key as usize] = value;
                batch.push(BatchOp::Upsert { key, value });
                want.push((key, None));
                ph.sets += 1;
            } else {
                batch.push(BatchOp::Read { key, input: 0 });
                want.push((key, Some(s.expected[key as usize])));
            }
        }
        tracer.close(gen);
        let t0 = Instant::now();
        let span = tracer.open("core.execute_batch", Some(root), id);
        let results = session.execute_batch(&batch);
        tracer.close(span);
        for (res, &(key, w)) in results.into_iter().zip(want.iter()) {
            match res {
                Err(OpError::Pending(pid)) => {
                    parked.insert(pid, (key, w));
                    ph.pending += 1;
                }
                res => check(r, res, w, key),
            }
        }
        while !parked.is_empty() {
            let span = tracer.open("core.complete_pending", Some(root), id);
            let done = session.complete_pending(true);
            tracer.close(span);
            for c in done {
                match parked.remove(&c.id) {
                    Some((key, w)) => check(r, c.result, w, key),
                    None => r.fail(format!("completion for unknown id {}", c.id)),
                }
            }
        }
        let t1 = Instant::now();
        tracer.close(root);
        ph.sliced
            .record(t1 - begin, WINDOW as u64, &[(t1 - t0).as_nanos() as u64]);
        ph.windows += 1;
        ph.ops += WINDOW as u64;
        if deadline.is_some_and(|d| t1 >= d) {
            break;
        }
    }
    ph.secs = begin.elapsed().as_secs_f64();
    r.attempted += ph.ops;
    ph
}

fn build(zipf: &ZipfianGenerator, seed: u64, r: &mut Report) -> Setup {
    let log_dev: Arc<dyn Device> = MemDevice::with_latency(2, LatencyModel::nvme());
    let ckpt_dev: Arc<dyn Device> = MemDevice::with_latency(1, LatencyModel::nvme());
    let store: Store = FasterKv::new(config(), CountStore, log_dev.clone());
    let expected: Vec<u64> = (0..KEYS).map(load_value).collect();
    {
        let session = store.start_session();
        for k in 0..KEYS {
            if let Err(e) = session.upsert(&k, &expected[k as usize]) {
                r.fail(format!("load upsert({k}) refused: {e}"));
            }
        }
        session.complete_pending(true);
    }
    let mut s = Setup {
        store,
        log_dev,
        ckpt_dev,
        expected,
        next_value: 1 << 40,
    };
    let mut warmup = OpStream::new(zipf, KEYS, UPSERT_PCT, seed, 2);
    phase(
        &mut s,
        &mut warmup,
        WARMUP_WINDOWS,
        None,
        &mut Tracer::off(),
        r,
    );
    s
}

pub fn run(args: &Args, tracer: &mut Tracer) -> (Report, Vec<String>) {
    let mut r = Report::default();
    let stamp = report::stamp(
        args,
        &Policy {
            transport: "in-process, 1 session, execute_batch windows of 64 + complete_pending",
            log: log_config(),
            read_cache: Some(cache_config()),
            wal_batch_window: None,
            devices: "log and checkpoint on MemDevice with the NVMe model (20 us + 2 GB/s)",
        },
    );
    let zipf = ZipfianGenerator::new(KEYS, ZIPF_THETA);
    let mut ops = OpStream::new(&zipf, KEYS, UPSERT_PCT, args.seed, 1);
    let (mut s, setup_times) = repeated(SETUP_REPS, || build(&zipf, args.seed, &mut r));
    r.set("setup_s", stats::median(&setup_times));
    r.note(format!(
        "setup: {SETUP_REPS} setups of {KEYS} keys + {WARMUP_WINDOWS} warm-up windows: {setup_times:?} s"
    ));

    let devices = [s.log_dev.clone(), s.ckpt_dev.clone()];
    let window_start = layers::device_totals(&devices).bytes_written;
    let (measured, window_sets) = if args.trace {
        let mut window_tracer = tracer.fork(true);
        let (untraced, traced, deltas) = crate::alternate(args.seconds, |secs, on| {
            let before = Counters::take(&s.store.metrics(), &devices);
            let t = if on {
                &mut window_tracer
            } else {
                &mut Tracer::off()
            };
            let ph = phase(&mut s, &mut ops, u64::MAX, Some(secs), t, &mut r);
            (
                ph,
                before.until(&Counters::take(&s.store.metrics(), &devices)),
            )
        });
        layers::counter_layers(&mut r, &deltas, traced.secs, traced.ops, traced.sets);
        let spans = totals_by_name(window_tracer.spans());
        let windows = traced.windows as f64;
        let eb = spans.get("core.execute_batch").copied().unwrap_or_default();
        layers::put(
            &mut r,
            "core.execute_batch_us_per_window",
            eb.total_ns as f64 / 1e3,
            windows,
            "windows",
        );
        let cp = spans
            .get("core.complete_pending")
            .copied()
            .unwrap_or_default();
        layers::put(
            &mut r,
            "core.complete_pending_us_per_window",
            cp.total_ns as f64 / 1e3,
            windows,
            "windows",
        );
        layers::put(
            &mut r,
            "core.pending_frac",
            traced.pending as f64,
            traced.ops as f64,
            "ops",
        );
        crate::ycsb_layer(&mut r, &window_tracer, traced.ops);
        crate::overhead_layer(
            &mut r,
            untraced.ops as f64 / untraced.secs,
            traced.ops as f64 / traced.secs,
        );
        tracer.absorb(window_tracer);
        let sets = untraced.sets + traced.sets;
        (traced, sets)
    } else {
        let ph = phase(
            &mut s,
            &mut ops,
            u64::MAX,
            Some(args.seconds),
            tracer,
            &mut r,
        );
        let sets = ph.sets;
        (ph, sets)
    };
    r.note(format!(
        "measured: {} ops ({} upserts, {} pending) in {:.3} s",
        measured.ops, measured.sets, measured.pending, measured.secs
    ));
    crate::end_to_end(
        &mut r,
        measured.sliced,
        &format!("latency per {WINDOW}-op window, issue to last completion"),
    );

    let mgr = CheckpointManager::new(s.ckpt_dev.clone(), CheckpointConfig::default());
    let ckpt_s = crate::closing_checkpoint(
        &mut r,
        tracer,
        &mgr,
        &s.store,
        &devices,
        window_start,
        window_sets,
    );
    r.set("ckpt_manager.checkpoint_s", ckpt_s);
    drop(mgr);
    let Setup {
        store,
        log_dev,
        ckpt_dev,
        expected,
        ..
    } = s;
    drop(store);
    if let Some(store) = crate::recover_kv(&mut r, tracer, config(), &log_dev, &ckpt_dev) {
        {
            let session = store.start_session();
            let mut keys = OpStream::new(&zipf, KEYS, 0, args.seed, 3);
            let sample: Vec<u64> = (0..RECOVERY_SAMPLE).map(|_| keys.next_op().0).collect();
            for chunk in sample.chunks(WINDOW) {
                let mut parked = HashMap::new();
                for (&k, res) in chunk.iter().zip(session.read_batch(chunk, &0)) {
                    match res {
                        Err(OpError::Pending(id)) => {
                            parked.insert(id, k);
                        }
                        res => check(&mut r, res, Some(expected[k as usize]), k),
                    }
                }
                while !parked.is_empty() {
                    for c in session.complete_pending(true) {
                        let k = parked.remove(&c.id).unwrap_or(u64::MAX);
                        check(&mut r, c.result, expected.get(k as usize).copied(), k);
                    }
                }
            }
            r.attempted += RECOVERY_SAMPLE as u64;
        }
    }
    (r, stamp)
}
