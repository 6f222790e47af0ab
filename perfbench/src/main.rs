//! The repository benchmark. One command runs one of three seeded
//! workloads against the public API of the store, the RESP server, the WAL
//! and the storage devices, checks every output against an oracle, and
//! prints one JSON result line:
//!
//! ```text
//! perfbench --workload <resp-ycsb-a|kv-rmw-zipf|kv-cold-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the traced
//! run, which records spans around the benchmark's calls into each layer
//! and prints the per-layer metrics. See `perfbench/README.md`.

mod layers;
mod report;
mod resp;
mod stats;
mod trace;
mod wl_cold;
mod wl_resp;
mod wl_rmw;

use faster_core::ckpt_manager::{recover_store, CheckpointConfig, CheckpointManager};
use faster_core::{CountStore, FasterKvConfig};
/// Every workload's store: `u64` counters, RMW adds (the RESP server's
/// store type).
pub use faster_server::Store;
use faster_storage::Device;
use faster_ycsb::{KeyChooser, ZipfianGenerator};
use layers::Counters;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use report::Report;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Recoveries per run; `recover_s` is their median.
pub const RECOVER_REPS: usize = 7;

/// Zipf skew of every workload (YCSB default).
pub const ZIPF_THETA: f64 = 0.99;

/// A seeded YCSB operation stream: scrambled-Zipf keys over `[0, keys)`,
/// each a blind write with probability `write_pct` percent. Streams with
/// different `stream` numbers of one seed are independent.
pub struct OpStream {
    chooser: KeyChooser,
    rng: StdRng,
    write_pct: u64,
}

impl OpStream {
    pub fn new(
        zipf: &ZipfianGenerator,
        keys: u64,
        write_pct: u64,
        seed: u64,
        stream: u64,
    ) -> OpStream {
        OpStream {
            chooser: KeyChooser::with_zipf(keys, zipf.clone()),
            rng: StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            write_pct,
        }
    }

    /// The next operation: its key and whether it writes.
    pub fn next_op(&mut self) -> (u64, bool) {
        let key = self.chooser.next_key(&mut self.rng);
        (key, self.rng.next_u64() % 100 < self.write_pct)
    }
}

/// Runs `build` `reps` times, dropping each result before the next, and
/// keeps the last. Returns it with every run's seconds.
pub fn repeated<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one repetition"), times)
}

/// Takes the closing checkpoint, which makes the measured window's writes
/// durable, and sets `write_amp`: bytes written to `devices` from the
/// window's start (when they had written `window_start` bytes) through
/// this checkpoint, per key+value byte of the window's `writes` (16
/// each). Returns the checkpoint's seconds.
pub fn closing_checkpoint(
    r: &mut Report,
    tracer: &mut Tracer,
    mgr: &CheckpointManager,
    store: &Store,
    devices: &[Arc<dyn Device>],
    window_start: u64,
    writes: u64,
) -> f64 {
    let span = tracer.open("ckpt_manager.checkpoint", None, 0);
    let t = Instant::now();
    if let Err(e) = mgr.checkpoint_store(store) {
        r.fail(format!("closing checkpoint failed: {e}"));
    }
    let secs = t.elapsed().as_secs_f64();
    tracer.close(span);
    let written = layers::device_totals(devices).bytes_written - window_start;
    r.set("write_amp", written as f64 / (writes as f64 * 16.0));
    r.note(format!("write_amp base: {writes} writes x 16 user bytes; {written} device bytes through the closing checkpoint"));
    secs
}

/// Recovers an in-process store from its closing checkpoint
/// `RECOVER_REPS` times and sets `recover_s` to the median; returns the
/// last recovered store. These stores have no WAL, so no record is
/// replayed.
pub fn recover_kv(
    r: &mut Report,
    tracer: &mut Tracer,
    cfg: FasterKvConfig,
    log_dev: &Arc<dyn Device>,
    ckpt_dev: &Arc<dyn Device>,
) -> Option<Store> {
    let (recovered, times) = repeated(RECOVER_REPS, || {
        let span = tracer.open("ckpt_manager.recover", None, 0);
        let rec = recover_store(
            cfg,
            CountStore,
            log_dev.clone(),
            ckpt_dev.clone(),
            CheckpointConfig::default(),
        );
        tracer.close(span);
        rec
    });
    r.set("recover_s", stats::median(&times));
    r.note(format!(
        "recoveries from the closing checkpoint: {times:?} s"
    ));
    r.set("ckpt_manager.recover_us_per_replayed_record", 0.0);
    r.note("layer ckpt_manager.recover_us_per_replayed_record = 0 (base: WAL records replayed = 0, no WAL)");
    match recovered {
        Ok((store, _mgr, _gen)) => {
            // Peak memory of the run, before the oracle's own reads.
            r.set("peak_rss_mb", report::peak_rss_mb());
            Some(store)
        }
        Err(e) => {
            r.fail(format!("recovery failed: {e}"));
            None
        }
    }
}

/// Slices of the traced run. Untraced and traced slices alternate, so
/// drift over the run (caches filling, the log growing) does not bias the
/// overhead comparison.
pub const TRACE_SLICES: u32 = 8;

/// Totals of a measured phase that can absorb another phase's totals.
pub trait Absorb: Default {
    fn absorb(&mut self, other: Self);
}

/// Runs `seconds` as alternating untraced and traced slices. `slice`
/// runs one slice of the given length, tracing or not, and returns its
/// totals with the counter deltas over it. Returns the untraced totals,
/// the traced totals, and the counter deltas summed over traced slices.
pub fn alternate<P: Absorb>(
    seconds: f64,
    mut slice: impl FnMut(f64, bool) -> (P, Counters),
) -> (P, P, Counters) {
    let (mut untraced, mut traced, mut deltas) = (P::default(), P::default(), Counters::default());
    for i in 0..TRACE_SLICES {
        let on = i % 2 == 1;
        let (p, d) = slice(seconds / f64::from(TRACE_SLICES), on);
        if on {
            traced.absorb(p);
            deltas.add(&d);
        } else {
            untraced.absorb(p);
        }
    }
    (untraced, traced, deltas)
}

/// Sets `ops_per_s`, `p50_us` and `p99_us` from the median one-second
/// slice of the measured window, noting the pooled sample count and tail.
pub fn end_to_end(r: &mut Report, sliced: stats::Sliced, what: &str) {
    let s = sliced.summary();
    r.set("ops_per_s", s.ops_per_s);
    r.set("p50_us", s.p50_us);
    r.set("p99_us", s.p99_us);
    r.note(format!(
        "median of {} one-second slices: {:.0} ops/s, p50 {:.3} us, p99 {:.3} us; ops/s per slice {:.0?}",
        s.per_slice.len(),
        s.ops_per_s,
        s.p50_us,
        s.p99_us,
        s.per_slice
    ));
    r.note(s.pooled.describe(&format!("{what}, pooled")));
}

/// Generator time per op from the run's `ycsb` spans.
pub fn ycsb_layer(r: &mut Report, tracer: &Tracer, ops: u64) {
    let t = trace::totals_by_name(tracer.spans());
    let gen = t.get("ycsb").copied().unwrap_or_default();
    layers::put(
        r,
        "ycsb.gen_ns_per_op",
        gen.self_ns as f64,
        ops as f64,
        "generated ops",
    );
}

/// Traced-run overhead: traced throughput against the untraced half.
pub fn overhead_layer(r: &mut Report, untraced: f64, traced: f64) {
    r.set("trace.ops_per_s_untraced", untraced);
    r.set("trace.ops_per_s_traced", traced);
    let overhead = stats::ratio(untraced - traced, untraced);
    r.set("trace.overhead_frac", overhead);
    r.note(format!(
        "trace overhead: {traced:.0} ops/s traced vs {untraced:.0} untraced ({:.2}%)",
        overhead * 100.0
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match report::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, args.trace);
    let (mut report, stamp) = match args.workload.as_str() {
        "resp-ycsb-a" => wl_resp::run(&args, &mut tracer),
        "kv-rmw-zipf" => wl_rmw::run(&args, &mut tracer),
        "kv-cold-read" => wl_cold::run(&args, &mut tracer),
        other => unreachable!("parse_args accepted {other}"),
    };
    if report.get("peak_rss_mb").is_none() {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    report.set(
        "ok_frac",
        1.0 - stats::ratio(report.failed as f64, report.attempted as f64),
    );
    if args.trace {
        let path = std::path::PathBuf::from(format!("perfbench/out/{}.spans.csv", args.workload));
        match tracer.write_csv(&path, &stamp) {
            Ok(()) => report.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.note(format!("spans: could not write {}: {e}", path.display())),
        }
    }
    for line in stamp.iter().chain(report.notes.iter()) {
        println!("# {line}");
    }
    if args.trace {
        for (name, unit, moves) in report::PER_LAYER {
            println!(
                "{name} = {} {unit}  -> {moves}",
                report.get(name).unwrap_or(0.0)
            );
        }
    } else {
        for (name, unit) in report::END_TO_END {
            println!("{name} = {} {unit}", report.get(name).unwrap_or(0.0));
        }
    }
    println!("{}", report.json(args.trace));
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}
