//! `resp-ycsb-a`: RESP over loopback. Two closed-loop connections each
//! pipeline windows of 16 commands, 50% GET / 50% SET, Zipf 0.99 over
//! 1 Mi keys striped so each connection owns its keys. The store fits in
//! memory; its WAL sits on an NVMe-model `MemDevice` with
//! `WalConfig::default()`, and every SET ack waits for group commit. The
//! store is checkpointed after load.
//!
//! Oracle: every GET equals the last SET that connection sent for the key
//! (exact: keys are striped per connection and the server keeps
//! per-connection serial order). A fixed-count durability phase then
//! pipelines SETs, takes a prefix of the acks, kills the server and
//! recovers the store from checkpoint + WAL: every acked SET must be
//! recovered at a value at least its acked value.

use crate::layers::{self, Counters};
use crate::report::{self, Args, Policy, Report};
use crate::resp::{render_get, render_set, Conn, Reply};
use crate::stats::{self, Sliced};
use crate::trace::{totals_by_name, Span, Tracer};
use crate::{repeated, Absorb, OpStream, RECOVER_REPS, SETUP_REPS, ZIPF_THETA};
use faster_core::ckpt_manager::{recover_store_with_wal, CheckpointConfig, CheckpointManager};
use faster_core::{BatchOp, CountStore, FasterKv, FasterKvConfig, OpError, Outcome, WalConfig};
use faster_hlog::HLogConfig;
use faster_server::{Server, ServerConfig, Store};
use faster_storage::{Device, LatencyModel, MemDevice};
use faster_ycsb::ZipfianGenerator;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const KEYS: u64 = 1 << 20;
const CONNS: usize = 2;
/// Commands per pipelined window.
const DEPTH: usize = 16;
/// Percent of commands that are SETs.
const SET_PCT: u64 = 50;
/// Warm-up windows per connection, part of every setup.
const WARMUP_WINDOWS: u64 = 1000;
/// Every this many traced windows of a connection, one is replayed in
/// process.
const SAMPLE_EVERY: u64 = 32;
/// Durability phase: SETs pipelined, acks taken, keys cycled over.
const DURABILITY_SETS: u64 = 4000;
const DURABILITY_ACKS: u64 = 3900;
const DURABILITY_KEYS: u64 = 500;

fn config() -> FasterKvConfig {
    FasterKvConfig::for_keys(KEYS)
        .with_log(HLogConfig::default().with_mutable_fraction(0.9))
        .with_wal(WalConfig::default())
}

fn load_value(k: u64) -> u64 {
    k + 1
}

fn nvme(io_threads: usize) -> Arc<dyn Device> {
    MemDevice::with_latency(io_threads, LatencyModel::nvme())
}

/// Expected reply of one command.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Want {
    Ok,
    Value(u64),
}

/// One connection: its command stream, its stripe of the oracle, its
/// socket.
struct Client {
    id: usize,
    conn: Conn,
    ops: OpStream,
    /// Last value this connection wrote per owned key (index `key / CONNS`).
    oracle: Vec<u64>,
    next_value: u64,
    /// The current window: each command's key and, for a SET, its value.
    window: [(u64, Option<u64>); DEPTH],
    frame: Vec<u8>,
    want: Vec<Want>,
}

/// A traced window kept for the in-process replay.
#[derive(Clone, Copy)]
struct Sampled {
    window: [(u64, Option<u64>); DEPTH],
    rtt_ns: u64,
}

/// Totals of one connection over one phase.
#[derive(Default)]
struct Part {
    ops: u64,
    sets: u64,
    windows: u64,
    recv_calls: u64,
    errors: Vec<String>,
    sampled: Vec<Sampled>,
    sliced: Sliced,
}

impl Client {
    fn new(id: usize, addr: std::net::SocketAddr, ops: OpStream) -> std::io::Result<Client> {
        let oracle = (0..KEYS / CONNS as u64)
            .map(|i| load_value(i * CONNS as u64 + id as u64))
            .collect();
        Ok(Client {
            id,
            conn: Conn::connect(addr)?,
            ops,
            oracle,
            next_value: (id as u64 + 1) << 40,
            window: [(0, None); DEPTH],
            frame: Vec::with_capacity(DEPTH * 48),
            want: Vec::with_capacity(DEPTH),
        })
    }

    /// Draws and renders the next window and records the replies it
    /// expects; returns its SET count. Keys move into this connection's
    /// stripe (`key % CONNS == id`).
    fn render(&mut self) -> u64 {
        let mut sets = 0;
        self.frame.clear();
        self.want.clear();
        for cmd in self.window.iter_mut() {
            let (drawn, set) = self.ops.next_op();
            let mut key = drawn - drawn % CONNS as u64 + self.id as u64;
            if key >= KEYS {
                key -= CONNS as u64;
            }
            let slot = (key / CONNS as u64) as usize;
            if set {
                let value = self.next_value;
                self.next_value += 1;
                self.oracle[slot] = value;
                render_set(&mut self.frame, key, value);
                self.want.push(Want::Ok);
                *cmd = (key, Some(value));
                sets += 1;
            } else {
                render_get(&mut self.frame, key);
                self.want.push(Want::Value(self.oracle[slot]));
                *cmd = (key, None);
            }
        }
        sets
    }

    /// Runs windows until `windows`, or until `secs` after `start`, closed
    /// loop.
    fn drive(
        &mut self,
        windows: u64,
        start: Instant,
        secs: Option<f64>,
        tracer: &mut Tracer,
    ) -> Part {
        let deadline = secs.map(|x| start + Duration::from_secs_f64(x));
        let mut p = Part {
            sliced: Sliced::new(secs),
            ..Part::default()
        };
        let mut lat = [0u64; DEPTH];
        let calls_before = self.conn.recv_calls;
        while p.windows < windows {
            let id = (self.id as u64) << 48 | p.windows;
            let root = tracer.open("client.window", None, id);
            let gen = tracer.open("ycsb", Some(root), id);
            let sets = self.render();
            tracer.close(gen);
            let t0 = Instant::now();
            let want = &self.want;
            let errors = &mut p.errors;
            let sent = self.conn.send(&self.frame);
            let got = sent.and_then(|()| {
                self.conn.recv(DEPTH, |i, reply, at| {
                    lat[i] = (at - t0).as_nanos() as u64;
                    let ok = match (want[i], reply) {
                        (Want::Ok, Reply::Simple(b"OK")) => true,
                        (Want::Value(v), Reply::Bulk(Some(b))) => {
                            std::str::from_utf8(b).ok() == Some(&v.to_string())
                        }
                        _ => false,
                    };
                    if !ok {
                        errors.push(format!(
                            "command {i} of window: expected {:?}, got {reply}",
                            want[i]
                        ));
                    }
                })
            });
            let t1 = Instant::now();
            if let Err(e) = got {
                p.errors.push(format!("connection {} failed: {e}", self.id));
                break;
            }
            p.sliced.record(t1 - start, DEPTH as u64, &lat);
            if tracer.enabled() {
                tracer.record(Span {
                    name: "server",
                    start_ns: tracer.stamp(t0),
                    end_ns: tracer.stamp(t1),
                    parent: Some(root),
                    id,
                });
                if p.windows.is_multiple_of(SAMPLE_EVERY) {
                    p.sampled.push(Sampled {
                        window: self.window,
                        rtt_ns: (t1 - t0).as_nanos() as u64,
                    });
                }
            }
            tracer.close(root);
            p.windows += 1;
            p.ops += DEPTH as u64;
            p.sets += sets;
            if deadline.is_some_and(|d| t1 >= d) {
                break;
            }
        }
        p.recv_calls = self.conn.recv_calls - calls_before;
        p
    }
}

struct Setup {
    store: Store,
    /// Held for its lifetime: dropping it stops the front end.
    _server: Server,
    clients: Vec<Client>,
    /// Log, WAL and checkpoint devices.
    devices: [Arc<dyn Device>; 3],
    mgr: CheckpointManager,
}

/// Totals of one phase across the connections.
#[derive(Default)]
struct Phase {
    ops: u64,
    sets: u64,
    windows: u64,
    recv_calls: u64,
    secs: f64,
    sliced: Sliced,
    sampled: Vec<Sampled>,
}

impl Absorb for Phase {
    fn absorb(&mut self, other: Phase) {
        self.ops += other.ops;
        self.sets += other.sets;
        self.windows += other.windows;
        self.recv_calls += other.recv_calls;
        self.secs += other.secs;
        self.sliced.append(other.sliced);
        self.sampled.extend(other.sampled);
    }
}

fn phase(
    s: &mut Setup,
    windows: u64,
    secs: Option<f64>,
    traced: bool,
    tracer: &mut Tracer,
    r: &mut Report,
) -> Phase {
    let start = Instant::now();
    let parts: Vec<(Part, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .map(|c| {
                let mut t = tracer.fork(traced);
                sc.spawn(move || (c.drive(windows, start, secs, &mut t), t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut ph = Phase {
        secs: start.elapsed().as_secs_f64(),
        sliced: Sliced::new(secs),
        ..Phase::default()
    };
    for (p, t) in parts {
        ph.ops += p.ops;
        ph.sets += p.sets;
        ph.windows += p.windows;
        ph.recv_calls += p.recv_calls;
        ph.sliced.merge(p.sliced);
        ph.sampled.extend_from_slice(&p.sampled);
        for e in p.errors {
            r.fail(e);
        }
        tracer.absorb(t);
    }
    r.attempted += ph.ops;
    ph
}

/// A WAL-backed store loaded with every key, checkpointed after load, and
/// served over RESP; also returns the checkpoint's seconds.
fn loaded_server(r: &mut Report) -> (Store, Server, [Arc<dyn Device>; 3], CheckpointManager, f64) {
    let (log_dev, wal_dev, ckpt_dev) = (nvme(2), nvme(1), nvme(1));
    let store: Store =
        FasterKv::new_with_wal(config(), CountStore, log_dev.clone(), wal_dev.clone());
    {
        let session = store.start_session();
        for k in 0..KEYS {
            if let Err(e) = session.upsert(&k, &load_value(k)) {
                r.fail(format!("load upsert({k}) refused: {e}"));
            }
        }
        session.complete_pending(true);
        if let Err(e) = session.wait_wal_durable() {
            r.fail(format!("load WAL commit failed: {e}"));
        }
    }
    let mgr = CheckpointManager::new(ckpt_dev.clone(), CheckpointConfig::default());
    let t = Instant::now();
    if let Err(e) = mgr.checkpoint_store(&store) {
        r.fail(format!("post-load checkpoint failed: {e}"));
    }
    let ckpt_s = t.elapsed().as_secs_f64();
    let server = Server::start(store.clone(), "127.0.0.1:0", ServerConfig { workers: 2 })
        .expect("start RESP server");
    (store, server, [log_dev, wal_dev, ckpt_dev], mgr, ckpt_s)
}

fn build(zipf: &ZipfianGenerator, seed: u64, ckpt_secs: &mut Vec<f64>, r: &mut Report) -> Setup {
    let (store, server, devices, mgr, ckpt_s) = loaded_server(r);
    ckpt_secs.push(ckpt_s);
    let clients = (0..CONNS)
        .map(|i| {
            let ops = OpStream::new(zipf, KEYS, SET_PCT, seed, i as u64 + 1);
            Client::new(i, server.local_addr(), ops).expect("connect to RESP server")
        })
        .collect();
    let mut s = Setup {
        store,
        _server: server,
        clients,
        devices,
        mgr,
    };
    phase(&mut s, WARMUP_WINDOWS, None, false, &mut Tracer::off(), r);
    s
}

/// The fixed-count durability phase on a freshly loaded and checkpointed
/// server, so the WAL suffix recovery scans does not depend on the
/// measured window's throughput: pipeline SETs, take a prefix of the
/// acks, kill the server, recover from checkpoint + WAL, and check every
/// acked SET. Returns the recovery seconds and WAL records replayed.
fn durability(tracer: &mut Tracer, r: &mut Report) -> Option<(f64, usize)> {
    let (store, server, [log_dev, wal_dev, ckpt_dev], mgr, _) = loaded_server(r);
    let mut conn = Conn::connect(server.local_addr()).expect("connect durability client");
    let mut frame = Vec::new();
    for i in 0..DURABILITY_SETS {
        render_set(&mut frame, KEYS + i % DURABILITY_KEYS, i + 1);
    }
    // Value i + 1 grows with i, so the last ack per key is its largest.
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let sent = conn.send(&frame).and_then(|()| {
        conn.recv(DURABILITY_ACKS as usize, |i, reply, _| {
            if reply == Reply::Simple(b"OK") {
                acked.insert(KEYS + i as u64 % DURABILITY_KEYS, i as u64 + 1);
            }
        })
    });
    if let Err(e) = sent {
        r.fail(format!("durability phase connection failed: {e}"));
    }
    if acked.len() as u64 != DURABILITY_KEYS {
        r.fail(format!(
            "durability phase: {} of {DURABILITY_KEYS} keys acked OK",
            acked.len()
        ));
    }
    server.shutdown();
    drop((server, conn, store, mgr));

    // Recovery reads the devices without writing them, so it repeats.
    let mut replayed = Vec::new();
    let (recovered, times) = repeated(RECOVER_REPS, || {
        let span = tracer.open("ckpt_manager.recover", None, 0);
        let rec = recover_store_with_wal::<u64, u64, CountStore>(
            config(),
            CountStore,
            log_dev.clone(),
            ckpt_dev.clone(),
            wal_dev.clone(),
            CheckpointConfig::default(),
        );
        tracer.close(span);
        replayed.extend(rec.as_ref().ok().map(|rec| rec.wal_replayed));
        rec
    });
    let recover_s = stats::median(&times);
    r.note(format!(
        "recoveries: {times:?} s, WAL records replayed {replayed:?}"
    ));
    if replayed.windows(2).any(|w| w[0] != w[1]) {
        r.fail(format!(
            "repeated recoveries replayed different WAL suffixes: {replayed:?}"
        ));
    }
    let rec = match recovered {
        Ok(rec) => rec,
        Err(e) => {
            r.fail(format!("recovery failed: {e}"));
            return None;
        }
    };
    r.set("peak_rss_mb", report::peak_rss_mb());
    let session = rec.store.start_session();
    for (&k, &v) in &acked {
        let got = match session.read(&k, &0) {
            Err(OpError::Pending(_)) => session.complete_pending(true).pop().map(|c| c.result),
            other => Some(other),
        };
        match got {
            Some(Ok(Outcome::Value(g))) if g >= v => {}
            other => r.fail(format!("acked SET {k}={v} recovered as {other:?}")),
        }
    }
    r.attempted += acked.len() as u64;
    Some((recover_s, rec.wal_replayed))
}

/// Replays sampled traced windows in process through `execute_batch` +
/// `wait_wal_durable`, spanning the `core` and `wal` parts of each.
fn replay(s: &Setup, sampled: &[Sampled], tracer: &mut Tracer, r: &mut Report) {
    let session = s.store.start_session();
    let mut batch = Vec::with_capacity(DEPTH);
    for (n, w) in sampled.iter().enumerate() {
        let id = n as u64;
        let root = tracer.open("replay.window", None, id);
        let gen = tracer.open("ycsb", Some(root), id);
        batch.clear();
        batch.extend(w.window.iter().map(|&(key, set)| match set {
            Some(value) => BatchOp::Upsert { key, value },
            None => BatchOp::Read { key, input: 0 },
        }));
        tracer.close(gen);
        let core = tracer.open("core", Some(root), id);
        let results = session.execute_batch(&batch);
        if results
            .iter()
            .any(|res| matches!(res, Err(OpError::Pending(_))))
        {
            session.complete_pending(true);
        }
        tracer.close(core);
        let wal = tracer.open("wal", Some(root), id);
        if let Err(e) = session.wait_wal_durable() {
            r.fail(format!("replay WAL commit failed: {e}"));
        }
        tracer.close(wal);
        tracer.close(root);
        for res in results {
            if let Err(e @ (OpError::ReadOnly(_) | OpError::Io(_) | OpError::NotFound)) = res {
                r.fail(format!("replayed op failed: {e}"));
            }
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> (Report, Vec<String>) {
    let mut r = Report::default();
    let stamp = report::stamp(
        args,
        &Policy {
            transport: "RESP2 over loopback TCP (127.0.0.1), 2 client connections, 2 server workers, pipeline depth 16",
            log: config().log,
            read_cache: None,
            wal_batch_window: Some(WalConfig::default().batch_window),
            devices: "log, WAL and checkpoint on MemDevice with the NVMe model (20 us + 2 GB/s)",
        },
    );
    let zipf = ZipfianGenerator::new(KEYS, ZIPF_THETA);
    let mut ckpt_setup = Vec::new();
    let (mut s, setup_times) = repeated(SETUP_REPS, || {
        build(&zipf, args.seed, &mut ckpt_setup, &mut r)
    });
    r.set("setup_s", stats::median(&setup_times));
    r.note(format!(
        "setup: {SETUP_REPS} setups of {KEYS} keys, checkpoint, server start, {WARMUP_WINDOWS} warm-up windows/conn: {setup_times:?} s"
    ));

    let devices = s.devices.clone();
    let window_start = layers::device_totals(&devices).bytes_written;
    let (measured, window_sets) = if args.trace {
        let mut window_tracer = tracer.fork(true);
        let (untraced, traced, deltas) = crate::alternate(args.seconds, |secs, on| {
            let before = Counters::take(&s.store.metrics(), &devices);
            let ph = phase(&mut s, u64::MAX, Some(secs), on, &mut window_tracer, &mut r);
            (
                ph,
                before.until(&Counters::take(&s.store.metrics(), &devices)),
            )
        });
        layers::counter_layers(&mut r, &deltas, traced.secs, traced.ops, traced.sets);
        let windows = traced.windows as f64;
        layers::put(
            &mut r,
            "server.recv_calls_per_window",
            traced.recv_calls as f64,
            windows,
            "windows",
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
        let ph = phase(&mut s, u64::MAX, Some(args.seconds), false, tracer, &mut r);
        let sets = ph.sets;
        (ph, sets)
    };
    r.note(format!(
        "measured: {} commands ({} SETs) in {} windows, {:.3} s",
        measured.ops, measured.sets, measured.windows, measured.secs
    ));
    crate::end_to_end(
        &mut r,
        measured.sliced,
        "latency per command, window send to reply parse",
    );

    let ckpt_close = crate::closing_checkpoint(
        &mut r,
        tracer,
        &s.mgr,
        &s.store,
        &devices,
        window_start,
        window_sets,
    );
    layers::put(
        &mut r,
        "ckpt_manager.checkpoint_s",
        stats::median(&ckpt_setup),
        1.0,
        "median of post-load checkpoints",
    );
    r.note(format!(
        "checkpoints: post-load {ckpt_setup:?} s, closing {ckpt_close:.6} s"
    ));

    if args.trace {
        let mut rt = tracer.fork(true);
        replay(&s, &measured.sampled, &mut rt, &mut r);
        let rs = totals_by_name(rt.spans());
        let n = measured.sampled.len() as f64;
        let rtt_us = measured
            .sampled
            .iter()
            .map(|w| w.rtt_ns as f64 / 1e3)
            .sum::<f64>();
        let core_us = rs.get("core").copied().unwrap_or_default().total_ns as f64 / 1e3;
        let wal_us = rs.get("wal").copied().unwrap_or_default().total_ns as f64 / 1e3;
        layers::put(
            &mut r,
            "server.self_us_per_window",
            rtt_us - core_us - wal_us,
            n,
            "replayed windows",
        );
        layers::put(
            &mut r,
            "core.execute_batch_us_per_window",
            core_us,
            n,
            "replayed windows",
        );
        layers::put(
            &mut r,
            "wal.wait_us_per_window",
            wal_us,
            n,
            "replayed windows",
        );
        r.note(format!(
            "replayed windows: mean RTT {:.3} us",
            stats::ratio(rtt_us, n)
        ));
        tracer.absorb(rt);
    }
    drop(s);

    if let Some((recover_s, replayed)) = durability(tracer, &mut r) {
        r.set("recover_s", recover_s);
        layers::put(
            &mut r,
            "ckpt_manager.recover_us_per_replayed_record",
            recover_s * 1e6,
            replayed as f64,
            "WAL records replayed",
        );
    }
    (r, stamp)
}
