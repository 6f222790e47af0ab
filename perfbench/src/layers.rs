//! Per-layer metrics derived from deltas of `FasterKv::metrics()` and of
//! `Device::stats()`, summed over the traced slices of the measured
//! window. Every ratio is noted with its base.

use crate::report::Report;
use crate::stats::{hist_delta, ratio};
use faster_metrics::{HistogramSnapshot, StoreMetrics};
use faster_storage::{Device, DeviceStats};
use std::sync::Arc;

/// Summed stats of every device a workload writes (log, WAL, checkpoint).
pub fn device_totals(devices: &[Arc<dyn Device>]) -> DeviceStats {
    devices.iter().fold(DeviceStats::default(), |acc, d| {
        let s = d.stats();
        DeviceStats {
            bytes_written: acc.bytes_written + s.bytes_written,
            bytes_read: acc.bytes_read + s.bytes_read,
            writes: acc.writes + s.writes,
            reads: acc.reads + s.reads,
        }
    })
}

/// The counters the per-layer metrics read, at one instant or summed
/// over windows.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    c: [u64; N],
    io_latency: HistogramSnapshot,
    wal_groups: HistogramSnapshot,
    wal_commit: HistogramSnapshot,
}

const N: usize = 23;
const WRITES: usize = 0;
const IN_PLACE: usize = 1;
const PROBES: usize = 2;
const PROBE_STEPS: usize = 3;
const RESTARTS: usize = 4;
const OVERFLOW: usize = 5;
const APPENDS: usize = 6;
const ALLOC_RETRIES: usize = 7;
const READS: usize = 8;
const MEM_READS: usize = 9;
const EVICTED: usize = 10;
const RC_HITS: usize = 11;
const RC_LOOKUPS: usize = 12;
const RC_INSERTS: usize = 13;
const DEV_READS: usize = 14;
const DEV_READ_BYTES: usize = 15;
const DEV_WRITE_BYTES: usize = 16;
const IO_RETRIES: usize = 17;
const IO_ISSUED: usize = 18;
const WAL_BYTES: usize = 19;
const REFRESHES: usize = 20;
const BUMPS: usize = 21;
const DRAINS: usize = 22;

fn hist_sum(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let len = a.counts.len().max(b.counts.len());
    let at = |h: &HistogramSnapshot, i: usize| h.counts.get(i).copied().unwrap_or(0);
    HistogramSnapshot {
        counts: (0..len).map(|i| at(a, i) + at(b, i)).collect(),
        total: a.total + b.total,
        sum: a.sum + b.sum,
        max: a.max.max(b.max),
    }
}

impl Counters {
    pub fn take(m: &StoreMetrics, devices: &[Arc<dyn Device>]) -> Counters {
        let s = &m.sessions.totals;
        let rc = m.read_cache.clone().unwrap_or_default();
        let dev = device_totals(devices);
        let mut c = [0u64; N];
        c[WRITES] = s.writes;
        c[IN_PLACE] = s.in_place;
        c[PROBES] = m.index.probes;
        c[PROBE_STEPS] = m.index.probe_steps;
        c[RESTARTS] = m.index.tentative_restarts;
        c[OVERFLOW] = m.index.overflow_allocs;
        c[APPENDS] = m.hlog.appends;
        c[ALLOC_RETRIES] = m.hlog.alloc_retries;
        c[READS] = s.reads;
        c[MEM_READS] = s.mem_reads;
        c[EVICTED] = m.hlog.frames_evicted;
        c[RC_HITS] = rc.hits;
        c[RC_LOOKUPS] = rc.hits + rc.misses;
        c[RC_INSERTS] = rc.inserts;
        c[DEV_READS] = dev.reads;
        c[DEV_READ_BYTES] = dev.bytes_read;
        c[DEV_WRITE_BYTES] = dev.bytes_written;
        c[IO_RETRIES] = s.io_retries;
        c[IO_ISSUED] = s.io_issued;
        c[WAL_BYTES] = m.wal.bytes;
        c[REFRESHES] = m.epoch.refreshes;
        c[BUMPS] = m.epoch.bumps;
        c[DRAINS] = m.epoch.drain_actions;
        Counters {
            c,
            io_latency: m.sessions.io_latency.clone(),
            wal_groups: m.wal.group_size.clone(),
            wal_commit: m.wal.commit_latency.clone(),
        }
    }

    /// What was counted between `self` and the later `after`.
    pub fn until(&self, after: &Counters) -> Counters {
        Counters {
            c: std::array::from_fn(|i| after.c[i].saturating_sub(self.c[i])),
            io_latency: hist_delta(&self.io_latency, &after.io_latency),
            wal_groups: hist_delta(&self.wal_groups, &after.wal_groups),
            wal_commit: hist_delta(&self.wal_commit, &after.wal_commit),
        }
    }

    /// Adds another window's deltas.
    pub fn add(&mut self, other: &Counters) {
        for (a, b) in self.c.iter_mut().zip(other.c.iter()) {
            *a += b;
        }
        self.io_latency = hist_sum(&self.io_latency, &other.io_latency);
        self.wal_groups = hist_sum(&self.wal_groups, &other.wal_groups);
        self.wal_commit = hist_sum(&self.wal_commit, &other.wal_commit);
    }
}

/// Sets one per-layer ratio and notes it with its base.
pub fn put(r: &mut Report, name: &'static str, num: f64, den: f64, base: &str) {
    let v = ratio(num, den);
    r.set(name, v);
    r.note(format!("layer {name} = {v:.6} (base: {base} = {den})"));
}

/// Fills every counter-derived per-layer metric from the deltas `d` of a
/// window of `secs` seconds in which the benchmark issued `ops` operations,
/// `sets` of them blind writes (SET / upsert).
pub fn counter_layers(r: &mut Report, d: &Counters, secs: f64, ops: u64, sets: u64) {
    let c = |i: usize| d.c[i] as f64;
    let ops = ops as f64;
    put(
        r,
        "core.in_place_frac",
        c(IN_PLACE),
        c(WRITES),
        "store writes",
    );
    put(
        r,
        "index.probe_steps_per_probe",
        c(PROBE_STEPS),
        c(PROBES),
        "probes",
    );
    put(
        r,
        "index.tentative_restarts_per_probe",
        c(RESTARTS),
        c(PROBES),
        "probes",
    );
    put(
        r,
        "index.overflow_allocs",
        c(OVERFLOW),
        1.0,
        "traced window",
    );
    put(r, "hlog.appends_per_op", c(APPENDS), ops, "ops");
    put(
        r,
        "hlog.alloc_retries_per_append",
        c(ALLOC_RETRIES),
        c(APPENDS),
        "appends",
    );
    put(
        r,
        "hlog.mem_read_frac",
        c(MEM_READS),
        c(READS),
        "store reads",
    );
    put(r, "hlog.frames_evicted_per_s", c(EVICTED), secs, "seconds");
    put(
        r,
        "read_cache.hit_frac",
        c(RC_HITS),
        c(RC_LOOKUPS),
        "read-cache lookups",
    );
    put(r, "read_cache.inserts_per_op", c(RC_INSERTS), ops, "ops");
    put(r, "storage.reads_per_op", c(DEV_READS), ops, "ops");
    put(
        r,
        "storage.read_bytes_per_op",
        c(DEV_READ_BYTES),
        ops,
        "ops",
    );
    put(
        r,
        "storage.write_bytes_per_op",
        c(DEV_WRITE_BYTES),
        ops,
        "ops",
    );
    let io = &d.io_latency;
    put(
        r,
        "storage.wait_us_per_pending_op",
        io.sum as f64 / 1e3,
        io.total as f64,
        "completed pending I/Os",
    );
    put(
        r,
        "storage.io_retries_per_issued",
        c(IO_RETRIES),
        c(IO_ISSUED),
        "I/Os issued",
    );
    put(
        r,
        "wal.group_size_mean",
        d.wal_groups.sum as f64,
        d.wal_groups.total as f64,
        "group commits",
    );
    let commit = &d.wal_commit;
    for (name, q) in [
        ("wal.commit_latency_us_p50", 0.50),
        ("wal.commit_latency_us_p99", 0.99),
    ] {
        let v = if commit.total > 0 {
            commit.quantile(q) as f64 / 1e3
        } else {
            0.0
        };
        r.set(name, v);
        r.note(format!(
            "layer {name} = {v:.3} (base: group commits = {}, log2 histogram)",
            commit.total
        ));
    }
    put(r, "wal.bytes_per_set", c(WAL_BYTES), sets as f64, "SETs");
    put(r, "epoch.refreshes_per_op", c(REFRESHES), ops, "ops");
    put(r, "epoch.bumps_per_op", c(BUMPS), ops, "ops");
    put(r, "epoch.drain_actions_per_s", c(DRAINS), secs, "seconds");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_add_up_over_windows() {
        let mut a = Counters::default();
        a.c[PROBES] = 10;
        a.c[PROBE_STEPS] = 50;
        let mut b = a.clone();
        b.c[PROBES] = 30;
        b.c[PROBE_STEPS] = 90;
        let mut sum = a.until(&b);
        sum.add(&a.until(&b));
        assert_eq!((sum.c[PROBES], sum.c[PROBE_STEPS]), (40, 80));
        let mut r = Report::default();
        counter_layers(&mut r, &sum, 1.0, 40, 0);
        assert_eq!(r.get("index.probe_steps_per_probe"), Some(2.0));
        assert_eq!(r.get("wal.bytes_per_set"), Some(0.0));
    }
}
