//! Command-line arguments, the run stamp, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics every untraced run prints: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("recover_s", "s"),
    ("write_amp", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics every traced run prints: (name, unit, the end-to-end
/// metrics it should move and on which workloads). A layer a workload
/// does not use reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 35] = [
    (
        "server.self_us_per_window",
        "us",
        "p50_us, ops_per_s (resp)",
    ),
    ("server.recv_calls_per_window", "count", "p50_us (resp)"),
    ("core.rmw_ns_per_op", "ns", "ops_per_s (rmw)"),
    (
        "core.execute_batch_us_per_window",
        "us",
        "ops_per_s (cold, resp replay)",
    ),
    (
        "core.complete_pending_us_per_window",
        "us",
        "p50_us, p99_us (cold)",
    ),
    ("core.pending_frac", "frac", "ops_per_s (cold)"),
    (
        "core.in_place_frac",
        "frac",
        "ops_per_s, write_amp (rmw, resp)",
    ),
    ("index.probe_steps_per_probe", "count", "ops_per_s (rmw)"),
    (
        "index.tentative_restarts_per_probe",
        "count",
        "ops_per_s (rmw)",
    ),
    ("index.overflow_allocs", "count", "peak_rss_mb (cold)"),
    ("hlog.appends_per_op", "count", "write_amp (resp, cold)"),
    (
        "hlog.alloc_retries_per_append",
        "count",
        "p99_us (resp, cold)",
    ),
    ("hlog.mem_read_frac", "frac", "ops_per_s (cold)"),
    ("hlog.frames_evicted_per_s", "1/s", "p99_us (cold)"),
    ("read_cache.hit_frac", "frac", "ops_per_s, p50_us (cold)"),
    ("read_cache.inserts_per_op", "count", "ops_per_s (cold)"),
    ("storage.reads_per_op", "count", "ops_per_s (cold)"),
    ("storage.read_bytes_per_op", "B", "ops_per_s (cold)"),
    ("storage.write_bytes_per_op", "B", "write_amp (cold, resp)"),
    ("storage.wait_us_per_pending_op", "us", "p99_us (cold)"),
    ("storage.io_retries_per_issued", "count", "ok_frac (cold)"),
    (
        "wal.group_size_mean",
        "count",
        "ops_per_s, write_amp (resp)",
    ),
    ("wal.commit_latency_us_p50", "us", "p50_us (resp)"),
    ("wal.commit_latency_us_p99", "us", "p99_us (resp)"),
    ("wal.bytes_per_set", "B", "write_amp (resp)"),
    ("wal.wait_us_per_window", "us", "p50_us (resp replay)"),
    ("epoch.refreshes_per_op", "count", "ops_per_s (rmw)"),
    ("epoch.bumps_per_op", "count", "ops_per_s (rmw)"),
    ("epoch.drain_actions_per_s", "1/s", "p99_us (cold)"),
    ("ckpt_manager.checkpoint_s", "s", "setup_s (resp)"),
    (
        "ckpt_manager.recover_us_per_replayed_record",
        "us",
        "recover_s (resp)",
    ),
    (
        "ycsb.gen_ns_per_op",
        "ns",
        "none: generator cost, kept apart from program cost",
    ),
    (
        "trace.ops_per_s_untraced",
        "1/s",
        "none: tracing overhead baseline",
    ),
    ("trace.ops_per_s_traced", "1/s", "none: traced throughput"),
    ("trace.overhead_frac", "frac", "none: tracing overhead"),
];

/// (name, unit) of every metric a run prints: per-layer when traced.
pub fn metric_table(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    }
}

pub const WORKLOADS: [&str; 3] = ["resp-ycsb-a", "kv-rmw-zipf", "kv-cold-read"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    /// Operations refused, errored or mismatching the oracle; the run is
    /// correct when this stays 0.
    pub failed: u64,
    /// (name, value); units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result: bases, sample
    /// counts, oracle findings.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an oracle mismatch or refused operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {}", what.into()));
        }
    }

    /// The result line: every metric of the run's kind, in table order.
    /// A metric the workload did not set reads 0 (its layer is idle).
    pub fn json(&self, trace: bool) -> String {
        let table = metric_table(trace);
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit of the checkout, read from `.git` without running git (the
/// benchmark reads nothing outside its checkout); "unknown" when the
/// checkout is not a git repository.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha;
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Flush and commit policy of one workload, stated in its stamp.
pub struct Policy {
    pub transport: &'static str,
    pub log: faster_hlog::HLogConfig,
    pub read_cache: Option<faster_hlog::HLogConfig>,
    pub wal_batch_window: Option<Duration>,
    pub devices: &'static str,
}

/// Run stamp lines: code, host, transport, device model, flush policy.
pub fn stamp(args: &Args, policy: &Policy) -> Vec<String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let hlog = |c: &faster_hlog::HLogConfig| {
        format!(
            "page {} KiB x {} frames = {} KiB, mutable {}/{} pages ({:.2})",
            c.page_size() >> 10,
            c.buffer_pages,
            (c.page_size() * c.buffer_pages) >> 10,
            c.mutable_pages,
            c.buffer_pages,
            c.mutable_pages as f64 / c.buffer_pages as f64
        )
    };
    vec![
        format!(
            "stamp: workload={} seed={} seconds={} trace={}",
            args.workload, args.seed, args.seconds, args.trace as u8
        ),
        format!("stamp: commit={}", git_commit()),
        format!("stamp: nproc={nproc} kernel={kernel}"),
        format!("stamp: transport={}", policy.transport),
        format!("stamp: devices={}", policy.devices),
        format!("stamp: hlog {}", hlog(&policy.log)),
        format!(
            "stamp: read_cache {}",
            policy
                .read_cache
                .as_ref()
                .map(hlog)
                .unwrap_or_else(|| "off".into())
        ),
        format!(
            "stamp: wal {}",
            policy
                .wal_batch_window
                .map(|w| format!("batch_window={w:?} segment=1 MiB, acks wait for group commit"))
                .unwrap_or_else(|| "off".into())
        ),
        "stamp: maintenance off; index pre-sized with FasterKvConfig::for_keys".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "kv-rmw-zipf",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "kv-rmw-zipf".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "kv-rmw-zipf", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn json_lists_every_metric_of_the_kind() {
        let mut r = Report {
            attempted: 10,
            ..Default::default()
        };
        r.set("ops_per_s", 1234.5);
        r.set("p50_us", f64::NAN);
        let line = r.json(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"p50_us\": {\"value\": 0.0, \"unit\": \"us\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        r.fail("mismatch");
        assert!(r
            .json(true)
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1"));
    }

    /// The tables above and `BENCHMARK.json` name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in metric_table(false).into_iter().chain(metric_table(true)) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
