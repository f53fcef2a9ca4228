//! Run results: metrics, operation accounting, statistics helpers, the
//! process probes (`/proc/self/*`) and the JSON the command prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics and their units, as listed in `BENCHMARK.json`.
/// Every workload measures every one of them, with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("model_latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("forecast_emd", "buckets"),
];

/// Per-layer metrics and their units, as listed in `BENCHMARK.json`. A
/// traced run prints all of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.generate_s", "s"),
    ("core.model_init_ms", "ms"),
    ("graph.propagate_ms", "ms"),
    ("tensor.recovery_gemm_ms", "ms"),
    ("core.make_batch_ms", "ms"),
    ("core.batch_mb", "MB"),
    ("core.forward_ms", "ms"),
    ("nn.tape_nodes", "count"),
    ("core.loss_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("core.forecast_ms", "ms"),
    ("nn.checkpoint_decode_ms", "ms"),
    ("serve.resident_mb", "MB"),
    ("tensor.arena_high_water_mb", "MB"),
    ("tensor.arena_reuse_ratio", "ratio"),
    ("process.minor_faults", "count"),
    ("process.sys_s", "s"),
    ("process.user_s", "s"),
    ("baselines.nh_fit_ms", "ms"),
    ("serve.ingest_us", "us"),
    ("serve.seal_ms", "ms"),
    ("serve.wal_appends", "count"),
    ("serve.wal_fsyncs", "count"),
    ("serve.wal_bytes", "B"),
    ("serve.wal_open_ms", "ms"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("fleet.cache_hit_us", "us"),
    ("fleet.model_invocations", "count"),
    ("fleet.broker_wait_ms", "ms"),
    ("fleet.latency_p99_ms", "ms"),
    ("fleet.recover_records", "count"),
    ("fleet.recover_s", "s"),
    ("adapt.cycle_s", "s"),
    ("adapt.fine_tune_s", "s"),
    ("adapt.shadow_eval_ms", "ms"),
    ("adapt.promote_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: training minibatches, forecasts, requests,
    /// ingested trips and adaptation cycles.
    pub attempted: u64,
    /// Operations that failed: NH fallbacks, shed or degraded answers,
    /// ingest rejects, non-finite batches and adaptation errors.
    pub failed: u64,
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (filled only by a traced run).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Check failures, one line each.
    pub errors: Vec<String>,
    /// Extra JSON fields for the run artifact (`"key": value` fragments).
    pub detail: Vec<String>,
}

fn known(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("metric {name} is not listed in BENCHMARK.json"))
}

impl Outcome {
    /// Records a check; a failed one keeps its message and makes the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// All checks passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.end_to_end.insert(known(END_TO_END, name), value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(known(PER_LAYER, name), value);
    }

    /// Adds a detail field for the run artifact.
    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push(format!("\"{key}\": {json_value}"));
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// The `q`-quantile by nearest rank, or `None` when fewer than 10 samples
/// lie beyond it (a tail quantile from a handful of samples is noise).
pub fn tail_quantile(v: &[f64], q: f64) -> Option<f64> {
    let beyond = (v.len() as f64 * (1.0 - q)).floor();
    if beyond < 10.0 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Some(s[rank - 1])
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip form gives.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value must be finite, got {x}");
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of numbers.
pub fn num_array(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(", ")
    )
}

/// The metrics object of a run: every end-to-end metric (untraced) or
/// every per-layer metric (traced), with units.
pub fn metrics_json(o: &Outcome, traced: bool) -> String {
    let (table, values) = if traced {
        (PER_LAYER, &o.per_layer)
    } else {
        (END_TO_END, &o.end_to_end)
    };
    let body = table
        .iter()
        .map(|(name, unit)| {
            let value = match values.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(value),
                string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

/// The one-line result the command prints last.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(o, traced)
    )
}

/// Process peak resident set (`VmHWM`) in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative minor faults and CPU time of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Minor page faults.
    pub minor_faults: u64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
}

impl ProcStat {
    /// Reads `/proc/self/stat` (clock ticks at the kernel's fixed
    /// `USER_HZ` of 100).
    pub fn now() -> ProcStat {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        // `rest` starts at field 3 (state): minflt is field 10, utime 14,
        // stime 15 in proc(5) numbering.
        ProcStat {
            minor_faults: field(7),
            user_s: field(11) as f64 / 100.0,
            sys_s: field(12) as f64 / 100.0,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Cumulative `(steal, total)` jiffies of all CPUs from `/proc/stat`.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One-minute load average at the time of the call.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// The checkout's git revision, or `unknown` outside a git work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
