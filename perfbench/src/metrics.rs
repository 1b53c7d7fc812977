//! Metric names and units, the result line, and small statistics.
//!
//! `BENCHMARK.json` declares every metric with its unit. The benchmark
//! reads it at start-up and refuses to run when the declared names and
//! the names this program knows how to measure disagree, so the two
//! cannot drift apart.

use std::fmt::Write as _;
use std::process::Command;

use bpred_analysis::Engine;
use bpred_core::spec::GRAMMAR;
use bpred_harness::manifest::Json;
use bpred_harness::registry;

/// End-to-end metrics, measured in untraced runs on every workload.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "wall_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_p99_ms",
    "peak_heap_mib",
];

/// The keys of the server's `STATS` snapshot, reported per layer as
/// `serve.stats.<key>`.
pub const SERVE_STATS: [&str; 19] = [
    "serve_uptime_seconds",
    "serve_shards",
    "serve_connections_total",
    "serve_streams_finished",
    "serve_chunks_total",
    "serve_backpressure_chunks",
    "serve_branches_streamed",
    "serve_branches_per_sec",
    "store_hits",
    "store_misses",
    "store_inserts",
    "engine_scalar_branches",
    "engine_scalar_mbranches_per_sec",
    "engine_packed_branches",
    "engine_packed_mbranches_per_sec",
    "engine_batch_branches",
    "engine_batch_mbranches_per_sec",
    "engine_sliced_branches",
    "engine_sliced_mbranches_per_sec",
];

/// Every per-layer metric a traced run reports (zero where a layer does
/// no work on the workload).
pub fn layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "workloads.generate_s",
        "sim.generate_s",
        "traces.load_s",
        "traces.cache_hits",
        "traces.cache_misses",
        "trace.pack_s",
        "trace.packs_built",
        "trace.digest_ms",
    ]
    .iter()
    .map(|&n| n.to_owned())
    .collect();
    names.extend(
        registry::names()
            .iter()
            .map(|n| format!("experiment.{n}_s")),
    );
    for engine in Engine::ALL {
        for field in ["busy_s", "branches", "mbps"] {
            names.push(format!("analysis.{}.{field}", engine.label()));
        }
    }
    names.extend(GRAMMAR.iter().map(|(n, _)| format!("core.{n}.mbps")));
    for n in [
        "store.lookups",
        "store.hits",
        "store.inserts",
        "store.hit_ratio",
        "render.csv_s",
        "render.manifest_s",
        "serve.hit_p50_ms",
        "serve.miss_p50_ms",
        "serve.hit_ratio",
        "serve.fed_mib",
    ] {
        names.push(n.to_owned());
    }
    names.extend(SERVE_STATS.iter().map(|k| format!("serve.stats.{k}")));
    for n in [
        "process.peak_rss_mib",
        "tracing_overhead",
        "unattributed_s",
        "error_rate",
    ] {
        names.push(n.to_owned());
    }
    names
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets (or replaces) one value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The metric declarations of `BENCHMARK.json`.
pub struct Declared {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Declared {
    /// Reads `BENCHMARK.json` from the working directory and checks
    /// that it declares exactly the metrics this program measures.
    pub fn load() -> Result<Declared, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<(String, String)>, String> {
            let items = json
                .get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_owned);
                    field("name")
                        .zip(field("unit"))
                        .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry lacks name/unit"))
                })
                .collect()
        };
        let declared = Declared {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        };
        let same = |have: &[(String, String)], want: Vec<String>, key: &str| {
            let mut have: Vec<&str> = have.iter().map(|(n, _)| n.as_str()).collect();
            let mut want: Vec<&str> = want.iter().map(String::as_str).collect();
            have.sort_unstable();
            want.sort_unstable();
            if have == want {
                Ok(())
            } else {
                Err(format!(
                    "BENCHMARK.json `{key}` declares {have:?}, the benchmark measures {want:?}"
                ))
            }
        };
        same(
            &declared.end_to_end,
            END_TO_END.iter().map(|&n| n.to_owned()).collect(),
            "end_to_end",
        )?;
        same(&declared.per_layer, layer_names(), "per_layer")?;
        Ok(declared)
    }

    /// Renders the end-to-end metrics; each must be measured, finite
    /// and positive.
    pub fn end_to_end(&self, measured: &Metrics) -> Result<String, String> {
        render(&self.end_to_end, |name| match measured.get(name) {
            Some(v) if v.is_finite() && v > 0.0 => Ok(v),
            other => Err(format!("end-to-end metric `{name}` measured as {other:?}")),
        })
    }

    /// Renders the per-layer metrics; a layer with no work on this
    /// workload reads zero.
    pub fn per_layer(&self, measured: &Metrics) -> Result<String, String> {
        if let Some((name, _)) = measured
            .0
            .iter()
            .find(|(n, _)| !self.per_layer.iter().any(|(d, _)| d == n))
        {
            return Err(format!("per-layer metric `{name}` is not declared"));
        }
        render(&self.per_layer, |name| match measured.get(name) {
            Some(v) if !v.is_finite() => Err(format!("per-layer metric `{name}` is {v}")),
            v => Ok(v.unwrap_or(0.0)),
        })
    }
}

fn render(
    declared: &[(String, String)],
    value: impl Fn(&str) -> Result<f64, String>,
) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, unit)) in declared.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = value(name)?;
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Git revision and compiler version, for the provenance line. Outside
/// a git checkout the revision reads `unknown`.
pub fn provenance() -> String {
    let first_line = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned())
    };
    format!(
        "git={} rustc=\"{}\"",
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        first_line("rustc", &["-V"])
    )
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated.
/// Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
