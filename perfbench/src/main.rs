//! perfbench — end-to-end linking benchmark for metablink-rs.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_dict_unique --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `serve_dict_unique`, `serve_store_zipf`, `bulk_link` (see
//! `perfbench/README.md`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Everything
//! above it is the human-readable report.

mod bulk;
mod client;
mod serve;
mod setup;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_low_ms", "ms"),
    ("p50_high_ms", "ms"),
    ("capacity_rps", "req/s"),
    ("reload_s", "s"),
    ("rss_mb", "MB"),
    ("mentions_per_s", "1/s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wait_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.service_ewma_us", "us"),
    ("serve.shed", "count"),
    ("serve.http_us", "us"),
    ("store.open_s", "s"),
    ("store.tables_s", "s"),
    ("ivf.load_s", "s"),
    ("ivf.build_s", "s"),
    ("tokenize.us", "us"),
    ("cache.hit_rate", "ratio"),
    ("repeat_share", "ratio"),
    ("embed.us", "us"),
    ("embed.rows", "count"),
    ("retrieve.us", "us"),
    ("retrieve.recall64", "ratio"),
    ("assemble.us", "us"),
    ("assemble.candidates", "count"),
    ("rerank.us", "us"),
    ("rerank.pairs", "count"),
    ("mem.kb_text_bytes", "bytes"),
    ("mem.frozen_table_bytes", "bytes"),
    ("mem.qindex_bytes", "bytes"),
    ("mem.store_table_bytes", "bytes"),
    ("mem.ivf_packed_bytes", "bytes"),
    ("setup.world_s", "s"),
    ("setup.model_s", "s"),
    ("setup.entity_embed_s", "s"),
    ("setup.store_write_s", "s"),
    ("setup.ivf_build_s", "s"),
    ("setup.server_start_s", "s"),
    ("gen.late_frac", "ratio"),
    ("trace.residual_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
}

/// Per-phase request counts and sorted latencies.
pub struct PhaseTally {
    pub name: &'static str,
    pub sent: u64,
    pub ok: u64,
    pub shed: u64,
    pub failed: u64,
    pub late: u64,
    pub latencies_ms: Vec<f64>,
}

impl PhaseTally {
    pub fn new(name: &'static str) -> PhaseTally {
        PhaseTally { name, sent: 0, ok: 0, shed: 0, failed: 0, late: 0, latencies_ms: Vec::new() }
    }

    /// Counts, then p50 and each tail percentile with the samples beyond
    /// it; a tail with fewer than ten samples beyond it is marked.
    pub fn print(&self) {
        let n = self.latencies_ms.len();
        let mut line = format!(
            "phase {:<5} sent {:>6} ok {:>6} shed {:>4} failed {:>4} late {:>5} | n {n} p50 {:.3} ms",
            self.name,
            self.sent,
            self.ok,
            self.shed,
            self.failed,
            self.late,
            quantile(&self.latencies_ms, 0.5)
        );
        for q in [0.90, 0.95, 0.99] {
            let beyond = (n as f64 * (1.0 - q)).floor() as usize;
            let mark = if beyond >= 10 { "" } else { " (too few)" };
            line += &format!(
                " p{:.0} {:.3} ms [{beyond} beyond]{mark}",
                q * 100.0,
                quantile(&self.latencies_ms, q)
            );
        }
        println!("{line}");
    }
}

/// Linear-interpolated quantile of sorted values (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Scratch space inside the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build/perfbench-traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir(PathBuf::from(".bench_build/perfbench-work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    match args.workload.as_str() {
        "serve_dict_unique" => serve::run(args, false, &work.0),
        "serve_store_zipf" => serve::run(args, true, &work.0),
        "bulk_link" => bulk::run(args, &work.0),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: every metric of the mode, by name and unit.
fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let (list, values) = if args.trace { (PER_LAYER, &out.layers) } else { (END_TO_END, &out.e2e) };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let v =
            values.get(name).copied().ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let out = run(&args)?;
        for (list, values) in [(END_TO_END, &out.e2e), (PER_LAYER, &out.layers)] {
            for (name, unit) in list {
                if let Some(v) = values.get(name) {
                    println!("{name:<24} {v:>16.6} {unit}");
                }
            }
        }
        result_line(&args, &out)
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
