//! The repository benchmark: drives `MemoryIndex` and `DiskIndex` through
//! the public facade on one named workload and prints every metric.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the run descriptor. Both, plus the spans of a traced run, are also
//! written under `.perfbench/runs/`.

mod disk;
mod inputs;
mod mem;
mod replay;
mod report;
mod run;
mod selfcheck;
mod serve;
mod trace;

use inputs::Workload;
use report::{proc_status_kb, Json};
use run::Ctx;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "queries/s"),
    ("call_ms.p50", "ms"),
    ("call_ms.tail", "ms"),
    ("open_ms.p50", "ms"),
    ("save_ms.p50", "ms"),
    ("rss_peak_mb", "MB"),
    ("snapshot_bytes_per_series", "bytes"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`). A layer a
/// workload never calls reports 0 and is listed as not applicable in the
/// descriptor.
const PER_LAYER: [(&str, &str); 50] = [
    ("core.search_us", "us"),
    ("core.overhead_us", "us"),
    ("core.open_residual_ms", "ms"),
    ("query.prepare_us", "us"),
    ("query.batch_setup_us", "us"),
    ("sync.broadcast_us", "us"),
    ("sync.broadcasts_per_query", "count"),
    ("sync.worker_busy_frac", "ratio"),
    ("sync.worker_parked_frac", "ratio"),
    ("messi.engine_ms_per_query", "ms"),
    ("messi.nodes_pruned", "count"),
    ("messi.leaves_enqueued", "count"),
    ("messi.leaves_processed", "count"),
    ("messi.leaves_discarded", "count"),
    ("messi.leaf_useful_ratio", "ratio"),
    ("messi.build_summarize_ms", "ms"),
    ("messi.build_tree_ms", "ms"),
    ("isax.entry_bounds_per_query", "count"),
    ("isax.lookup_ns", "ns"),
    ("isax.lookup_many_ns", "ns"),
    ("isax.node_lookup_ns", "ns"),
    ("isax.entry_bound_share", "ratio"),
    ("series.real_per_query", "count"),
    ("series.ed_ns", "ns"),
    ("series.lb_keogh_per_query", "count"),
    ("series.lb_keogh_pruned_ratio", "ratio"),
    ("series.dtw_abandoned_ratio", "ratio"),
    ("series.lb_keogh_ns", "ns"),
    ("series.dtw_ns", "ns"),
    ("paris.engine_ms_per_query", "ms"),
    ("paris.lb_per_query", "count"),
    ("paris.candidates_per_query", "count"),
    ("paris.verify_ratio", "ratio"),
    ("paris.build_read_ms", "ms"),
    ("paris.build_stall_ms", "ms"),
    ("paris.build_grow_cpu_ms", "ms"),
    ("paris.build_flush_ms", "ms"),
    ("storage.bytes_read_per_query", "bytes"),
    ("storage.seeks_per_query", "count"),
    ("storage.device_ms_per_query", "ms"),
    ("storage.build_bytes_written", "bytes"),
    ("storage.build_seeks", "count"),
    ("storage.open_bytes_read", "bytes"),
    ("storage.open_device_ms", "ms"),
    ("storage.snapshot_read_ms", "ms"),
    ("storage.snapshot_write_ms", "ms"),
    ("storage.leafstore_open_ms", "ms"),
    ("tree.encode_ms", "ms"),
    ("tree.decode_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload <mem-point|mem-batch-hard|mem-dtw|disk-cold> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfCheck,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-check") {
        return Ok(Mode::SelfCheck);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    // The library at its defaults: no environment overrides.
    let cleared: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DSIDX_"))
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::SelfCheck) => return selfcheck::run(),
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &cleared) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, cleared: &[String]) -> std::io::Result<()> {
    let w = args.workload;
    let root = PathBuf::from(".perfbench");
    let cache = root.join("cache");
    let runs = root.join("runs");
    let tmp = root.join("tmp").join(std::process::id().to_string());
    for dir in [&cache, &runs, &tmp] {
        std::fs::create_dir_all(dir)?;
    }
    let mut ctx = Ctx::new(
        w,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        args.trace,
        tmp.clone(),
    );
    let inputs = inputs::make(w, args.seed, &cache, ctx.threads)?;
    match w {
        Workload::DiskCold => disk::run(&mut ctx, &inputs),
        _ => mem::run(&mut ctx, &inputs),
    }
    let rss_mb = proc_status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0);
    ctx.end_to_end.put("rss_peak_mb", rss_mb, "MB");
    let _ = std::fs::remove_dir_all(&tmp);

    let (metrics, not_applicable) = if args.trace {
        complete(&ctx.per_layer, &PER_LAYER, 0.0)
    } else {
        complete(&ctx.end_to_end, &END_TO_END, f64::NAN)
    };

    let mut descriptor = vec![
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(ctx.threads as i64)),
        ("simd", Json::Bool(dsidx::series::distance::simd_enabled())),
        ("git_revision", Json::str(git_revision())),
        ("source_digest", Json::str(source_digest())),
        (
            "dsidx_env_cleared",
            Json::Arr(cleared.iter().map(|k| Json::str(k.as_str())).collect()),
        ),
        ("attempted", Json::Int(ctx.attempted as i64)),
        ("failed", Json::Int(ctx.failed as i64)),
        (
            "failed_frac",
            Json::Num(ctx.failed as f64 / ctx.attempted.max(1) as f64),
        ),
        ("failures", ctx.failures_json()),
        (
            "inputs",
            Json::obj([
                ("dataset", Json::str(w.kind().name())),
                ("series", Json::Int(w.series_count() as i64)),
                ("series_len", Json::Int(inputs::SERIES_LEN as i64)),
                ("query_pool", Json::Int(w.pool() as i64)),
                ("queries_per_call", Json::Int(w.batch() as i64)),
                ("k", Json::Int(w.k() as i64)),
                ("generate_s", Json::Num(inputs.gen_s)),
                ("oracle_s", Json::Num(inputs.oracle_s)),
                ("oracle_cached", Json::Bool(inputs.oracle_cached)),
            ]),
        ),
        (
            "not_applicable",
            Json::Arr(not_applicable.iter().map(|n| Json::str(*n)).collect()),
        ),
    ];
    let mut descriptor: Vec<(String, Json)> = descriptor
        .drain(..)
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    descriptor.append(&mut ctx.facts);
    if let Some(rec) = &ctx.rec {
        let layers = rec.totals().into_iter().map(|(name, t)| {
            (
                name,
                Json::obj([
                    ("count", Json::Int(t.count as i64)),
                    ("total_ms", Json::Num(t.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(t.self_ns as f64 / 1e6)),
                ]),
            )
        });
        descriptor.push(("spans".to_owned(), Json::obj(layers)));
    }
    let descriptor = Json::Obj(descriptor);
    let result = Json::obj([
        ("correct", Json::Bool(ctx.failed == 0 && ctx.attempted > 0)),
        ("attempted", Json::Int(ctx.attempted.max(1) as i64)),
        ("failed", Json::Int(ctx.failed as i64)),
        ("metrics", metrics.to_json()),
    ]);

    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = Json::obj([
        ("descriptor", descriptor.clone()),
        ("result", result.clone()),
    ]);
    std::fs::write(runs.join(format!("{stem}.json")), record.render())?;
    if let Some(rec) = &ctx.rec {
        std::fs::write(runs.join(format!("{stem}.spans.jsonl")), rec.to_jsonl())?;
    }
    println!("{}", descriptor.render());
    println!("{}", result.render());
    Ok(())
}

/// `metrics` restricted to and ordered by `names`; a missing metric gets
/// `missing` and is returned in the second list.
fn complete(
    metrics: &report::Metrics,
    names: &[(&'static str, &'static str)],
    missing: f64,
) -> (report::Metrics, Vec<&'static str>) {
    let mut out = report::Metrics::default();
    let mut absent = Vec::new();
    for &(name, unit) in names {
        let value = metrics.get(name).unwrap_or_else(|| {
            absent.push(name);
            missing
        });
        out.put(name, value, unit);
    }
    (out, absent)
}

/// The commit under test, when the working directory is the top of a git
/// checkout (not a directory nested in some other repository).
fn git_revision() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    };
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| std::fs::canonicalize(t).ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned())
        }
        _ => "unknown".to_owned(),
    }
}

/// FNV-1a over the library sources (path and contents, sorted by path):
/// identifies the code under test where no git revision exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
