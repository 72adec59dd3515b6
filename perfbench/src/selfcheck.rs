//! Self-check of the failure accounting: a tiny sharded index whose second
//! shard's reads start failing mid-run must show up as a non-zero
//! `failed_frac`, through the same counting path the workloads use — not
//! as a panic.

use crate::inputs::Workload;
use crate::report::Json;
use crate::run::Ctx;
use dsidx::series::gen::DatasetKind;
use dsidx::{Engine, Options, QuerySpec, Search, ShardedIndex};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const SERIES: usize = 2_000;
const LEN: usize = 64;
const QUERIES: usize = 16;
/// Reads shard 1 serves before every further read fails.
const READS_BEFORE_FAILURE: u64 = 40;

pub fn run() -> ExitCode {
    let data = DatasetKind::Synthetic.generate(SERIES, LEN, 7);
    let queries = DatasetKind::Synthetic.queries(QUERIES, LEN, 7);
    // Only the accounting of `Ctx` is used; the workload tag is unused.
    let mut ctx = Ctx::new(Workload::MemPoint, 7, Duration::ZERO, false, PathBuf::new());
    let built = ShardedIndex::build_in_memory(&data, 2, Engine::Messi, &Options::default());
    let Some(mut index) = ctx.attempt("build", built) else {
        return finish(&ctx);
    };
    if ctx
        .attempt(
            "fault injection",
            index.fault_inject_shard(1, READS_BEFORE_FAILURE),
        )
        .is_none()
    {
        return finish(&ctx);
    }
    for q in queries.iter() {
        let want = [dsidx::ucr::brute_force_knn(&data, q, 1)];
        if let Some(answers) = ctx.attempt("search", index.search(&[q], &QuerySpec::nn())) {
            ctx.check("search", answers.matches(), &want, &data, &[q]);
        }
    }
    finish(&ctx)
}

fn finish(ctx: &Ctx) -> ExitCode {
    let failed_frac = ctx.failed as f64 / ctx.attempted.max(1) as f64;
    println!(
        "{}",
        Json::obj([
            ("self_check", Json::str("sharded fault injection")),
            ("failures", ctx.failures_json()),
        ])
        .render()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(ctx.failed == 0)),
            ("attempted", Json::Int(ctx.attempted as i64)),
            ("failed", Json::Int(ctx.failed as i64)),
            (
                "metrics",
                Json::obj([(
                    "failed_frac",
                    Json::obj([
                        ("value", Json::Num(failed_frac)),
                        ("unit", Json::str("ratio"))
                    ]),
                )]),
            ),
        ])
        .render()
    );
    // The check passes when the injected fault was counted.
    if failed_frac > 0.0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: self-check: the injected fault was not counted");
        ExitCode::FAILURE
    }
}
