//! The closed serving loop and the metric assembly shared by every
//! workload: one client thread, the next call sent only after the
//! previous one returned, every answer checked against the oracle.

use crate::inputs::Inputs;
use crate::replay::{self, Replays};
use crate::report::{median, percentile, CpuTicks, Json, Latencies, Repeats};
use crate::run::Ctx;
use crate::trace::SpanId;
use dsidx::series::Match;
use dsidx::{BatchStats, QuerySpec, QueryStats, Search};
use std::time::{Duration, Instant};

/// Calls served (and checked) before timing starts: the first call and
/// the pool's spin-up are not what a steady client sees.
pub const WARMUP_CALLS: usize = 3;

/// A traced run alternates this many untraced and traced slices of
/// equal length, so host drift during the run reaches both sides of
/// `trace.overhead_pct` alike.
pub const TRACE_SLICES: u32 = 5;

/// What untraced serving measured, window by window.
#[derive(Debug, Default)]
pub struct Served {
    pub calls: usize,
    pub queries: usize,
    pub wall: Duration,
    pub lat: Latencies,
    /// Queries answered and wall seconds of each serving window.
    pub windows: Vec<(usize, f64)>,
    /// The machine's steal share of CPU time in each serving window.
    pub steal: Vec<f64>,
    /// Pool worker time busy and parked, and all accounted worker time
    /// (busy + spinning + parked), in worker-nanoseconds. A worker's
    /// interval is accounted when it ends, so shares are taken of the
    /// accounted time, not of the wall time.
    pub busy_ns: f64,
    pub parked_ns: f64,
    pub worker_ns: f64,
    /// This process's CPU seconds, and the machine's steal ticks out of
    /// all ticks, over the serving windows.
    pub cpu_s: f64,
    pub steal_ticks: f64,
    pub ticks: f64,
}

impl Served {
    /// Queries over the whole serving wall time.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall.as_secs_f64()
    }

    pub fn busy_frac(&self) -> f64 {
        self.busy_ns / self.worker_ns.max(1.0)
    }

    pub fn parked_frac(&self) -> f64 {
        self.parked_ns / self.worker_ns.max(1.0)
    }

    /// The machine's steal share of CPU time over the serving windows.
    pub fn steal_frac(&self) -> f64 {
        self.steal_ticks / self.ticks.max(1.0)
    }

    pub fn absorb(&mut self, w: Served) {
        self.calls += w.calls;
        self.queries += w.queries;
        self.wall += w.wall;
        self.lat.append(w.lat);
        self.windows.extend(w.windows);
        self.steal.extend(w.steal);
        self.busy_ns += w.busy_ns;
        self.parked_ns += w.parked_ns;
        self.worker_ns += w.worker_ns;
        self.cpu_s += w.cpu_s;
        self.steal_ticks += w.steal_ticks;
        self.ticks += w.ticks;
    }
}

/// One serving window in progress: pool worker accounting and CPU ticks
/// from the window's start.
pub struct Window {
    pool: std::sync::Arc<dsidx::sync::WorkerPool>,
    workers: Vec<dsidx::sync::pool::WorkerStats>,
    ticks: CpuTicks,
    start: Instant,
}

impl Window {
    pub fn start(threads: usize) -> Self {
        let pool = dsidx::sync::pool::global(threads);
        let workers = pool.worker_stats();
        Self {
            pool,
            workers,
            ticks: CpuTicks::now(),
            start: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the window over `calls` calls that answered `queries`
    /// queries with latencies `lat`.
    pub fn finish(self, calls: usize, queries: usize, lat: Latencies) -> Served {
        let wall = self.start.elapsed();
        let after = self.pool.worker_stats();
        let delta = |f: fn(&dsidx::sync::pool::WorkerStats) -> u64| -> f64 {
            after
                .iter()
                .zip(&self.workers)
                .map(|(a, b)| (f(a) - f(b)) as f64)
                .sum()
        };
        let now = CpuTicks::now();
        let steal_ticks = now.steal.saturating_sub(self.ticks.steal) as f64;
        let ticks = now.total.saturating_sub(self.ticks.total) as f64;
        Served {
            calls,
            queries,
            wall,
            lat,
            windows: vec![(queries, wall.as_secs_f64())],
            steal: vec![steal_ticks / ticks.max(1.0)],
            busy_ns: delta(|w| w.busy_nanos),
            parked_ns: delta(|w| w.parked_nanos),
            worker_ns: delta(|w| w.busy_nanos + w.idle_nanos + w.parked_nanos),
            cpu_s: now.process.saturating_sub(self.ticks.process) as f64 / CpuTicks::PER_SECOND,
            steal_ticks,
            ticks,
        }
    }
}

/// Sums over a traced phase: span time next to the counters the program
/// returned for the same calls.
#[derive(Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub queries: u64,
    /// `core.search` span time.
    pub search_ns: u64,
    /// Time of the spans that hold what the untraced loop also does (the
    /// `call`/`cycle` spans), for `trace.overhead_pct`.
    pub call_ns: u64,
    /// Engine batch entry span time, on the same batches.
    pub engine_ns: u64,
    pub stats: QueryStats,
    pub broadcasts: u64,
}

impl Totals {
    pub fn add(&mut self, stats: &BatchStats, queries: usize, search_ns: u64) {
        self.calls += 1;
        self.queries += queries as u64;
        self.search_ns += search_ns;
        self.stats = self.stats.merged(&stats.total());
        self.broadcasts += stats.broadcasts;
    }

    fn per_query(&self, v: u64) -> f64 {
        v as f64 / self.queries.max(1) as f64
    }
}

pub fn warm_up(ctx: &mut Ctx, inp: &Inputs, index: &impl Search) {
    let w = ctx.workload;
    for call in 0..WARMUP_CALLS {
        let batch = inp.batch_index(w, call);
        let qs = inp.batch_queries(w, batch);
        let answered = index.search(&qs, &w.spec());
        if let Some(answers) = ctx.attempt("search (warm-up)", answered) {
            ctx.check(
                "search (warm-up)",
                answers.matches(),
                inp.batch_oracle(w, batch),
                &inp.data,
                &qs,
            );
        }
    }
}

/// One untraced serving window: the closed loop over the query pool for
/// `dur`, resuming the pool cycle where the previous window stopped.
pub fn serve(ctx: &mut Ctx, inp: &Inputs, index: &impl Search, dur: Duration) -> Served {
    let w = ctx.workload;
    let spec = w.spec();
    let (mut calls, mut queries, mut lat) = (0usize, 0usize, Latencies::default());
    let window = Window::start(ctx.threads);
    while window.elapsed() < dur {
        let batch = inp.batch_index(w, WARMUP_CALLS + ctx.served_calls);
        ctx.served_calls += 1;
        let qs = inp.batch_queries(w, batch);
        let t = Instant::now();
        let answered = index.search(&qs, &spec);
        lat.push_ns(elapsed_ns(t), ctx.window);
        calls += 1;
        if let Some(answers) = ctx.attempt("search", answered) {
            queries += answers.len();
            ctx.check(
                "search",
                answers.matches(),
                inp.batch_oracle(w, batch),
                &inp.data,
                &qs,
            );
        }
    }
    window.finish(calls, queries, lat)
}

/// One facade search with statistics, timed as a `core.search` span.
pub fn traced_search(
    ctx: &mut Ctx,
    op: u64,
    parent: Option<SpanId>,
    index: &impl Search,
    queries: &[&[f32]],
    spec: &QuerySpec,
) -> Option<(Vec<Vec<Match>>, BatchStats, u64)> {
    let span = ctx.begin("core.search", op, parent);
    let answered = index.search(queries, spec);
    let ns = ctx.end_ns(span);
    let (matches, stats) = ctx.attempt("search", answered)?.into_parts_with_stats();
    Some((matches, stats, ns))
}

/// Records every work counter of a served batch for the repeatability
/// check (the same batch is served many times in one run).
pub fn record_repeats(repeats: &mut Repeats, batch: usize, stats: &BatchStats) {
    let t = stats.total();
    for (name, value) in [
        ("lb_computed", t.lb_computed),
        ("candidates", t.candidates),
        ("nodes_pruned", t.nodes_pruned),
        ("leaves_enqueued", t.leaves_enqueued),
        ("leaves_processed", t.leaves_processed),
        ("leaves_discarded", t.leaves_discarded),
        ("lb_entry_computed", t.lb_entry_computed),
        ("lb_keogh_computed", t.lb_keogh_computed),
        ("lb_keogh_pruned", t.lb_keogh_pruned),
        ("dtw_abandoned", t.dtw_abandoned),
        ("real_computed", t.real_computed),
        ("broadcasts", stats.broadcasts),
    ] {
        repeats.record(name, batch, value);
    }
}

/// Calls whose queries the kernel replays rerun after a traced phase.
const REPLAYED_CALLS: usize = 256;

/// Kernel replays on the queries of (up to [`REPLAYED_CALLS`] evenly
/// spaced) calls of the traced phase, each under a `replay` root span
/// carrying the call's id.
pub fn replay_calls(ctx: &mut Ctx, inp: &Inputs, replays: &Replays, served: &[(u64, usize)]) {
    let w = ctx.workload;
    let step = served.len().div_ceil(REPLAYED_CALLS).max(1);
    for &(op, batch) in served.iter().step_by(step) {
        let qs = inp.batch_queries(w, batch);
        let root = ctx.begin("replay", op, None);
        replays.run(ctx, op, root, inp, &qs);
        ctx.end(root);
    }
}

/// Steal share below which a window always counts as undisturbed.
const STEAL_FLOOR: f64 = 0.02;

/// The windows whose samples the end-to-end metrics use: those in which
/// the hypervisor took at most [`STEAL_FLOOR`] of the machine's CPU time
/// (steal time, from `/proc/stat`), or failing that the half of the
/// windows (rounded up) with the least steal. On a shared host the share
/// it takes swings between about 1% and 35% within a minute, and a window
/// with heavy steal measures the neighbours, not the program.
pub fn clean_windows(s: &Served) -> Vec<bool> {
    let mut sorted = s.steal.clone();
    sorted.sort_by(f64::total_cmp);
    let Some(&median) = sorted.get(s.steal.len().saturating_sub(1) / 2) else {
        return Vec::new();
    };
    let limit = median.max(STEAL_FLOOR);
    s.steal.iter().map(|&st| st <= limit).collect()
}

pub fn put_end_to_end(ctx: &mut Ctx, s: &Served, keep: &[bool]) {
    let pct = ctx.workload.tail_pct();
    let calls = s.lat.kept(keep);
    let (tail, beyond) = percentile(&calls, pct);
    let (queries, wall, kept) = s
        .windows
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .fold((0, 0.0, 0), |(q, w, n), (&(wq, ww), _)| {
            (q + wq, w + ww, n + 1)
        });
    let e = &mut ctx.end_to_end;
    e.put("qps", queries as f64 / wall, "queries/s");
    e.put("call_ms.p50", median(&calls), "ms");
    e.put("call_ms.tail", tail, "ms");
    ctx.fact("calls", Json::Int(s.calls as i64));
    ctx.fact("queries", Json::Int(s.queries as i64));
    ctx.fact("serve_wall_s", Json::Num(s.wall.as_secs_f64()));
    ctx.fact("call_ms.tail_percentile", Json::Num(pct));
    ctx.fact("call_ms.tail_calls_beyond", Json::Int(beyond as i64));
    ctx.fact("call_ms", s.lat.summary(keep));
    ctx.fact("qps_total", Json::Num(s.qps()));
    let window_qps = s.windows.iter().map(|&(q, w)| Json::Num(q as f64 / w));
    ctx.fact("qps_windows", Json::Arr(window_qps.collect()));
    ctx.fact(
        "window_steal",
        Json::Arr(s.steal.iter().copied().map(Json::Num).collect()),
    );
    ctx.fact("windows_kept", Json::Int(kept));
    ctx.fact("serve_cpu_s", Json::Num(s.cpu_s));
    ctx.fact("host_steal_frac", Json::Num(s.steal_frac()));
}

pub fn put_snapshot(
    ctx: &mut Ctx,
    save: &Latencies,
    open: &Latencies,
    bytes: u64,
    count: usize,
    keep: &[bool],
    residual_ms: &[f64],
) {
    let e = &mut ctx.end_to_end;
    e.put("open_ms.p50", open.median(keep), "ms");
    e.put("save_ms.p50", save.median(keep), "ms");
    e.put(
        "snapshot_bytes_per_series",
        bytes as f64 / count as f64,
        "bytes",
    );
    ctx.fact("open_ms", open.summary(keep));
    ctx.fact("save_ms", save.summary(keep));
    if ctx.traced() {
        ctx.per_layer
            .put("core.open_residual_ms", median(residual_ms), "ms");
    }
}

/// `setup_s` from build times (in milliseconds) of the kept windows.
pub fn put_setup(ctx: &mut Ctx, builds: &Latencies, keep: &[bool]) {
    ctx.end_to_end
        .put("setup_s", builds.median(keep) / 1e3, "s");
    ctx.fact("setup_s", builds.summary(keep));
}

/// The per-layer metrics every workload has: span means of the traced
/// slices and their replays, divided by the counters of the same calls.
/// `plain` is the untraced slices, `traced` the host readings over the
/// traced ones.
pub fn put_trace_layers(ctx: &mut Ctx, plain: &Served, traced: &Served, t: &Totals) {
    let spans = ctx.rec.as_ref().expect("traced run").totals();
    let mean_ns = |name: &str| spans.get(name).map_or(0.0, |s| s.mean_ns());
    let calls = t.calls.max(1) as f64;
    let engine_ns_per_query = t.per_query(t.engine_ns);
    let lookup_ns = mean_ns("isax.lookup") / replay::WORDS as f64;
    let entry_bounds = t.per_query(t.stats.lb_entry_computed);
    let dtw_runs = t.stats.dtw_abandoned + t.stats.real_computed;
    let traced_qps = t.queries as f64 / (t.call_ns as f64 / 1e9);
    let p = &mut ctx.per_layer;
    p.put("core.search_us", t.search_ns as f64 / calls / 1e3, "us");
    p.put(
        "core.overhead_us",
        (t.search_ns as f64 - t.engine_ns as f64) / calls / 1e3,
        "us",
    );
    p.put("query.prepare_us", mean_ns("query.prepare") / 1e3, "us");
    p.put(
        "query.batch_setup_us",
        mean_ns("query.batch_setup") / 1e3,
        "us",
    );
    p.put("sync.broadcast_us", mean_ns("sync.broadcast") / 1e3, "us");
    p.put(
        "sync.broadcasts_per_query",
        t.per_query(t.broadcasts),
        "count",
    );
    p.put("sync.worker_busy_frac", plain.busy_frac(), "ratio");
    p.put("sync.worker_parked_frac", plain.parked_frac(), "ratio");
    p.put("isax.entry_bounds_per_query", entry_bounds, "count");
    p.put("isax.lookup_ns", lookup_ns, "ns");
    p.put(
        "isax.lookup_many_ns",
        mean_ns("isax.lookup_many") / replay::WORDS as f64,
        "ns",
    );
    p.put(
        "isax.node_lookup_ns",
        mean_ns("isax.node_lookup") / replay::NODES as f64,
        "ns",
    );
    p.put(
        "isax.entry_bound_share",
        if engine_ns_per_query > 0.0 {
            entry_bounds * lookup_ns / engine_ns_per_query
        } else {
            0.0
        },
        "ratio",
    );
    p.put(
        "series.real_per_query",
        t.per_query(t.stats.real_computed),
        "count",
    );
    p.put(
        "series.ed_ns",
        mean_ns("series.ed") / replay::ED_SERIES as f64,
        "ns",
    );
    p.put(
        "series.lb_keogh_per_query",
        t.per_query(t.stats.lb_keogh_computed),
        "count",
    );
    p.put(
        "series.lb_keogh_pruned_ratio",
        t.stats.lb_keogh_pruned as f64 / t.stats.lb_keogh_computed.max(1) as f64,
        "ratio",
    );
    p.put(
        "series.dtw_abandoned_ratio",
        t.stats.dtw_abandoned as f64 / dtw_runs.max(1) as f64,
        "ratio",
    );
    p.put(
        "series.lb_keogh_ns",
        mean_ns("series.lb_keogh") / replay::LB_SERIES as f64,
        "ns",
    );
    p.put(
        "series.dtw_ns",
        mean_ns("series.dtw") / replay::DTW_SERIES as f64,
        "ns",
    );
    p.put("tree.encode_ms", mean_ns("tree.encode") / 1e6, "ms");
    p.put("tree.decode_ms", mean_ns("tree.decode") / 1e6, "ms");
    p.put(
        "storage.snapshot_read_ms",
        mean_ns("storage.snapshot_read") / 1e6,
        "ms",
    );
    p.put(
        "storage.snapshot_write_ms",
        mean_ns("storage.snapshot_write") / 1e6,
        "ms",
    );
    p.put(
        "storage.leafstore_open_ms",
        mean_ns("storage.leafstore_open") / 1e6,
        "ms",
    );
    p.put(
        "trace.overhead_pct",
        (plain.qps() - traced_qps) / plain.qps() * 100.0,
        "%",
    );
    ctx.fact("traced_calls", Json::Int(t.calls as i64));
    ctx.fact("traced_queries", Json::Int(t.queries as i64));
    ctx.fact("untraced_qps", Json::Num(plain.qps()));
    ctx.fact("traced_qps", Json::Num(traced_qps));
    ctx.fact("untraced_steal_frac", Json::Num(plain.steal_frac()));
    ctx.fact("traced_steal_frac", Json::Num(traced.steal_frac()));
}

pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
