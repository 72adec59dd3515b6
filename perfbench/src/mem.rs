//! The in-memory workloads (`mem-point`, `mem-batch-hard`, `mem-dtw`):
//! `MemoryIndex` MESSI driven through `build`, `save`, `open` and
//! `Search::search`, one client thread in a closed loop.

use crate::inputs::{Inputs, SERIES_LEN};
use crate::replay::{self, Replays};
use crate::report::{Latencies, Repeats};
use crate::run::Ctx;
use crate::serve::{self, elapsed_ns, Served, Totals, Window};
use dsidx::messi::{MessiConfig, MessiIndex};
use dsidx::series::Match;
use dsidx::storage::Device;
use dsidx::{Engine, Measure, MemoryIndex, Search};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Facade builds per run, spread over the serving windows (the first one
/// serves); `setup_s` is their median.
const SETUP_BUILDS: usize = 30;
/// Save/open rounds per run, spread like the builds; `save_ms.p50` and
/// `open_ms.p50` are their medians.
const SNAPSHOT_ROUNDS: usize = 30;

pub fn run(ctx: &mut Ctx, inp: &Inputs) {
    let opts = ctx.opts.clone();
    let mut probes = Probes::default();
    let Some(index) = probes.build(ctx, inp) else {
        probes.put(ctx, inp, &[]);
        return;
    };

    // The engine entry the facade dispatches to, over an index built
    // directly, for `core.overhead_us` and MESSI's build phases.
    let direct = ctx.traced().then(|| {
        let cfg = MessiConfig::new(
            opts.tree_config(SERIES_LEN)
                .expect("default options fit the workload"),
            ctx.threads,
        )
        .with_queues(opts.queues);
        let op = ctx.op();
        let (messi, phases) = ctx.span("messi.build", op, None, || {
            dsidx::messi::build(&inp.data, &cfg)
        });
        ctx.per_layer.put(
            "messi.build_summarize_ms",
            phases.summarize.as_secs_f64() * 1e3,
            "ms",
        );
        ctx.per_layer.put(
            "messi.build_tree_ms",
            phases.tree_build.as_secs_f64() * 1e3,
            "ms",
        );
        let replays = Replays::new(&messi.index, &messi.sax, ctx.seed);
        (messi, cfg, replays)
    });

    serve::warm_up(ctx, inp, &index);
    let Some((messi, cfg, replays)) = &direct else {
        let windows = ctx.workload.windows();
        let mut served = Served::default();
        for window in 0..windows {
            ctx.window = window;
            probes.run_share(ctx, inp, &index, window, windows);
            let dur = ctx.serve / windows as u32;
            served.absorb(serve::serve(ctx, inp, &index, dur));
        }
        let keep = serve::clean_windows(&served);
        probes.put(ctx, inp, &keep);
        serve::put_end_to_end(ctx, &served, &keep);
        return;
    };
    probes.run_share(ctx, inp, &index, 0, 1);
    probes.put(ctx, inp, &[]);
    // Untraced and traced slices alternate: the untraced ones are the
    // reference for `trace.overhead_pct` and the pool's busy/parked
    // shares only.
    let slice = ctx.serve / (2 * serve::TRACE_SLICES);
    let (mut plain, mut host) = (Served::default(), Served::default());
    let mut traced = Traced::default();
    for _ in 0..serve::TRACE_SLICES {
        plain.absorb(serve::serve(ctx, inp, &index, slice));
        let window = Window::start(ctx.threads);
        traced.serve(ctx, inp, &index, messi, cfg, slice);
        host.absorb(window.finish(0, 0, Latencies::default()));
    }
    ctx.fact("counts_repeat_within_run", traced.repeats.to_json());
    serve::replay_calls(ctx, inp, replays, &traced.served);
    serve::put_trace_layers(ctx, &plain, &host, &traced.totals);
    put_messi_layers(ctx, &traced.totals);
}

/// Set-up samples, taken between serving windows so a slow stretch of the
/// host hits a share of them rather than all, and tagged with the window
/// they precede (a traced run takes them in one block): facade builds,
/// and save/open rounds on a snapshot file with one checked query on every
/// opened index (a traced run replays each open layer by layer).
#[derive(Default)]
struct Probes {
    builds: Latencies,
    save: Latencies,
    open: Latencies,
    bytes: u64,
    residual_ms: Vec<f64>,
}

impl Probes {
    fn build(&mut self, ctx: &mut Ctx, inp: &Inputs) -> Option<MemoryIndex> {
        let opts = ctx.opts.clone();
        let op = ctx.op();
        let t = Instant::now();
        let built = ctx.span("core.build", op, None, || {
            MemoryIndex::build(Arc::clone(&inp.data), Engine::Messi, &opts)
        });
        self.builds.push_ns(elapsed_ns(t), ctx.window);
        ctx.attempt("build", built)
    }

    /// The builds and rounds that fall before serving window `window` of
    /// `windows`.
    fn run_share(
        &mut self,
        ctx: &mut Ctx,
        inp: &Inputs,
        index: &MemoryIndex,
        window: usize,
        windows: usize,
    ) {
        let share = |total: usize| total * (window + 1) / windows - total * window / windows;
        for _ in 0..share(SETUP_BUILDS - 1) {
            drop(self.build(ctx, inp));
        }
        for _ in 0..share(SNAPSHOT_ROUNDS) {
            self.round(ctx, inp, index);
        }
    }

    fn round(&mut self, ctx: &mut Ctx, inp: &Inputs, index: &MemoryIndex) {
        let w = ctx.workload;
        let opts = ctx.opts.clone();
        let path = ctx.tmp.join("memory.snap");
        let op = ctx.op();
        trim_heap();
        let t = Instant::now();
        let saved = ctx.span("core.save", op, None, || index.save(&path));
        self.save.push_ns(elapsed_ns(t), ctx.window);
        let Some(bytes) = ctx.attempt("save", saved) else {
            return;
        };
        self.bytes = bytes;
        trim_heap();
        let t = Instant::now();
        let opened = ctx.span("core.open", op, None, || {
            MemoryIndex::open(&path, Arc::clone(&inp.data), &opts)
        });
        let open_ns = elapsed_ns(t);
        self.open.push_ns(open_ns, ctx.window);
        if let Some(opened) = ctx.attempt("open", opened) {
            let q = [inp.queries.get(0)];
            let answered = opened.search(&q, &w.spec());
            if let Some(answers) = ctx.attempt("search (opened index)", answered) {
                ctx.check(
                    "search (opened index)",
                    answers.matches(),
                    &inp.oracle[..1],
                    &inp.data,
                    &q,
                );
            }
        }
        let scratch = ctx.tmp.join("replay.snap");
        if ctx.traced() {
            let device = Arc::new(Device::unthrottled());
            if let Some(layers_ns) =
                replay::snapshot(ctx, op, None, &path, &scratch, &device, inp.data.len())
            {
                self.residual_ms
                    .push((open_ns as f64 - layers_ns as f64) / 1e6);
            }
        }
        // Every round saves a new file. Saving over an existing one
        // (truncate, then write) makes ext4 start writing the new blocks
        // out when the file closes, which puts the disk of a shared host
        // into the measured save time.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&scratch);
    }

    fn put(&self, ctx: &mut Ctx, inp: &Inputs, keep: &[bool]) {
        serve::put_setup(ctx, &self.builds, keep);
        serve::put_snapshot(
            ctx,
            &self.save,
            &self.open,
            self.bytes,
            inp.data.len(),
            keep,
            &self.residual_ms,
        );
    }
}

/// What the traced slices served: span totals next to the counters of
/// the same calls, and the calls whose queries the kernel replays rerun.
#[derive(Default)]
struct Traced {
    totals: Totals,
    repeats: Repeats,
    served: Vec<(u64, usize)>,
}

impl Traced {
    /// One traced slice. Per call, the facade search inside a `call` span
    /// and the engine entry on the directly built index, on the same
    /// batch, in alternating order (neither always finds the caches
    /// warmed by the other). The kernel replays run after the last slice,
    /// so they do not cool the pool between calls.
    fn serve(
        &mut self,
        ctx: &mut Ctx,
        inp: &Inputs,
        index: &MemoryIndex,
        messi: &MessiIndex,
        cfg: &MessiConfig,
        dur: Duration,
    ) {
        let w = ctx.workload;
        let spec = w.spec().with_stats();
        let totals = &mut self.totals;
        let end = Instant::now() + dur;
        while Instant::now() < end {
            let op = ctx.op();
            let batch = inp.batch_index(w, self.served.len());
            let engine_first = self.served.len() % 2 == 1;
            self.served.push((op, batch));
            let qs = inp.batch_queries(w, batch);
            let direct = if engine_first {
                engine_entry(ctx, op, totals, inp, &qs, messi, cfg)
            } else {
                None
            };
            let call = ctx.begin("call", op, None);
            let answered = serve::traced_search(ctx, op, call, index, &qs, &spec);
            if let Some((matches, _, _)) = &answered {
                ctx.check(
                    "search",
                    matches,
                    inp.batch_oracle(w, batch),
                    &inp.data,
                    &qs,
                );
            }
            totals.call_ns += ctx.end_ns(call);
            let direct = if engine_first {
                direct
            } else {
                engine_entry(ctx, op, totals, inp, &qs, messi, cfg)
            };
            let Some((matches, stats, search_ns)) = answered else {
                continue;
            };
            totals.add(&stats, qs.len(), search_ns);
            serve::record_repeats(&mut self.repeats, batch, &stats);
            if direct.is_some_and(|direct| direct != matches) {
                ctx.fail("engine entry: answers differ from the facade's".to_owned());
            }
        }
    }
}

/// The engine batch entry the facade dispatches to, timed as its own
/// root span.
fn engine_entry(
    ctx: &mut Ctx,
    op: u64,
    totals: &mut Totals,
    inp: &Inputs,
    qs: &[&[f32]],
    messi: &MessiIndex,
    cfg: &MessiConfig,
) -> Option<Vec<Vec<Match>>> {
    let w = ctx.workload;
    let root = ctx.begin("engine", op, None);
    let answered = match w.measure() {
        Measure::Dtw { band } => {
            let span = ctx.begin("messi.exact_knn_dtw_batch_shared", op, root);
            let r = dsidx::messi::exact_knn_dtw_batch_shared(
                messi,
                &*inp.data,
                qs,
                band,
                w.k(),
                cfg,
                None,
            );
            totals.engine_ns += ctx.end_ns(span);
            r
        }
        _ => {
            let span = ctx.begin("messi.exact_knn_batch_shared", op, root);
            let r = dsidx::messi::exact_knn_batch_shared(messi, &*inp.data, qs, w.k(), cfg, None);
            totals.engine_ns += ctx.end_ns(span);
            r
        }
    };
    ctx.end(root);
    ctx.attempt("engine entry", answered)
        .map(|(matches, _)| matches)
}

fn put_messi_layers(ctx: &mut Ctx, t: &Totals) {
    let per_q = |v: u64| v as f64 / t.queries.max(1) as f64;
    let p = &mut ctx.per_layer;
    p.put(
        "messi.engine_ms_per_query",
        t.engine_ns as f64 / 1e6 / t.queries.max(1) as f64,
        "ms",
    );
    p.put("messi.nodes_pruned", per_q(t.stats.nodes_pruned), "count");
    p.put(
        "messi.leaves_enqueued",
        per_q(t.stats.leaves_enqueued),
        "count",
    );
    p.put(
        "messi.leaves_processed",
        per_q(t.stats.leaves_processed),
        "count",
    );
    p.put(
        "messi.leaves_discarded",
        per_q(t.stats.leaves_discarded),
        "count",
    );
    p.put(
        "messi.leaf_useful_ratio",
        t.stats.leaves_processed as f64 / t.stats.leaves_enqueued.max(1) as f64,
        "ratio",
    );
}

extern "C" {
    /// glibc: returns the free memory at the top of the heap and in
    /// unused pages of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands freed heap memory back to the system before a save or an open,
/// so each faults its pages in, as in a fresh process, however much memory
/// the builds and calls before it left free. Without it, `open_ms.p50` on
/// `mem-dtw` depended on the seed (about 8 ms on some seeds and 12 ms on
/// others, repeatably), though not when the opens ran before any call.
fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}
