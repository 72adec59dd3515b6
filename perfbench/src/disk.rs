//! The on-disk workload (`disk-cold`): `DiskIndex` ParIS+ on the modeled
//! SSD, built once, then served in cycles of `save` → `open` → one exact
//! 1-NN query on the freshly opened index.

use crate::inputs::{Inputs, SERIES_LEN};
use crate::replay::{self, Replays};
use crate::report::{median, Latencies, Repeats};
use crate::run::Ctx;
use crate::serve::{self, elapsed_ns, Served, Totals, Window};
use dsidx::paris::{BuildReport, Overlap, ParisConfig, ParisIndex};
use dsidx::series::Match;
use dsidx::storage::device::DeviceStats;
use dsidx::storage::{DatasetFile, Device, DeviceProfile};
use dsidx::{DiskIndex, Engine, QuerySpec, Search};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Facade builds per run, spread over the serving windows (the first one
/// serves); `setup_s` is their median.
const SETUP_BUILDS: usize = 15;
const PROFILE: DeviceProfile = DeviceProfile::SSD;

pub fn run(ctx: &mut Ctx, inp: &Inputs) {
    let data_path = ctx.tmp.join("dataset.dsidx");
    let written =
        dsidx::storage::write_dataset(&data_path, &inp.data, Arc::new(Device::unthrottled()));
    if ctx.attempt("write dataset", written).is_none() {
        return;
    }
    let mut builds = Builds {
        data_path: data_path.clone(),
        workdir: ctx.tmp.join("work"),
        times: Latencies::default(),
        reports: Vec::new(),
        io: Vec::new(),
    };
    let Some(built) = builds.build(ctx) else {
        builds.put(ctx, &[]);
        return;
    };
    let direct = if ctx.traced() {
        direct_engine(ctx, &data_path)
    } else {
        None
    };

    let mut server = Server {
        current: built,
        paths: [ctx.tmp.join("a.snap"), ctx.tmp.join("b.snap")],
        data_path,
        cycles: 0,
        save: Latencies::default(),
        open: Latencies::default(),
        search: Latencies::default(),
        snapshot_bytes: 0,
    };
    // Warm-up: the first cycle saves the built index (its leaf store is a
    // scratch file); every later one saves an opened index.
    for _ in 0..serve::WARMUP_CALLS {
        server.cycle(ctx, inp, &ctx.workload.spec());
    }
    server.reset_samples();

    let Some((file, paris, replays)) = direct else {
        let windows = ctx.workload.windows();
        let mut plain = Served::default();
        for window in 0..windows {
            ctx.window = window;
            builds.run_share(ctx, window, windows);
            plain.absorb(server.serve(ctx, inp, ctx.serve / windows as u32));
        }
        let keep = serve::clean_windows(&plain);
        builds.put(ctx, &keep);
        serve::put_end_to_end(ctx, &plain, &keep);
        serve::put_snapshot(
            ctx,
            &server.save,
            &server.open,
            server.snapshot_bytes,
            inp.data.len(),
            &keep,
            &[],
        );
        return;
    };
    builds.run_share(ctx, 0, 1);
    builds.put(ctx, &[]);
    // Untraced and traced slices alternate, as on the in-memory
    // workloads. Untraced serving records no spans.
    let slice = ctx.serve / (2 * serve::TRACE_SLICES);
    let (mut plain, mut host) = (Served::default(), Served::default());
    let mut t = Traced::default();
    for _ in 0..serve::TRACE_SLICES {
        let rec = ctx.rec.take();
        plain.absorb(server.serve(ctx, inp, slice));
        ctx.rec = rec;
        let window = Window::start(ctx.threads);
        t.serve(ctx, inp, &mut server, &file, &paris, slice);
        host.absorb(window.finish(0, 0, Latencies::default()));
    }
    ctx.fact("counts_repeat_within_run", t.repeats.to_json());
    serve::replay_calls(ctx, inp, &replays, &t.served);
    open_probes(ctx, inp, &server);
    serve::put_trace_layers(ctx, &plain, &host, &t.totals);
    put_io_layers(ctx, &t);
}

/// Facade builds, taken between serving windows like the in-memory
/// workloads' set-up probes.
struct Builds {
    data_path: PathBuf,
    workdir: PathBuf,
    times: Latencies,
    reports: Vec<BuildReport>,
    io: Vec<DeviceStats>,
}

impl Builds {
    fn build(&mut self, ctx: &mut Ctx) -> Option<DiskIndex> {
        let opts = ctx.opts.clone();
        let op = ctx.op();
        let t = Instant::now();
        let built = ctx.span("core.build", op, None, || {
            DiskIndex::build(
                &self.data_path,
                &self.workdir,
                Engine::ParisPlus,
                &opts,
                PROFILE,
            )
        });
        self.times.push_ns(elapsed_ns(t), ctx.window);
        let built = ctx.attempt("build", built)?;
        self.reports.extend(built.build_report().copied());
        self.io.push(built.file().device().stats());
        Some(built)
    }

    /// The builds that fall before serving window `window` of `windows`.
    fn run_share(&mut self, ctx: &mut Ctx, window: usize, windows: usize) {
        let total = SETUP_BUILDS - 1;
        for _ in 0..total * (window + 1) / windows - total * window / windows {
            drop(self.build(ctx));
        }
    }

    fn put(&self, ctx: &mut Ctx, keep: &[bool]) {
        serve::put_setup(ctx, &self.times, keep);
        if ctx.traced() {
            put_build_layers(ctx, &self.reports, &self.io);
        }
    }
}

struct Server {
    current: DiskIndex,
    /// Saves alternate between two files: the index being saved reads its
    /// leaf store from the file it was opened from. The other file, whose
    /// index was dropped a cycle earlier, is deleted before the save.
    paths: [PathBuf; 2],
    data_path: PathBuf,
    cycles: usize,
    save: Latencies,
    open: Latencies,
    search: Latencies,
    snapshot_bytes: u64,
}

/// What one cycle's query cost, for the traced phase.
struct CycleOut {
    op: u64,
    answers: Vec<Vec<Match>>,
    stats: Option<dsidx::BatchStats>,
    search_ns: u64,
    cycle_ns: u64,
    open_io: DeviceStats,
    query_io: DeviceStats,
}

impl Server {
    fn reset_samples(&mut self) {
        self.save = Latencies::default();
        self.open = Latencies::default();
        self.search = Latencies::default();
    }

    /// One `save` → `open` → search cycle; the opened index replaces the
    /// current one. `None` when a step failed (the failure is counted).
    fn cycle(&mut self, ctx: &mut Ctx, inp: &Inputs, spec: &QuerySpec) -> Option<CycleOut> {
        let w = ctx.workload;
        let opts = ctx.opts.clone();
        let path = self.paths[self.cycles % 2].clone();
        let batch = inp.batch_index(w, self.cycles);
        self.cycles += 1;
        let op = ctx.op();
        let span = ctx.begin("cycle", op, None);
        let out = self.cycle_steps(ctx, inp, spec, op, span, &path, batch, &opts);
        let cycle_ns = ctx.end_ns(span);
        let mut out = out?;
        out.cycle_ns = cycle_ns;
        Some(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn cycle_steps(
        &mut self,
        ctx: &mut Ctx,
        inp: &Inputs,
        spec: &QuerySpec,
        op: u64,
        span: Option<crate::trace::SpanId>,
        path: &Path,
        batch: usize,
        opts: &dsidx::Options,
    ) -> Option<CycleOut> {
        let w = ctx.workload;
        // Saving over an existing file (truncate, then write) makes ext4
        // start writing the new blocks out when the file closes, which
        // puts the host's disk into the measured save time.
        let _ = std::fs::remove_file(path);
        let t = Instant::now();
        let saved = ctx.span("core.save", op, span, || self.current.save(path));
        self.save.push_ns(elapsed_ns(t), ctx.window);
        self.snapshot_bytes = ctx.attempt("save", saved)?;

        let t = Instant::now();
        let opened = ctx.span("core.open", op, span, || {
            DiskIndex::open(path, &self.data_path, opts, PROFILE)
        });
        let open_ns = elapsed_ns(t);
        self.open.push_ns(open_ns, ctx.window);
        let opened = ctx.attempt("open", opened)?;
        let open_io = opened.file().device().stats();

        let qs = inp.batch_queries(w, batch);
        let search = ctx.begin("core.search", op, span);
        let t = Instant::now();
        let answered = opened.search(&qs, spec);
        self.search.push_ns(elapsed_ns(t), ctx.window);
        let search_ns = ctx.end_ns(search);
        let io = opened.file().device().stats();
        let query_io = DeviceStats {
            bytes_read: io.bytes_read - open_io.bytes_read,
            bytes_written: io.bytes_written - open_io.bytes_written,
            seeks: io.seeks - open_io.seeks,
            charged_nanos: io.charged_nanos - open_io.charged_nanos,
        };
        self.current = opened;
        let answered = ctx.attempt("search", answered)?;
        let stats = answered.stats().cloned();
        let answers = answered.into_matches();
        ctx.check(
            "search",
            &answers,
            inp.batch_oracle(w, batch),
            &inp.data,
            &qs,
        );
        Some(CycleOut {
            op,
            answers,
            stats,
            search_ns,
            cycle_ns: 0,
            open_io,
            query_io,
        })
    }

    /// One untraced serving window of cycles for `dur`. Its throughput
    /// counts queries over the whole window (saves and opens included);
    /// `call_ms` is the search call alone.
    fn serve(&mut self, ctx: &mut Ctx, inp: &Inputs, dur: Duration) -> Served {
        let spec = ctx.workload.spec();
        let (mut calls, mut queries) = (0usize, 0usize);
        let window = Window::start(ctx.threads);
        while window.elapsed() < dur {
            calls += 1;
            if let Some(out) = self.cycle(ctx, inp, &spec) {
                queries += out.answers.len();
            }
        }
        window.finish(calls, queries, std::mem::take(&mut self.search))
    }
}

/// The engine entry the facade dispatches to, over a ParIS+ index built
/// directly on its own modeled SSD.
fn direct_engine(ctx: &mut Ctx, data_path: &Path) -> Option<(DatasetFile, ParisIndex, Replays)> {
    let opts = ctx.opts.clone();
    let file = DatasetFile::open(data_path, Arc::new(Device::new(PROFILE)));
    let file = ctx.attempt("open dataset file", file)?;
    let cfg = ParisConfig::new(
        opts.tree_config(SERIES_LEN)
            .expect("default options fit the workload"),
        ctx.threads,
    )
    .with_block_series(opts.block_series)
    .with_generation_series(opts.generation_series.max(opts.block_series));
    let store = ctx.tmp.join("direct.store");
    let op = ctx.op();
    let built = ctx.span("paris.build_on_disk", op, None, || {
        dsidx::paris::build_on_disk(&file, &store, &cfg, Overlap::ParisPlus)
    });
    let (paris, _) = ctx.attempt("engine build", built)?;
    let replays = Replays::new(&paris.index, &paris.sax, ctx.seed);
    Some((file, paris, replays))
}

/// What the traced slices served: span totals and device readings next
/// to the counters of the same cycles.
#[derive(Default)]
struct Traced {
    totals: Totals,
    repeats: Repeats,
    served: Vec<(u64, usize)>,
    open_io: Vec<DeviceStats>,
    query_io: DeviceStats,
}

impl Traced {
    /// One traced slice: cycles as in untraced serving, each next to the
    /// engine entry on the directly built index (same query, alternating
    /// order).
    fn serve(
        &mut self,
        ctx: &mut Ctx,
        inp: &Inputs,
        server: &mut Server,
        file: &DatasetFile,
        paris: &ParisIndex,
        dur: Duration,
    ) {
        let w = ctx.workload;
        let spec = w.spec().with_stats();
        let totals = &mut self.totals;
        let end = Instant::now() + dur;
        while Instant::now() < end {
            let batch = inp.batch_index(w, server.cycles);
            let engine_first = self.served.len() % 2 == 1;
            let qs = inp.batch_queries(w, batch);
            let direct_before = if engine_first {
                engine_entry(ctx, totals, &qs, file, paris)
            } else {
                None
            };
            let Some(out) = server.cycle(ctx, inp, &spec) else {
                continue;
            };
            let direct = if engine_first {
                direct_before
            } else {
                engine_entry(ctx, totals, &qs, file, paris)
            };
            self.served.push((out.op, batch));
            if direct.is_some_and(|direct| direct != out.answers) {
                ctx.fail("engine entry: answers differ from the facade's".to_owned());
            }
            let stats = out.stats.as_ref().expect("traced cycles ask for stats");
            totals.add(stats, out.answers.len(), out.search_ns);
            totals.call_ns += out.cycle_ns;
            serve::record_repeats(&mut self.repeats, batch, stats);
            self.open_io.push(out.open_io);
            self.query_io.bytes_read += out.query_io.bytes_read;
            self.query_io.seeks += out.query_io.seeks;
            self.query_io.charged_nanos += out.query_io.charged_nanos;
        }
    }
}

/// Facade opens replayed layer by layer after the traced slices.
const OPEN_PROBES: usize = 9;

/// [`OPEN_PROBES`] facade opens of the last snapshot, each followed by its
/// layer-by-layer replay, for `core.open_residual_ms`.
fn open_probes(ctx: &mut Ctx, inp: &Inputs, server: &Server) {
    let path = server.paths[(server.cycles + 1) % 2].clone();
    let scratch = ctx.tmp.join("replay.snap");
    let device = Arc::new(Device::new(PROFILE));
    let opts = ctx.opts.clone();
    let mut residual_ms = Vec::new();
    for _ in 0..OPEN_PROBES {
        let op = ctx.op();
        let root = ctx.begin("open_probe", op, None);
        let t0 = Instant::now();
        let opened = ctx.span("core.open", op, root, || {
            DiskIndex::open(&path, &server.data_path, &opts, PROFILE)
        });
        let open_ns = elapsed_ns(t0);
        if ctx.attempt("open", opened).is_some() {
            if let Some(layers_ns) =
                replay::snapshot(ctx, op, root, &path, &scratch, &device, inp.data.len())
            {
                residual_ms.push((open_ns as f64 - layers_ns as f64) / 1e6);
            }
        }
        ctx.end(root);
    }
    serve::put_snapshot(
        ctx,
        &server.save,
        &server.open,
        server.snapshot_bytes,
        inp.data.len(),
        &[],
        &residual_ms,
    );
}

/// The engine batch entry the facade dispatches to, timed as its own
/// root span.
fn engine_entry(
    ctx: &mut Ctx,
    totals: &mut Totals,
    qs: &[&[f32]],
    file: &DatasetFile,
    paris: &ParisIndex,
) -> Option<Vec<Vec<Match>>> {
    let k = ctx.workload.k();
    let op = ctx.op();
    let root = ctx.begin("engine", op, None);
    let span = ctx.begin("paris.exact_knn_batch_shared", op, root);
    let answered = dsidx::paris::exact_knn_batch_shared(paris, file, qs, k, ctx.threads, None);
    totals.engine_ns += ctx.end_ns(span);
    ctx.end(root);
    ctx.attempt("engine entry", answered)
        .map(|(matches, _)| matches)
}

fn put_build_layers(ctx: &mut Ctx, reports: &[BuildReport], io: &[DeviceStats]) {
    let ms = |f: fn(&BuildReport) -> Duration| {
        median(
            &reports
                .iter()
                .map(|r| f(r).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let p = &mut ctx.per_layer;
    p.put("paris.build_read_ms", ms(|r| r.read), "ms");
    p.put("paris.build_stall_ms", ms(|r| r.stall), "ms");
    p.put("paris.build_grow_cpu_ms", ms(|r| r.grow_cpu), "ms");
    p.put("paris.build_flush_ms", ms(|r| r.flush_io), "ms");
    let med =
        |f: fn(&DeviceStats) -> u64| median(&io.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    p.put(
        "storage.build_bytes_written",
        med(|s| s.bytes_written),
        "bytes",
    );
    p.put("storage.build_seeks", med(|s| s.seeks), "count");
}

fn put_io_layers(ctx: &mut Ctx, t: &Traced) {
    let q = t.totals.queries.max(1) as f64;
    let s = &t.totals.stats;
    let med = |f: fn(&DeviceStats) -> u64| {
        median(&t.open_io.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let p = &mut ctx.per_layer;
    p.put(
        "paris.engine_ms_per_query",
        t.totals.engine_ns as f64 / 1e6 / q,
        "ms",
    );
    p.put("paris.lb_per_query", s.lb_computed as f64 / q, "count");
    p.put(
        "paris.candidates_per_query",
        s.candidates as f64 / q,
        "count",
    );
    p.put(
        "paris.verify_ratio",
        s.real_computed as f64 / s.candidates.max(1) as f64,
        "ratio",
    );
    p.put(
        "storage.bytes_read_per_query",
        t.query_io.bytes_read as f64 / q,
        "bytes",
    );
    p.put(
        "storage.seeks_per_query",
        t.query_io.seeks as f64 / q,
        "count",
    );
    p.put(
        "storage.device_ms_per_query",
        t.query_io.charged_nanos as f64 / 1e6 / q,
        "ms",
    );
    p.put("storage.open_bytes_read", med(|s| s.bytes_read), "bytes");
    p.put(
        "storage.open_device_ms",
        med(|s| s.charged_nanos) / 1e6,
        "ms",
    );
}
