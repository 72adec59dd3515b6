//! State shared by every workload of one run: configuration, failure
//! accounting, the optional span recorder, and the metric sinks.

use crate::inputs::{answers_match, oracle_distance, Workload};
use crate::report::{Json, Metrics};
use crate::trace::{Recorder, SpanId};
use dsidx::series::{Dataset, Match};
use dsidx::Options;
use std::path::PathBuf;
use std::time::Duration;

pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub serve: Duration,
    pub threads: usize,
    /// The library defaults: what a user gets from `Options::default()`.
    pub opts: Options,
    /// Scratch files of this run (dataset file, snapshots, leaf stores).
    pub tmp: PathBuf,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// `Some` only in a traced run.
    pub rec: Option<Recorder>,
    next_op: u64,
    /// Untraced calls served so far: where the query pool cycle resumes
    /// in the next serving window.
    pub served_calls: usize,
    /// The serving window samples are tagged with (see
    /// [`Latencies`](crate::report::Latencies)).
    pub window: usize,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Run-specific facts stored with the result (sample counts, the
    /// tail percentile, set-up breakdown, repeatability).
    pub facts: Vec<(String, Json)>,
}

impl Ctx {
    pub fn new(workload: Workload, seed: u64, serve: Duration, trace: bool, tmp: PathBuf) -> Self {
        let opts = Options::default();
        Self {
            workload,
            seed,
            serve,
            threads: opts.effective_threads(),
            opts,
            tmp,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            rec: trace.then(Recorder::new),
            next_op: 0,
            served_calls: 0,
            window: 0,
            end_to_end: Metrics::default(),
            per_layer: Metrics::default(),
            facts: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.rec.is_some()
    }

    /// A fresh operation id (span `call` field).
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        self.rec.as_mut().map(|r| r.begin(name, op, parent))
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let (Some(r), Some(id)) = (self.rec.as_mut(), id) {
            r.end(id);
        }
    }

    /// Closes a span and returns its duration (0 in an untraced run).
    pub fn end_ns(&mut self, id: Option<SpanId>) -> u64 {
        self.end(id);
        match (self.rec.as_ref(), id) {
            (Some(r), Some(id)) => r.duration_ns(id),
            _ => 0,
        }
    }

    /// Times `f` as a span in a traced run; just runs it otherwise.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn fact(&mut self, key: &str, value: Json) {
        self.facts.push((key.to_owned(), value));
    }

    /// Counts one operation; an `Err` is a failure. Returns the value.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("perfbench: failure: {msg}");
            self.failures.push(msg);
        }
    }

    /// Checks a call's answers to `queries` over `data` against the
    /// oracle; a mismatch fails the call (already counted as attempted).
    /// Returns `true` when correct.
    pub fn check(
        &mut self,
        what: &str,
        got: &[Vec<Match>],
        want: &[Vec<Match>],
        data: &Dataset,
        queries: &[&[f32]],
    ) -> bool {
        let measure = self.workload.measure();
        let wrong = if got.len() == want.len() && want.len() == queries.len() {
            got.iter().zip(want).zip(queries).position(|((g, w), q)| {
                !answers_match(g, w, |pos| oracle_distance(measure, data, q, pos))
            })
        } else {
            Some(0)
        };
        let Some(first) = wrong else {
            return true;
        };
        self.fail(format!(
            "{what}: answer differs from the oracle at query {first}: got {:?}, want {:?}",
            got.get(first).map(|m| m.iter().take(3).collect::<Vec<_>>()),
            want.get(first)
                .map(|m| m.iter().take(3).collect::<Vec<_>>()),
        ));
        false
    }

    pub fn failures_json(&self) -> Json {
        Json::Arr(
            self.failures
                .iter()
                .map(|m| Json::str(m.as_str()))
                .collect(),
        )
    }
}
