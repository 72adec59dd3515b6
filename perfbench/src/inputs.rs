//! Workload definitions and their inputs: datasets and query pools made
//! from the seed, and the exact oracle answers every served answer is
//! checked against (computed outside the timed region, cached per seed
//! and keyed by a digest of the inputs).

use dsidx::series::gen::rng::{NormalGen, SplitMix64};
use dsidx::series::gen::DatasetKind;
use dsidx::series::{Dataset, Match};
use dsidx::{Measure, QuerySpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const SERIES_LEN: usize = 256;
/// Sakoe-Chiba half-width of the DTW workload: 5% of the series length.
pub const DTW_BAND: usize = SERIES_LEN / 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemPoint,
    MemBatchHard,
    MemDtw,
    DiskCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MemPoint,
        Workload::MemBatchHard,
        Workload::MemDtw,
        Workload::DiskCold,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemPoint => "mem-point",
            Workload::MemBatchHard => "mem-batch-hard",
            Workload::MemDtw => "mem-dtw",
            Workload::DiskCold => "disk-cold",
        }
    }

    pub fn kind(self) -> DatasetKind {
        match self {
            Workload::MemBatchHard => DatasetKind::Seismic,
            _ => DatasetKind::Synthetic,
        }
    }

    pub fn series_count(self) -> usize {
        match self {
            Workload::DiskCold => 60_000,
            _ => 100_000,
        }
    }

    pub fn k(self) -> usize {
        match self {
            Workload::MemPoint | Workload::DiskCold => 1,
            Workload::MemBatchHard | Workload::MemDtw => 10,
        }
    }

    /// Queries per `Search::search` call.
    pub fn batch(self) -> usize {
        match self {
            Workload::MemPoint | Workload::DiskCold => 1,
            Workload::MemBatchHard | Workload::MemDtw => 16,
        }
    }

    /// Distinct queries the serving loop cycles through. The oracle is
    /// computed once per query, so the pool is as large as the oracle's
    /// cost allows; a larger pool averages more query difficulty into
    /// every run.
    pub fn pool(self) -> usize {
        match self {
            Workload::MemPoint => 1024,
            Workload::MemBatchHard => 1024,
            Workload::MemDtw => 512,
            Workload::DiskCold => 256,
        }
    }

    /// The percentile reported as `call_ms.tail`, fixed per workload: the
    /// highest of 50, 67, 75, 90, 95, 99 and 99.9 that leaves at least ten
    /// calls beyond it in a 20-second run on a 2-core host (about 8000
    /// calls for `mem-point`, 400 for `disk-cold`, 190 for
    /// `mem-batch-hard` and 36 for `mem-dtw`). Each run records how many
    /// calls were actually beyond it.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::MemPoint => 99.0,
            Workload::MemBatchHard => 90.0,
            Workload::MemDtw => 67.0,
            Workload::DiskCold => 95.0,
        }
    }

    /// Serving windows of an untraced run. Set-up samples are taken
    /// before each window and every sample is tagged with its window, so
    /// the windows a busy neighbour disturbed can be left out (see
    /// `serve::clean_windows`). `mem-dtw` calls take about 0.6 s, so its
    /// windows are longer.
    pub fn windows(self) -> usize {
        match self {
            Workload::MemDtw => 5,
            _ => 10,
        }
    }

    pub fn measure(self) -> Measure {
        match self {
            Workload::MemDtw => Measure::Dtw { band: DTW_BAND },
            _ => Measure::Euclidean,
        }
    }

    pub fn spec(self) -> QuerySpec {
        QuerySpec::knn(self.k()).measure(self.measure())
    }

    fn salt(self) -> u64 {
        match self {
            Workload::MemPoint => 0x6d65_6d2d_706f_696e,
            Workload::MemBatchHard => 0x6261_7463_682d_6872,
            Workload::MemDtw => 0x6d65_6d2d_6474_7721,
            Workload::DiskCold => 0x6469_736b_2d63_6f6c,
        }
    }
}

/// SplitMix64 finalizer: spreads a (seed, salt) pair over 64 bits.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Inputs {
    pub data: Arc<Dataset>,
    pub queries: Dataset,
    /// Exact answers, index-aligned with `queries`.
    pub oracle: Vec<Vec<Match>>,
    pub gen_s: f64,
    pub oracle_s: f64,
    pub oracle_cached: bool,
}

impl Inputs {
    /// The query batch served by call `call`: the pool is cut into
    /// batches of `batch` and cycled.
    pub fn batch_index(&self, w: Workload, call: usize) -> usize {
        call % (self.queries.len() / w.batch())
    }

    pub fn batch_queries(&self, w: Workload, batch: usize) -> Vec<&[f32]> {
        let b = w.batch();
        (batch * b..(batch + 1) * b)
            .map(|i| self.queries.get(i))
            .collect()
    }

    pub fn batch_oracle(&self, w: Workload, batch: usize) -> &[Vec<Match>] {
        let b = w.batch();
        &self.oracle[batch * b..(batch + 1) * b]
    }
}

pub fn make(w: Workload, seed: u64, cache_dir: &Path, threads: usize) -> std::io::Result<Inputs> {
    let start = Instant::now();
    let data_seed = mix(seed, w.salt());
    let query_seed = mix(seed, !w.salt());
    let data = w.kind().generate(w.series_count(), SERIES_LEN, data_seed);
    let queries = match w {
        Workload::DiskCold => planted_queries(&data, w.pool(), query_seed),
        _ => w.kind().queries(w.pool(), SERIES_LEN, query_seed),
    };
    let gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let path = cache_dir.join(format!("oracle-{}-{seed}.bin", w.name()));
    let digest = inputs_digest(w, &data, &queries);
    let (oracle, oracle_cached) = match read_oracle(&path, digest, queries.len(), w.k()) {
        Some(oracle) => (oracle, true),
        None => {
            let oracle = compute_oracle(w, &data, &queries, threads)?;
            write_oracle(&path, digest, &oracle)?;
            (oracle, false)
        }
    };
    Ok(Inputs {
        data: Arc::new(data),
        queries,
        oracle,
        gen_s,
        oracle_s: start.elapsed().as_secs_f64(),
        oracle_cached,
    })
}

/// Queries planted next to collection members: a member plus small
/// Gaussian noise, re-normalized (the shape of a "find this event again"
/// lookup, whose answer is the member itself or a near twin).
fn planted_queries(data: &Dataset, count: usize, seed: u64) -> Dataset {
    let mut pick = SplitMix64::new(seed);
    let mut noise = NormalGen::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = Dataset::with_capacity(data.series_len(), count).expect("valid length");
    for _ in 0..count {
        let mut q = data.get(pick.below(data.len())).to_vec();
        for v in &mut q {
            *v += 0.05 * noise.next_f32();
        }
        dsidx::series::znorm::znormalize(&mut q);
        out.push(&q).expect("same length");
    }
    out
}

fn compute_oracle(
    w: Workload,
    data: &Dataset,
    queries: &Dataset,
    threads: usize,
) -> std::io::Result<Vec<Vec<Match>>> {
    let k = w.k();
    match w.measure() {
        Measure::Dtw { band } => {
            let qs: Vec<&[f32]> = queries.iter().collect();
            let (answers, _) =
                dsidx::ucr::knn_dtw_batch_parallel_with_stats(data, &qs, band, k, threads)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(answers)
        }
        _ => {
            // Brute force, one query per task, split over `threads`.
            let threads = threads.max(1);
            let mut out: Vec<Vec<Match>> = vec![Vec::new(); queries.len()];
            std::thread::scope(|scope| {
                for (t, chunk) in out.chunks_mut(queries.len().div_ceil(threads)).enumerate() {
                    let base = t * queries.len().div_ceil(threads);
                    scope.spawn(move || {
                        for (i, slot) in chunk.iter_mut().enumerate() {
                            // Copy out the k answers: the oracle's vector
                            // keeps the capacity of one distance per series.
                            *slot = dsidx::ucr::brute_force_knn(data, queries.get(base + i), k)
                                .to_vec();
                        }
                    });
                }
            });
            Ok(out)
        }
    }
}

/// FNV-1a, one 32-bit word per step, over what the oracle answers
/// depend on: k, the measure, the series length, and every value of the
/// dataset and the queries. A cached oracle is used only when its digest
/// matches, so a change to a generator, a size or the query recipe
/// recomputes it instead of failing every call.
fn inputs_digest(w: Workload, data: &Dataset, queries: &Dataset) -> u64 {
    let band = match w.measure() {
        Measure::Dtw { band } => band as u64 + 1,
        _ => 0,
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for word in [w.k() as u64, band, data.series_len() as u64] {
        eat(word);
    }
    for set in [data, queries] {
        eat(set.len() as u64);
        for series in set.iter() {
            for v in series {
                eat(u64::from(v.to_bits()));
            }
        }
    }
    h
}

const ORACLE_MAGIC: &[u8; 8] = b"PBORACL2";
const ORACLE_HEADER: usize = 8 + 24;

fn read_oracle(path: &Path, digest: u64, queries: usize, k: usize) -> Option<Vec<Vec<Match>>> {
    let bytes = std::fs::read(path).ok()?;
    let header = ORACLE_HEADER;
    if bytes.len() < header || &bytes[..8] != ORACLE_MAGIC {
        return None;
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if word(8) != digest
        || word(16) != queries as u64
        || word(24) != k as u64
        || bytes.len() != header + queries * k * 8
    {
        return None;
    }
    let mut out = Vec::with_capacity(queries);
    for q in 0..queries {
        let mut matches = Vec::with_capacity(k);
        for j in 0..k {
            let at = header + (q * k + j) * 8;
            let pos = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            let dist = f32::from_bits(u32::from_le_bytes(
                bytes[at + 4..at + 8].try_into().expect("4 bytes"),
            ));
            matches.push(Match::new(pos, dist));
        }
        out.push(matches);
    }
    Some(out)
}

fn write_oracle(path: &Path, digest: u64, oracle: &[Vec<Match>]) -> std::io::Result<()> {
    let k = oracle.first().map_or(0, Vec::len);
    if oracle.iter().any(|m| m.len() != k) {
        return Ok(()); // ragged answers are never cached
    }
    let mut bytes = Vec::with_capacity(ORACLE_HEADER + oracle.len() * k * 8);
    bytes.extend_from_slice(ORACLE_MAGIC);
    bytes.extend_from_slice(&digest.to_le_bytes());
    bytes.extend_from_slice(&(oracle.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&(k as u64).to_le_bytes());
    for m in oracle.iter().flatten() {
        bytes.extend_from_slice(&m.pos.to_le_bytes());
        bytes.extend_from_slice(&m.dist_sq.to_bits().to_le_bytes());
    }
    // Write-then-rename, so a concurrent reader never sees half a file.
    let tmp: PathBuf = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Relative tolerance on squared distances. The engines sum with an
/// early-abandoning kernel whose order differs from the oracle's full
/// kernel, so equal answers can differ in the last float bits.
pub const DIST_REL_TOL: f32 = 1e-5;

/// `true` when `got` is a correct answer: its squared distances equal
/// `want`'s rank by rank up to [`DIST_REL_TOL`], and it names the same
/// positions, except where it names another series whose distance (by
/// `exact`, the oracle's kernel) equals the oracle's at that rank up to
/// the tolerance. Two series that tie within the float error of the
/// kernels may come out in either order, or either may take the last
/// place of the k.
pub fn answers_match(got: &[Match], want: &[Match], exact: impl Fn(u32) -> Option<f32>) -> bool {
    let close = |a: f32, b: f32| (a - b).abs() <= DIST_REL_TOL * b.abs().max(1.0);
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            close(g.dist_sq, w.dist_sq)
                && (g.pos == w.pos || exact(g.pos).is_some_and(|d| close(d, w.dist_sq)))
        })
        && got
            .iter()
            .enumerate()
            .all(|(i, g)| got[..i].iter().all(|h| h.pos != g.pos))
}

/// The oracle's squared distance from `query` to series `pos` of `data`
/// under `measure` (`None` for a position outside the dataset).
pub fn oracle_distance(measure: Measure, data: &Dataset, query: &[f32], pos: u32) -> Option<f32> {
    let pos = pos as usize;
    let series = (pos < data.len()).then(|| data.get(pos))?;
    Some(match measure {
        Measure::Dtw { band } => dsidx::series::distance::dtw::dtw_sq(query, series, band),
        _ => dsidx::series::distance::euclidean_sq(query, series),
    })
}
