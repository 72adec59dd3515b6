//! Kernel replays of a traced run: each public layer function is timed on
//! the workload's own data and the queries of calls the run served, so
//! the per-operation costs sit beside the call spans of the same run.

use crate::inputs::{Inputs, DTW_BAND};
use crate::run::Ctx;
use crate::trace::SpanId;
use dsidx::isax::{NodeWord, Quantizer, Word};
use dsidx::query::{DtwPrepared, PreparedQuery, QueryBatch};
use dsidx::series::distance::dtw::{dtw_sq, envelope, lb_keogh_sq};
use dsidx::series::distance::euclidean_sq;
use dsidx::series::gen::rng::SplitMix64;
use dsidx::tree::{Index, SaxArray};
use dsidx::Measure;
use std::hint::black_box;

/// Operations per replay span (the divisor of each ns/op metric).
pub const WORDS: usize = 4096;
pub const NODES: usize = 2048;
pub const ED_SERIES: usize = 1024;
pub const LB_SERIES: usize = 1024;
pub const DTW_SERIES: usize = 16;
pub const BROADCASTS: usize = 4;

pub struct Replays {
    quantizer: Quantizer,
    words: Vec<Word>,
    nodes: Vec<NodeWord>,
    positions: Vec<usize>,
}

impl Replays {
    /// Samples SAX words, leaf node words and dataset positions from a
    /// built index (deterministic in `seed`).
    pub fn new(index: &Index, sax: &SaxArray, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x7265_706c_6179_7321);
        let all = sax.words();
        let words = (0..WORDS).map(|_| all[rng.below(all.len())]).collect();
        let mut leaves = Vec::new();
        index.for_each_leaf(&mut |leaf| leaves.push(*leaf.word()));
        let nodes = (0..NODES)
            .map(|_| leaves[rng.below(leaves.len())])
            .collect();
        let positions = (0..ED_SERIES.max(LB_SERIES))
            .map(|_| rng.below(all.len()))
            .collect();
        Self {
            quantizer: index.config().quantizer().clone(),
            words,
            nodes,
            positions,
        }
    }

    /// Replays every kernel for one served call, as children of `parent`.
    pub fn run(
        &self,
        ctx: &mut Ctx,
        op: u64,
        parent: Option<SpanId>,
        inp: &Inputs,
        queries: &[&[f32]],
    ) {
        let (data, k, measure) = (&*inp.data, ctx.workload.k(), ctx.workload.measure());
        let q = &self.quantizer;
        // Query preparation, per query, in the measure the call used.
        let mut first = None;
        for &query in queries {
            let prepared = ctx.span("query.prepare", op, parent, || match measure {
                Measure::Dtw { band } => Prepared::Dtw(DtwPrepared::new(q, query, band)),
                _ => Prepared::Point(PreparedQuery::new(q, query)),
            });
            first.get_or_insert(prepared);
        }
        let prepared = first.expect("a call holds at least one query");
        ctx.span("query.batch_setup", op, parent, || {
            black_box(QueryBatch::new(q, queries, k));
        });

        let (table, node_table) = match &prepared {
            Prepared::Point(p) => (&p.table, p.node_table(q)),
            Prepared::Dtw(p) => (&p.table, p.node_table(q)),
        };
        ctx.span("isax.lookup", op, parent, || {
            let mut acc = 0.0f32;
            for w in &self.words {
                acc += table.lookup(black_box(w));
            }
            black_box(acc);
        });
        let mut out = vec![0.0f32; self.words.len()];
        ctx.span("isax.lookup_many", op, parent, || {
            table.lookup_many(black_box(&self.words), &mut out);
        });
        black_box(&out);
        ctx.span("isax.node_lookup", op, parent, || {
            let mut acc = 0.0f32;
            for n in &self.nodes {
                acc += node_table.lookup(black_box(n));
            }
            black_box(acc);
        });

        let query = queries[0];
        ctx.span("series.ed", op, parent, || {
            let mut acc = 0.0f32;
            for &p in &self.positions[..ED_SERIES] {
                acc += euclidean_sq(black_box(query), data.get(p));
            }
            black_box(acc);
        });
        let band = match measure {
            Measure::Dtw { band } => band,
            _ => DTW_BAND,
        };
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        envelope(query, band, &mut lo, &mut hi);
        ctx.span("series.lb_keogh", op, parent, || {
            let mut acc = 0.0f32;
            for &p in &self.positions[..LB_SERIES] {
                acc += lb_keogh_sq(data.get(p), black_box(&lo), &hi);
            }
            black_box(acc);
        });
        ctx.span("series.dtw", op, parent, || {
            let mut acc = 0.0f32;
            for &p in &self.positions[..DTW_SERIES] {
                acc += dtw_sq(black_box(query), data.get(p), band);
            }
            black_box(acc);
        });

        let pool = dsidx::sync::pool::global(ctx.threads);
        for _ in 0..BROADCASTS {
            ctx.span("sync.broadcast", op, parent, || pool.broadcast(&|_| {}));
        }
    }
}

enum Prepared {
    Point(PreparedQuery),
    Dtw(DtwPrepared),
}

/// Section names of the facade's snapshot layout.
const TREE_SECTIONS: [&str; 4] = ["NODES", "ROOTS", "CHUNKS", "ENTRIES"];
const LEAF_STORE_SECTION: &str = "LEAFSTOR";

/// Replays a snapshot open layer by layer on the file the facade just
/// opened — storage read (header, table and every section, checksums
/// included), tree decode, leaf-store open — then a save of the decoded
/// tree: encode and write to `scratch`. Returns the nanoseconds spent in
/// the three open layers (what `open` spends outside the facade's own
/// glue), or `None` when a replayed call failed.
pub fn snapshot(
    ctx: &mut Ctx,
    op: u64,
    parent: Option<SpanId>,
    path: &std::path::Path,
    scratch: &std::path::Path,
    device: &std::sync::Arc<dsidx::storage::Device>,
    count: usize,
) -> Option<u64> {
    use dsidx::storage::{LeafStoreReader, SnapshotReader, SnapshotWriter};
    use dsidx::tree::snapshot::{decode_tree, encode_tree, TreeSections};
    use dsidx::tree::TreeConfig;
    use std::sync::Arc;
    use std::time::Instant;

    let t = Instant::now();
    let read = ctx.span("storage.snapshot_read", op, parent, || {
        let reader = SnapshotReader::open(path, Arc::clone(device))?;
        let mut tree = TREE_SECTIONS
            .iter()
            .map(|id| reader.read_section(id))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter();
        let sections = TreeSections {
            nodes: tree.next().expect("four sections"),
            roots: tree.next().expect("four sections"),
            chunks: tree.next().expect("four sections"),
            entries: tree.next().expect("four sections"),
        };
        let store = match reader.section_range(LEAF_STORE_SECTION) {
            Some((offset, _)) => Some((offset, reader.read_section(LEAF_STORE_SECTION)?)),
            None => None,
        };
        Ok::<_, dsidx::storage::StorageError>((*reader.fingerprint(), sections, store))
    });
    let (fp, sections, store) = ctx.attempt("replay snapshot read", read)?;
    let config = TreeConfig::new(
        fp.series_len as usize,
        usize::from(fp.segments),
        usize::try_from(fp.leaf_capacity).expect("leaf capacity fits usize"),
    );
    let config = ctx.attempt("replay tree config", config)?;
    let decoded = ctx.span("tree.decode", op, parent, || {
        decode_tree(config, count, &sections)
    });
    let index = ctx.attempt("replay tree decode", decoded)?;
    if let Some((offset, bytes)) = &store {
        let opened = ctx.span("storage.leafstore_open", op, parent, || {
            LeafStoreReader::from_verified_bytes(path, *offset, bytes, Arc::clone(device))
        });
        ctx.attempt("replay leaf store open", opened)?;
    }
    let open_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let encoded = ctx.span("tree.encode", op, parent, || encode_tree(&index));
    let written = ctx.span("storage.snapshot_write", op, parent, || {
        let mut writer = SnapshotWriter::new(scratch, fp, Arc::clone(device));
        writer.section(TREE_SECTIONS[0], encoded.nodes);
        writer.section(TREE_SECTIONS[1], encoded.roots);
        writer.section(TREE_SECTIONS[2], encoded.chunks);
        writer.section(TREE_SECTIONS[3], encoded.entries);
        if let Some((_, bytes)) = store {
            writer.section(LEAF_STORE_SECTION, bytes);
        }
        writer.finish()
    });
    ctx.attempt("replay snapshot write", written)?;
    Some(open_ns)
}
