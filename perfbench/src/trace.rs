//! The traced replay: the same inputs pushed through each layer's public
//! functions, in the order `TwoStageLinker::link_batch_cached` calls
//! them, with a span around every call.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends. A span's self time is its duration minus the time its children
//! cover.

use mb_core::linker::{EmbedCache, LinkResult, TwoStageLinker};
use mb_datagen::LinkedMention;
use mb_encoders::input::mention_bag;
use mb_kb::EntityId;
use mb_serve::Generation;
use mb_store::Threads;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Batch (or request) id the span belongs to.
    pub id: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        let end = self.now_ns();
        self.spans[span].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, id);
        let out = f();
        self.close(s);
        out
    }

    pub fn duration_us(&self, span: usize) -> f64 {
        let s = &self.spans[span];
        (s.end_ns - s.start_ns) as f64 / 1e3
    }

    /// Self time in µs per layer name, summed within each id: one entry
    /// per (name, id).
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_id: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e3;
            *per_id.entry((s.name, s.id)).or_default() += own;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), us) in per_id {
            out.entry(name).or_default().push(us);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )
            .map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

/// Work counts of one replayed batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Distinct uncached mention bags embedded.
    pub embed_rows: usize,
    /// Candidates assembled, summed over the batch.
    pub candidates: usize,
    /// Duration of the batch span in µs.
    pub batch_us: f64,
}

/// Replay one batch stage by stage under a `batch` span with id `id`,
/// returning what `link_batch_cached` would.
pub fn replay_batch(
    tr: &mut Tracer,
    generation: &Generation,
    linker: &TwoStageLinker<'_>,
    id: u64,
    mentions: &[LinkedMention],
    mut cache: Option<&mut EmbedCache>,
) -> Result<(Vec<LinkResult>, Counts), String> {
    let model = &generation.model;
    let cfg = linker.cfg;
    let threads: Threads = cfg.threads;
    let batch = tr.open("batch", None, id);
    let p = Some(batch);

    let bags: Vec<Vec<u32>> = tr.span("tokenize", p, id, || {
        mentions.iter().map(|m| mention_bag(&model.vocab, &cfg.input, m)).collect()
    });
    let mut slot: BTreeMap<&[u32], usize> = BTreeMap::new();
    let mut need: Vec<Vec<u32>> = Vec::new();
    let mut rows: Vec<Option<Vec<f64>>> = tr.span("cache", p, id, || {
        let rows: Vec<Option<Vec<f64>>> = match cache.as_deref_mut() {
            Some(c) => bags.iter().map(|b| c.get(b).cloned()).collect(),
            None => vec![None; bags.len()],
        };
        for (row, bag) in rows.iter().zip(&bags) {
            if row.is_none() && !slot.contains_key(bag.as_slice()) {
                slot.insert(bag.as_slice(), need.len());
                need.push(bag.clone());
            }
        }
        rows
    });
    let fresh = tr.span("embed", p, id, || {
        (!need.is_empty()).then(|| model.frozen_bi().embed_mentions_batch_with(&need, threads))
    });
    tr.span("cache", p, id, || {
        if let Some(fresh) = &fresh {
            if let Some(c) = cache {
                for (bag, &j) in &slot {
                    c.put(bag.to_vec(), fresh.row(j).to_vec());
                }
            }
            for (row, bag) in rows.iter_mut().zip(&bags) {
                if row.is_none() {
                    *row = slot.get(bag.as_slice()).map(|&j| fresh.row(j).to_vec());
                }
            }
        }
    });
    let retrieved = tr.span("retrieve", p, id, || {
        let dim = model.bi.config().out_dim;
        let mut data = vec![0.0f64; mentions.len() * dim];
        for (dst, row) in data.chunks_mut(dim).zip(&rows) {
            if let Some(r) = row {
                dst.copy_from_slice(r);
            }
        }
        let queries = mb_tensor::Tensor::from_vec(vec![mentions.len(), dim], data);
        match (generation.ann_source(), &generation.qindex) {
            (Some(ann), _) => ann.top_k_batch(&queries, cfg.k, threads),
            (None, Some(qi)) => qi.top_k_batch(&queries, cfg.k, threads),
            (None, None) => generation.index.top_k_batch(&queries, cfg.k, threads),
        }
        .map_err(|e| format!("retrieve: {e}"))
    })?;
    let sets = tr.span("assemble", p, id, || {
        mb_par::par_map_range(threads, mentions.len(), |i| {
            linker.candidate_set(&mentions[i], &retrieved[i])
        })
    });
    let scores = tr.span("rerank", p, id, || model.frozen_cross().score_batch_with(&sets, threads));
    tr.close(batch);

    let counts = Counts {
        embed_rows: need.len(),
        candidates: retrieved.iter().map(Vec::len).sum(),
        batch_us: tr.duration_us(batch),
    };
    let results = retrieved
        .into_iter()
        .zip(scores)
        .map(|(retrieved, rerank_scores)| {
            let predicted: Option<EntityId> =
                mb_common::util::argmax(&rerank_scores).map(|i| retrieved[i].0);
            LinkResult { retrieved, rerank_scores, predicted }
        })
        .collect();
    Ok((results, counts))
}
