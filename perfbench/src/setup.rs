//! Building the system under test: the dictionary world, the seeded
//! model, the 100k-entity store with its IVF index, and the servers.
//!
//! The world and the model are fixed (they are the deployment); only the
//! request inputs derive from the workload seed. The model has untrained,
//! seeded weights: serving cost does not depend on weight values, but it
//! does depend on the vocabulary size, so the vocabulary is padded to the
//! order of a wordpiece vocabulary.

use mb_common::storage::DiskStorage;
use mb_common::Rng;
use mb_core::linker::{LinkerConfig, TwoStageLinker};
use mb_core::pipeline::{BI_KEY, CROSS_KEY};
use mb_datagen::world::{DomainRole, DomainSpec};
use mb_datagen::{EntityStream, LinkedMention, StreamConfig, World, WorldConfig};
use mb_encoders::biencoder::{BiEncoder, BiEncoderConfig};
use mb_encoders::crossencoder::{CrossEncoder, CrossEncoderConfig};
use mb_encoders::input::{build_vocab, entity_bag};
use mb_kb::{DomainId, EntityId, KbBuilder, KnowledgeBase};
use mb_serve::{Generation, ModelLoader, ModelRegistry, ServeModel, Server, ServerConfig};
use mb_store::{IvfConfig, IvfIndex, StoreBuilder, StoreConfig, StoreRecord, Threads, IVF_FILE};
use mb_tensor::checkpoint::Checkpoint;
use mb_tensor::quant::QuantMode;
use mb_text::Vocab;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Filler tokens that pad the vocabulary to wordpiece scale.
pub const VOCAB_FILLER: usize = 24_000;
/// Streamed entities whose text joins the vocabulary, so store entities
/// embed from real tokens instead of collapsing onto UNK.
const VOCAB_STREAM_DOCS: usize = 512;
/// Entities in the store-backed world.
pub const STORE_ENTITIES: usize = 100_000;
/// Rows per store shard.
const SHARD_CAPACITY: usize = 16_384;
/// The test domain whose entities form the dictionary and the mentions.
pub const DOMAIN: &str = "TargetX";
/// Encoder width (embedding, hidden and output).
pub const DIM: usize = 64;

/// Client threads, linker threads and IVF build threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn bi_cfg() -> BiEncoderConfig {
    BiEncoderConfig { emb_dim: DIM, hidden: DIM, out_dim: DIM, ..Default::default() }
}

fn cross_cfg() -> CrossEncoderConfig {
    CrossEncoderConfig { emb_dim: DIM, hidden: DIM, ..Default::default() }
}

fn stream(entities: usize) -> Result<EntityStream, String> {
    // Vectors are unused (entities are embedded by the model), so the
    // stream's own geometry is kept minimal.
    EntityStream::new(StreamConfig {
        entities,
        dim: 2,
        topics: 1,
        noise: 0.0,
        chunk: 8_192,
        seed: 77,
    })
    .map_err(|e| format!("entity stream: {e}"))
}

/// The fixed world, vocabulary and knowledge base of one workload.
pub struct Base {
    /// The generated world (mention source).
    pub world: World,
    /// Shared vocabulary.
    pub vocab: Vocab,
    /// The knowledge base served: the world's, or the world's plus
    /// streamed entities up to [`STORE_ENTITIES`].
    pub kb: KnowledgeBase,
    /// The dictionary of the dictionary-backed generation.
    pub dictionary: Vec<EntityId>,
}

impl Base {
    /// Generate the world; `store` extends the knowledge base to the
    /// store size.
    pub fn generate(store: bool) -> Result<Base, String> {
        let world = World::generate(WorldConfig {
            seed: 1_234,
            general_vocab: 4_000,
            ambiguity_rate: 0.15,
            domains: vec![
                DomainSpec::new("SrcA", DomainRole::Train, 120, 160, 0.4),
                DomainSpec::new(DOMAIN, DomainRole::Test, 400, 600, 0.6),
            ],
        });
        let mut docs: Vec<String> =
            vec![(0..VOCAB_FILLER).map(|i| format!("tok{i}")).collect::<Vec<_>>().join(" ")];
        for e in stream(VOCAB_STREAM_DOCS)?.flatten() {
            docs.push(e.title);
            docs.push(e.description);
        }
        let vocab = build_vocab(world.kb(), docs.iter().map(String::as_str), 1);
        let kb = if store { extend_kb(world.kb(), STORE_ENTITIES)? } else { world.kb().clone() };
        let dictionary = world.kb().domain_entities(world.domain(DOMAIN).id).to_vec();
        Ok(Base { world, vocab, kb, dictionary })
    }

    /// The domain's mentions drawn with `rng` (entity popularity as in
    /// the data generator).
    pub fn mentions(&self, count: usize, rng: &mut Rng) -> Vec<LinkedMention> {
        let domain = self.world.domain(DOMAIN).clone();
        mb_datagen::mentions::generate_mentions(&self.world, &domain, count, rng).mentions
    }

    /// The seeded model over this base, under `linker`.
    pub fn model(&self, linker: LinkerConfig) -> ServeModel {
        let (bi, cross) = encoders(&self.vocab);
        ServeModel::new(
            self.vocab.clone(),
            self.kb.clone(),
            self.dictionary.clone(),
            bi,
            cross,
            linker,
            DOMAIN.to_string(),
        )
    }

    /// A loader that rebuilds the model from a checkpoint against this
    /// base — what `POST /admin/reload` runs.
    pub fn loader(&self) -> ModelLoader {
        let (vocab, kb, dictionary) =
            (self.vocab.clone(), self.kb.clone(), self.dictionary.clone());
        Box::new(move |path: &Path| {
            let ck = Checkpoint::load(&mut DiskStorage::new(), path)?;
            ServeModel::from_checkpoint(
                &ck,
                vocab.clone(),
                kb.clone(),
                dictionary.clone(),
                DOMAIN.to_string(),
                bi_cfg(),
                cross_cfg(),
                LinkerConfig::default(),
            )
        })
    }
}

fn encoders(vocab: &Vocab) -> (BiEncoder, CrossEncoder) {
    (
        BiEncoder::new(vocab, bi_cfg(), &mut Rng::seed_from_u64(1)),
        CrossEncoder::new(vocab, cross_cfg(), &mut Rng::seed_from_u64(2)),
    )
}

/// The world's knowledge base (ids kept) followed by streamed entities
/// up to `total`.
fn extend_kb(kb: &KnowledgeBase, total: usize) -> Result<KnowledgeBase, String> {
    let err = |e: mb_common::Error| format!("knowledge base: {e}");
    let mut b = KbBuilder::new();
    for d in 0..kb.num_domains() {
        b.domain(kb.domain_name(DomainId(d as u16))).map_err(err)?;
    }
    for e in kb.entities() {
        b.add_entity(&e.title, &e.description, e.domain).map_err(err)?;
    }
    let streamed = b.domain("Stream").map_err(err)?;
    for e in stream(total.saturating_sub(kb.len()))?.flatten() {
        b.add_entity(&e.title, &e.description, streamed).map_err(err)?;
    }
    b.build().map_err(err)
}

/// The IVF geometry `Generation::with_store` picks for a store of `n`
/// rows: `nlist ≈ √n`, `nprobe = nlist / 8`.
pub fn scaled_ivf(n: usize) -> IvfConfig {
    let nlist = ((n as f64).sqrt().ceil() as usize).clamp(1, 4096);
    IvfConfig { nlist, nprobe: (nlist / 8).max(1), ..IvfConfig::default() }
}

/// Timings of the store build, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTimes {
    pub entity_embed_s: f64,
    pub store_write_s: f64,
    pub ivf_build_s: f64,
}

/// Write the reload source under `dir`: `model.mbc`, and with `base`
/// given, `store/` holding int8 shards of the model's own entity
/// embeddings plus the saved IVF index.
pub fn write_source(
    dir: &Path,
    model: &ServeModel,
    store: Option<&Base>,
) -> Result<(PathBuf, StoreTimes), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ckpt = dir.join("model.mbc");
    let mut ck = Checkpoint::new();
    ck.params.insert(BI_KEY.to_string(), model.bi.params().clone());
    ck.params.insert(CROSS_KEY.to_string(), model.cross.params().clone());
    ck.save(&mut DiskStorage::new(), &ckpt).map_err(|e| format!("checkpoint: {e}"))?;
    let mut times = StoreTimes::default();
    let Some(base) = store else { return Ok((ckpt, times)) };

    let t = Instant::now();
    let input = model.linker.input;
    let bags: Vec<Vec<u32>> =
        base.kb.entities().iter().map(|e| entity_bag(&base.vocab, &input, e)).collect();
    let vectors = model.frozen_bi().embed_entities_batch_with(&bags, Threads::new(nproc()));
    times.entity_embed_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let store_dir = dir.join(mb_serve::registry::STORE_SUBDIR);
    let cfg = StoreConfig { shard_capacity: SHARD_CAPACITY, dim: DIM, quant: QuantMode::Int8 };
    let mut builder = StoreBuilder::create(&store_dir, cfg).map_err(|e| format!("store: {e}"))?;
    for (i, e) in base.kb.entities().iter().enumerate() {
        builder
            .push(StoreRecord {
                title: e.title.clone(),
                description: e.description.clone(),
                vector: vectors.row(i).to_vec(),
            })
            .map_err(|e| format!("store push: {e}"))?;
    }
    let entity_store = Arc::new(builder.finish().map_err(|e| format!("store finish: {e}"))?);
    times.store_write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ivf = IvfIndex::build(entity_store, scaled_ivf(base.kb.len()), Threads::new(nproc()))
        .map_err(|e| format!("ivf build: {e}"))?;
    ivf.save(&store_dir.join(IVF_FILE)).map_err(|e| format!("ivf save: {e}"))?;
    times.ivf_build_s = t.elapsed().as_secs_f64();
    Ok((ckpt, times))
}

/// A server at `ServerConfig::default()` whose reload source is `ckpt`.
/// A store beside the checkpoint is bound by one reload before the
/// server starts, so every served generation is store-backed.
pub fn start_server(base: &Base, ckpt: &Path, store: bool) -> Result<Server, String> {
    let registry =
        ModelRegistry::with_loader(base.model(LinkerConfig::default()), ckpt.into(), base.loader())
            .map_err(|e| format!("registry: {e}"))?;
    if store {
        registry.reload(None).map_err(|e| format!("initial store reload: {e}"))?;
    }
    Server::start_with_registry(registry, ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))
}

/// An in-process linker over `generation`, as a batch worker builds it
/// but with `threads` workers.
pub fn linker(generation: &Generation, threads: usize) -> Result<TwoStageLinker<'_>, String> {
    let m = &generation.model;
    let linker = TwoStageLinker::with_frozen(
        &m.bi,
        &m.cross,
        &m.vocab,
        &m.kb,
        LinkerConfig { threads: Threads::new(threads), ..m.linker },
        Arc::clone(&generation.index),
        generation.qindex.clone(),
        m.frozen_bi().clone(),
        m.frozen_cross().clone(),
    )
    .map_err(|e| format!("linker: {e}"))?;
    match generation.ann_source() {
        Some(ann) => linker.with_ann(ann).map_err(|e| format!("linker ann: {e}")),
        None => Ok(linker),
    }
}

/// The reference generation for `source`: store-backed when a store
/// sits beside the checkpoint, dictionary-backed otherwise.
pub fn reference(base: &Base, ckpt: &Path, store: bool) -> Result<Generation, String> {
    let model = base.model(LinkerConfig::default());
    let generation = if store {
        let dir = ckpt.parent().unwrap_or(Path::new(".")).join(mb_serve::registry::STORE_SUBDIR);
        Generation::with_store(0, "reference".into(), model, &dir)
    } else {
        Generation::build(0, "reference".into(), model)
    };
    generation.map_err(|e| format!("reference generation: {e}"))
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
