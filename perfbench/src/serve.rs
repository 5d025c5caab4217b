//! The two serving workloads: a real `mb_serve::Server` at its default
//! configuration, driven over localhost HTTP.
//!
//! Each run is five rounds of a `low` segment (open loop, 50 req/s, one
//! hot reload), a `high` segment (open loop, 200 req/s) and a `cap`
//! segment (closed loop, nproc callers). Every reply is checked against
//! an in-process `link_batch` reference.

use crate::client::{self, Record, Scrape};
use crate::setup::{self, Base};
use crate::trace::{self, Tracer};
use crate::{mean, median, Args, Outcome, PhaseTally};
use mb_common::Rng;
use mb_core::linker::{EmbedCache, LinkResult};
use mb_datagen::LinkedMention;
use mb_kb::KnowledgeBase;
use mb_serve::json;
use mb_serve::Generation;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

const LOW_RPS: f64 = 50.0;
const HIGH_RPS: f64 = 200.0;
/// The run is cut into rounds of low, high and cap segments, so a slow
/// stretch of the machine hits every phase a little instead of one
/// phase wholly.
const ROUNDS: usize = 5;
/// Shares of a round given to the low, high and cap segments. The
/// open-loop segments get a fixed count of arrivals (rate × share ×
/// round), so at 30 s per run each open-loop phase holds 1020 arrivals
/// and p99 has ten samples beyond it.
const LOW_SHARE: f64 = 0.68;
const HIGH_SHARE: f64 = 0.17;
const CAP_SHARE: f64 = 0.15;
/// Hot reloads per `low` segment, evenly spaced (five per run). More
/// swaps make the end-of-run VmRSS depend on which freed generation the
/// allocator kept.
const RELOADS_PER_ROUND: usize = 1;
/// Closed-loop warm-up requests before any phase.
const WARMUP: usize = 200;
/// Most closed-loop requests the cap phase may send per second.
const CAP_CEILING_RPS: f64 = 2_000.0;
/// Distinct mention contexts in the Zipf pool (above the 4096-entry
/// embed cache, below the filler-token budget that keeps them distinct).
const ZIPF_POOL: usize = 16_384;
const ZIPF_EXPONENT: f64 = 1.1;
/// Candidates the server renders when a request names no `k`.
const REPLY_K: usize = 5;
/// Offline reference chunk, as `metablink evaluate` links.
const CHUNK: usize = 32;
/// Setups per run whose median is `setup_s` (the store workload builds
/// its IVF index once per run: that build dominates and is steady).
const SETUPS_DICT: usize = 3;
const SETUPS_STORE: usize = 1;
/// Bound on the traced replay.
const REPLAY_MAX_BATCHES: usize = 800;

/// One round's inputs: table rows per phase and the open-loop arrival
/// offsets.
struct Round {
    low: Vec<usize>,
    high: Vec<usize>,
    cap: Vec<usize>,
    low_schedule: Vec<Duration>,
    high_schedule: Vec<Duration>,
}

/// The request inputs of one run: a table of distinct mention contexts
/// and the table row each request sends.
struct Inputs {
    table: Vec<LinkedMention>,
    payloads: Vec<Vec<u8>>,
    warm: Vec<usize>,
    rounds: Vec<Round>,
}

/// Give each mention a distinct filler token at the head of its right
/// context, so no two contexts share a cache key.
fn distinct(mut mentions: Vec<LinkedMention>, rng: &mut Rng) -> Result<Vec<LinkedMention>, String> {
    if mentions.len() > setup::VOCAB_FILLER {
        return Err(format!(
            "{} distinct contexts asked for, {} filler tokens to make them; lower --seconds",
            mentions.len(),
            setup::VOCAB_FILLER
        ));
    }
    let mut tokens: Vec<usize> = (0..setup::VOCAB_FILLER).collect();
    rng.shuffle(&mut tokens);
    for (m, t) in mentions.iter_mut().zip(tokens) {
        m.right = format!("tok{t} {}", m.right);
    }
    Ok(mentions)
}

impl Inputs {
    fn generate(base: &Base, seed: u64, seconds: f64, zipf: bool) -> Result<Inputs, String> {
        let mut rng = Rng::seed_from_u64(seed);
        let round_s = seconds / ROUNDS as f64;
        let cap_max = (CAP_CEILING_RPS * round_s * CAP_SHARE).ceil() as usize;
        let schedules: Vec<(Vec<Duration>, Vec<Duration>)> = (0..ROUNDS)
            .map(|_| {
                let arrivals = |rate: f64, share: f64| (rate * round_s * share).ceil() as usize;
                let low = client::paced_schedule(LOW_RPS, arrivals(LOW_RPS, LOW_SHARE), &mut rng);
                let high = arrivals(HIGH_RPS, HIGH_SHARE);
                (low, client::paced_schedule(HIGH_RPS, high, &mut rng))
            })
            .collect();
        let total =
            WARMUP + schedules.iter().map(|(l, h)| l.len() + h.len() + cap_max).sum::<usize>();
        let (table, rows): (Vec<LinkedMention>, Vec<usize>) = if zipf {
            let pool = distinct(base.mentions(ZIPF_POOL, &mut rng), &mut rng)?;
            let mut cdf = Vec::with_capacity(ZIPF_POOL);
            let mut acc = 0.0;
            for r in 0..ZIPF_POOL {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
                cdf.push(acc);
            }
            let rows = (0..total)
                .map(|_| {
                    let u = rng.f64() * acc;
                    cdf.partition_point(|&c| c < u).min(ZIPF_POOL - 1)
                })
                .collect();
            (pool, rows)
        } else {
            (distinct(base.mentions(total, &mut rng), &mut rng)?, (0..total).collect())
        };
        let payloads = table.iter().map(client::link_request).collect();
        let mut rest = rows.as_slice();
        let mut take = |n: usize| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            head.to_vec()
        };
        let warm = take(WARMUP);
        let rounds = schedules
            .into_iter()
            .map(|(low_schedule, high_schedule)| Round {
                low: take(low_schedule.len()),
                high: take(high_schedule.len()),
                cap: take(cap_max),
                low_schedule,
                high_schedule,
            })
            .collect();
        Ok(Inputs { table, payloads, warm, rounds })
    }

    fn requests(&self, rows: &[usize]) -> Vec<Vec<u8>> {
        rows.iter().map(|&r| self.payloads[r].clone()).collect()
    }
}

/// Render a result exactly as `/link` does: rerank order, top `k`.
fn render(result: &LinkResult, k: usize, generation: u64, kb: &KnowledgeBase) -> String {
    let mut ranked: Vec<_> = result
        .retrieved
        .iter()
        .zip(&result.rerank_scores)
        .map(|(&(id, bi), &score)| (id, bi, score))
        .collect();
    ranked.sort_by(|a, b| b.2.total_cmp(&a.2));
    let candidates: Vec<String> = ranked
        .iter()
        .take(k)
        .map(|&(id, bi, score)| {
            format!(
                "{{\"id\":{},\"title\":{},\"bi_score\":{},\"score\":{}}}",
                id.0,
                json::escape(&kb.entity(id).title),
                json::num(bi),
                json::num(score)
            )
        })
        .collect();
    let predicted = match result.predicted {
        Some(id) => format!("{{\"id\":{},\"title\":{}}}", id.0, json::escape(&kb.entity(id).title)),
        None => "null".to_string(),
    };
    format!(
        "{{\"domain\":{},\"generation\":{generation},\"predicted\":{predicted},\"candidates\":[{}]}}",
        json::escape(setup::DOMAIN),
        candidates.join(",")
    )
}

/// A running server with everything built for it.
struct Deployment {
    base: Base,
    ckpt: std::path::PathBuf,
    server: mb_serve::Server,
    times: BTreeMap<&'static str, f64>,
}

fn deploy(store: bool, dir: &Path) -> Result<Deployment, String> {
    let mut times = BTreeMap::new();
    let t = Instant::now();
    let base = Base::generate(store)?;
    times.insert("setup.world_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let model = base.model(mb_core::linker::LinkerConfig::default());
    let (ckpt, st) = setup::write_source(dir, &model, store.then_some(&base))?;
    drop(model);
    let source_s = t.elapsed().as_secs_f64();
    times.insert("setup.model_s", source_s - st.entity_embed_s - st.store_write_s - st.ivf_build_s);
    times.insert("setup.entity_embed_s", st.entity_embed_s);
    times.insert("setup.store_write_s", st.store_write_s);
    times.insert("setup.ivf_build_s", st.ivf_build_s);
    let t = Instant::now();
    let server = setup::start_server(&base, &ckpt, store)?;
    times.insert("setup.server_start_s", t.elapsed().as_secs_f64());
    Ok(Deployment { base, ckpt, server, times })
}

/// `/metrics` deltas summed over the rounds.
#[derive(Default)]
struct Deltas {
    /// Batch-size histogram of the low segments.
    low_sizes: Vec<(usize, f64)>,
    batches: [f64; 3],
    batched: f64,
    hits: f64,
    misses: f64,
    rejected: f64,
    /// Service-time EWMA at the end of each low segment.
    ewma_us: Vec<f64>,
}

impl Deltas {
    /// Add one round: scrapes before low, before high, before cap, after cap.
    fn add(&mut self, m: &[Scrape; 4]) {
        let sizes = m[1].batch_sizes(&m[0]);
        if self.low_sizes.is_empty() {
            self.low_sizes = sizes;
        } else {
            for (acc, (_, n)) in self.low_sizes.iter_mut().zip(sizes) {
                acc.1 += n;
            }
        }
        for (i, b) in self.batches.iter_mut().enumerate() {
            *b += m[i + 1].delta(&m[i], "serve_batches_total");
        }
        self.batched += m[3].delta(&m[0], "serve_batched_requests_total");
        // A reload replaces the embed cache (and its counters) during the
        // low segment, so hits and misses are counted after it.
        self.hits += m[3].delta(&m[1], "serve_cache_hits_total");
        self.misses += m[3].delta(&m[1], "serve_cache_misses_total");
        self.rejected += m[3].delta(&m[0], "serve_rejected_total");
        self.ewma_us.push(m[1].get("serve_batch_service_ewma_us"));
    }
}

pub fn run(args: &Args, store: bool, work: &Path) -> Result<Outcome, String> {
    let threads = setup::nproc();
    let mut out = Outcome::default();

    // Set-up: world, model, reload source (store + IVF), server start
    // and warm-up, repeated and reported as a median.
    let mut setup_s = Vec::new();
    let mut deployment: Option<Deployment> = None;
    let mut inputs: Option<Inputs> = None;
    let setups = if store { SETUPS_STORE } else { SETUPS_DICT };
    for i in 0..setups {
        if let Some(d) = deployment.take() {
            d.server.shutdown();
        }
        let dir = work.join(format!("setup{i}"));
        let t = Instant::now();
        let d = deploy(store, &dir)?;
        let built = t.elapsed();
        // Inputs are the benchmark's, not the system's: not timed.
        if inputs.is_none() {
            inputs = Some(Inputs::generate(&d.base, args.seed, args.seconds, store)?);
        }
        let inp = inputs.as_ref().ok_or("no inputs")?;
        let t = Instant::now();
        let warm_requests = inp.requests(&inp.warm);
        let warm =
            client::closed_loop(d.server.addr(), &warm_requests, Duration::from_secs(600), threads)
                .0;
        if let Some(bad) = warm.iter().find(|r| !matches!(r.reply, Ok((200, _)))) {
            return Err(format!("warm-up request failed: {:?}", bad.reply));
        }
        setup_s.push((built + t.elapsed()).as_secs_f64());
        if i + 1 < setups {
            let _ = std::fs::remove_dir_all(&dir);
        }
        deployment = Some(d);
    }
    let (d, inp) = match (deployment, inputs) {
        (Some(d), Some(i)) => (d, i),
        _ => return Err("no set-up ran".to_string()),
    };
    out.e2e.insert("setup_s", median(setup_s));
    out.layers.extend(d.times.iter().map(|(k, v)| (*k, *v)));

    // The reference: an in-process linker over the same generation at
    // nproc threads. After each round it links that round's new
    // mentions in 32-mention chunks; the median chunk rate is the
    // offline throughput.
    let reference = setup::reference(&d.base, &d.ckpt, store)?;
    let linker = setup::linker(&reference, threads)?;
    let mut expected: BTreeMap<usize, LinkResult> = BTreeMap::new();
    let mut offline_rates = Vec::new();

    // Rounds of low (with one hot reload), high and cap segments, so
    // each phase samples the whole run rather than one stretch of it.
    let addr = d.server.addr();
    let round_s = args.seconds / ROUNDS as f64;
    // (round, phase, table row, outcome) of every measured request.
    let mut served: Vec<(usize, usize, usize, Record)> = Vec::new();
    let mut deltas = Deltas::default();
    let mut reloads = Vec::new();
    let mut cap_rates = Vec::new();
    let mut last = Scrape::default();
    for (ri, round) in inp.rounds.iter().enumerate() {
        let m0 = Scrape::take(addr)?;
        let low_requests = inp.requests(&round.low);
        let (low, swaps) = std::thread::scope(|s| {
            let load =
                s.spawn(|| client::open_loop(addr, &low_requests, &round.low_schedule, threads));
            let swaps = reloads_during(addr, round_s * LOW_SHARE);
            (load.join().unwrap_or_else(|p| std::panic::resume_unwind(p)), swaps)
        });
        reloads.extend(swaps);
        let m1 = Scrape::take(addr)?;
        let high =
            client::open_loop(addr, &inp.requests(&round.high), &round.high_schedule, threads);
        let m2 = Scrape::take(addr)?;
        let cap_window = Duration::from_secs_f64(round_s * CAP_SHARE);
        let (cap, elapsed) =
            client::closed_loop(addr, &inp.requests(&round.cap), cap_window, threads);
        let completed = cap.iter().filter(|r| matches!(r.reply, Ok((200, _)))).count();
        cap_rates.push(completed as f64 / elapsed.as_secs_f64());
        let m3 = Scrape::take(addr)?;
        for (phase, rows, records) in
            [(0, &round.low, low), (1, &round.high, high), (2, &round.cap, cap)]
        {
            served.extend(records.into_iter().map(|r| (ri, phase, rows[r.index], r)));
        }
        let mut fresh: Vec<usize> =
            served.iter().map(|s| s.2).filter(|r| !expected.contains_key(r)).collect();
        fresh.sort_unstable();
        fresh.dedup();
        let batch: Vec<LinkedMention> = fresh.iter().map(|&r| inp.table[r].clone()).collect();
        let mut results = Vec::with_capacity(batch.len());
        for chunk in batch.chunks(CHUNK) {
            let t = Instant::now();
            results.extend(linker.link_batch(chunk).map_err(|e| format!("reference: {e}"))?);
            offline_rates.push(chunk.len() as f64 / t.elapsed().as_secs_f64());
        }
        expected.extend(fresh.into_iter().zip(results));
        deltas.add(&[m0, m1, m2, m3.clone()]);
        last = m3;
    }
    out.e2e.insert("rss_mb", setup::rss_mb());
    let offline_mentions = offline_rates.len();
    out.e2e.insert("mentions_per_s", median(offline_rates));
    let last_generation = last.get("serve_model_generation") as u64;
    d.server.shutdown();

    // Reloads: every one must swap.
    let mut reload_times = Vec::new();
    for r in &reloads {
        out.attempted += 1;
        match r {
            Ok(s) => reload_times.push(*s),
            Err(e) => {
                out.failed += 1;
                eprintln!("reload failed: {e}");
            }
        }
    }
    reload_times.sort_by(f64::total_cmp);
    println!("reloads (s): {reload_times:.3?}");
    out.e2e.insert("reload_s", median(reload_times));

    // Every reply against the reference, rendered for the generation
    // that served it.
    let first_generation = if store { 2 } else { 1 };
    let mut tallies = [PhaseTally::new("low"), PhaseTally::new("high"), PhaseTally::new("cap")];
    let mut round_ms = vec![[Vec::new(), Vec::new(), Vec::new()]; ROUNDS];
    for (round, phase, row, r) in &served {
        let tally = &mut tallies[*phase];
        tally.sent += 1;
        tally.late += u64::from(r.late);
        match &r.reply {
            Ok((200, body)) => {
                tally.latencies_ms.push(r.latency_us / 1e3);
                round_ms[*round][*phase].push(r.latency_us / 1e3);
                let generation = json::parse(body.as_bytes())
                    .ok()
                    .and_then(|doc| doc.get("generation").and_then(|g| g.as_usize()))
                    .map_or(0, |g| g as u64);
                let good = (first_generation..=last_generation).contains(&generation)
                    && expected
                        .get(row)
                        .is_some_and(|res| render(res, REPLY_K, generation, &d.base.kb) == *body);
                if good {
                    tally.ok += 1;
                } else {
                    tally.failed += 1;
                    if tally.failed <= 3 {
                        eprintln!("{} reply mismatch: {body}", tally.name);
                    }
                }
            }
            Ok((503, _)) => {
                tally.shed += 1;
                tally.failed += 1;
            }
            Ok((status, body)) => {
                tally.failed += 1;
                eprintln!("{} reply {status}: {body}", tally.name);
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("{} transport error: {e}", tally.name);
            }
        }
    }
    for t in tallies.iter_mut() {
        t.latencies_ms.sort_by(f64::total_cmp);
        t.print();
        out.attempted += t.sent;
        out.failed += t.failed;
    }
    let [low, high, _] = &tallies;
    // Median over rounds of each round's median: a round the machine
    // stalled in does not set it.
    let p50 = |phase: usize| median(round_ms.iter().map(|r| median(r[phase].clone())).collect());
    out.e2e.insert("p50_low_ms", p50(0));
    out.e2e.insert("p50_high_ms", p50(1));
    // Median over rounds, like the latencies.
    out.e2e.insert("capacity_rps", median(cap_rates));

    out.layers.insert("cache.hit_rate", ratio(deltas.hits, deltas.hits + deltas.misses));
    out.layers
        .insert("serve.batch_mean", ratio(deltas.batched, deltas.batches.iter().sum::<f64>()));
    out.layers.insert("serve.service_ewma_us", median(deltas.ewma_us.clone()));
    out.layers.insert("serve.shed", tallies.iter().map(|t| t.shed).sum::<u64>() as f64);
    let open_sent = (low.sent + high.sent) as f64;
    out.layers.insert("gen.late_frac", ratio((low.late + high.late) as f64, open_sent));
    let measured: Vec<usize> = served.iter().map(|s| s.2).collect();
    out.layers.insert("repeat_share", repeat_share(&inp.warm, &measured));
    println!(
        "metrics deltas: batches low/high/cap {:?}, cache hits {} misses {}, rejected {}, offline reference {offline_mentions} chunks",
        deltas.batches, deltas.hits, deltas.misses, deltas.rejected,
    );
    memory(&mut out, &reference, store);

    if args.trace {
        let low_rows: Vec<usize> = inp.rounds.iter().flat_map(|r| r.low.iter().copied()).collect();
        let low_mentions: Vec<LinkedMention> =
            low_rows.iter().map(|&r| inp.table[r].clone()).collect();
        let warm: Vec<LinkedMention> = inp.warm.iter().map(|&r| inp.table[r].clone()).collect();
        traced(args, &mut out, &reference, &low_mentions, &warm, &deltas.low_sizes)?;
        let exchanges: Vec<(Vec<u8>, &[u8])> = served
            .iter()
            .filter_map(|(_, phase, row, r)| match &r.reply {
                Ok((200, body)) if *phase == 0 => {
                    Some((inp.payloads[*row].clone(), body.as_bytes()))
                }
                _ => None,
            })
            .collect();
        out.layers.insert("serve.http_us", http_us(&exchanges)?);
        if store {
            store_layers(&mut out, &d.ckpt)?;
        } else {
            for k in ["store.open_s", "store.tables_s", "ivf.load_s", "ivf.build_s"] {
                out.layers.insert(k, 0.0);
            }
        }
    }
    Ok(out)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Share of measured requests whose mention was requested before
/// (warm-up included).
fn repeat_share(warm: &[usize], measured: &[usize]) -> f64 {
    let mut seen: std::collections::HashSet<usize> = warm.iter().copied().collect();
    let repeats = measured.iter().filter(|&&r| !seen.insert(r)).count();
    ratio(repeats as f64, measured.len() as f64)
}

/// Send [`RELOADS_PER_ROUND`] reloads spread evenly over the next
/// `seconds`, returning each one's wall time.
fn reloads_during(addr: SocketAddr, seconds: f64) -> Vec<Result<f64, String>> {
    let start = Instant::now();
    (1..=RELOADS_PER_ROUND)
        .map(|i| {
            let at = seconds * i as f64 / (RELOADS_PER_ROUND + 1) as f64;
            std::thread::sleep(Duration::from_secs_f64(at).saturating_sub(start.elapsed()));
            let t = Instant::now();
            match client::fetch(addr, "POST", "/admin/reload") {
                Ok((200, _)) => Ok(t.elapsed().as_secs_f64()),
                Ok((status, body)) => Err(format!("reload answered {status}: {body}")),
                Err(e) => Err(e),
            }
        })
        .collect()
}

/// Resident table sizes: from the accessors where the program has them,
/// computed from `n` and `dim` for the store and the IVF packed lists
/// (int8 codes plus one f64 scale per row, one copy each).
pub fn memory(out: &mut Outcome, generation: &Generation, store: bool) {
    let m = &generation.model;
    let text: usize = m.kb.entities().iter().map(|e| e.title.len() + e.description.len()).sum();
    out.layers.insert("mem.kb_text_bytes", text as f64);
    out.layers.insert(
        "mem.frozen_table_bytes",
        (m.frozen_bi().table_bytes() + m.frozen_cross().table_bytes()) as f64,
    );
    out.layers
        .insert("mem.qindex_bytes", generation.qindex.as_ref().map_or(0, |q| q.bytes()) as f64);
    let table = if store {
        let n = generation.store.as_ref().map_or(0, |s| s.len());
        (n * setup::DIM + n * std::mem::size_of::<f64>()) as f64
    } else {
        0.0
    };
    out.layers.insert("mem.store_table_bytes", table);
    out.layers.insert("mem.ivf_packed_bytes", table);
}

/// Time the registry's store path: open, table assembly, IVF load.
fn store_layers(out: &mut Outcome, ckpt: &Path) -> Result<(), String> {
    let dir = ckpt.parent().unwrap_or(Path::new(".")).join(mb_serve::registry::STORE_SUBDIR);
    let t = Instant::now();
    let store = std::sync::Arc::new(
        mb_store::EntityStore::open(&dir).map_err(|e| format!("store open: {e}"))?,
    );
    out.layers.insert("store.open_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let tables = store.quantized_index().map_err(|e| format!("store tables: {e}"))?;
    out.layers.insert("store.tables_s", t.elapsed().as_secs_f64());
    drop(tables);
    let t = Instant::now();
    mb_store::IvfIndex::load(&dir.join(mb_store::IVF_FILE), store)
        .map_err(|e| format!("ivf load: {e}"))?;
    out.layers.insert("ivf.load_s", t.elapsed().as_secs_f64());
    out.layers.insert("ivf.build_s", out.layers.get("setup.ivf_build_s").copied().unwrap_or(0.0));
    Ok(())
}

/// Batch sizes for the replay, from the low phase's batch-size histogram
/// delta: buckets of one size replay as that size, wider buckets as
/// their midpoint.
fn batch_plan(composition: &[(usize, f64)], rng: &mut Rng) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut lower = 1;
    for &(bound, batches) in composition {
        let upper = if bound == 0 { lower * 2 } else { bound };
        let size = (lower + upper) / 2;
        sizes.extend(std::iter::repeat_n(size.max(1), batches as usize));
        lower = upper + 1;
    }
    if sizes.is_empty() {
        sizes.push(1);
    }
    rng.shuffle(&mut sizes);
    sizes
}

/// The traced replay of the low phase's mentions at its batch
/// composition, with the untraced `link_batch_cached` on the same
/// batches for the residual and as the output check.
fn traced(
    args: &Args,
    out: &mut Outcome,
    generation: &Generation,
    mentions: &[LinkedMention],
    warm: &[LinkedMention],
    composition: &[(usize, f64)],
) -> Result<(), String> {
    // The server's own linker settings: one thread.
    let linker = setup::linker(generation, 1)?;
    let capacity = mb_serve::ServerConfig::default().cache_capacity;
    let (mut traced_cache, mut plain_cache) =
        (EmbedCache::new(capacity), EmbedCache::new(capacity));
    for chunk in warm.chunks(CHUNK) {
        for cache in [&mut traced_cache, &mut plain_cache] {
            linker.link_batch_cached(chunk, Some(cache)).map_err(|e| format!("warm: {e}"))?;
        }
    }
    let plan = batch_plan(composition, &mut Rng::seed_from_u64(args.seed ^ 0x7ace));
    let mut tr = Tracer::new();
    let (mut traced_us, mut plain_us) = (0.0, 0.0);
    let mut per_request_ms = Vec::new();
    let (mut rows, mut candidates, mut batches) = (0usize, 0usize, 0usize);
    let mut at = 0;
    for (id, &size) in plan.iter().cycle().enumerate().take(REPLAY_MAX_BATCHES) {
        if at >= mentions.len() {
            break;
        }
        let batch = &mentions[at..(at + size).min(mentions.len())];
        at += batch.len();
        let (results, counts) = trace::replay_batch(
            &mut tr,
            generation,
            &linker,
            id as u64,
            batch,
            Some(&mut traced_cache),
        )?;
        let span_us = counts.batch_us;
        let t = Instant::now();
        let plain = linker
            .link_batch_cached(batch, Some(&mut plain_cache))
            .map_err(|e| format!("link_batch: {e}"))?;
        plain_us += t.elapsed().as_secs_f64() * 1e6;
        traced_us += span_us;
        out.attempted += 1;
        if plain != results {
            out.failed += 1;
            eprintln!("traced replay differs from link_batch_cached on batch {id}");
        }
        per_request_ms.extend(std::iter::repeat_n(span_us / 1e3, batch.len()));
        rows += counts.embed_rows;
        candidates += counts.candidates;
        batches += 1;
    }
    let compute_ms = median(per_request_ms);
    let p50 = out.e2e.get("p50_low_ms").copied().unwrap_or(0.0);
    out.layers.insert("serve.wait_ms", p50 - compute_ms);
    out.layers.insert("trace.residual_frac", ratio(plain_us - traced_us, plain_us));
    stage_layers(out, &tr, rows, candidates, batches);
    out.layers.insert("retrieve.recall64", recall64(generation, mentions)?);
    println!(
        "trace: {batches} batches, per-request compute p50 {compute_ms:.4} ms, untraced {:.1} µs vs traced {:.1} µs",
        plain_us, traced_us
    );
    tr.write(&crate::trace_path(args))
}

/// Per-layer self times (mean µs per batch) and work counts.
pub fn stage_layers(
    out: &mut Outcome,
    tr: &Tracer,
    rows: usize,
    candidates: usize,
    batches: usize,
) {
    let selfs = tr.self_times();
    for (layer, metric) in [
        ("tokenize", "tokenize.us"),
        ("embed", "embed.us"),
        ("retrieve", "retrieve.us"),
        ("assemble", "assemble.us"),
        ("rerank", "rerank.us"),
    ] {
        out.layers.insert(metric, selfs.get(layer).map_or(0.0, |v| mean(v)));
    }
    let per_batch = |n: usize| ratio(n as f64, batches as f64);
    out.layers.insert("embed.rows", per_batch(rows));
    out.layers.insert("assemble.candidates", per_batch(candidates));
    out.layers.insert("rerank.pairs", per_batch(candidates));
}

/// Median µs of the front end's parse-and-write work on recorded
/// exchanges: `read_request` and `json::parse` of the request bytes,
/// then `write_response_ext` of the reply body the server sent.
fn http_us(exchanges: &[(Vec<u8>, &[u8])]) -> Result<f64, String> {
    let limits = mb_serve::http::HttpLimits::default();
    let mut times = Vec::with_capacity(2_000);
    let mut sink = Vec::with_capacity(4_096);
    for (raw, reply) in exchanges.iter().cycle().take(2_000) {
        let t = Instant::now();
        let req = mb_serve::http::read_request(&mut std::io::Cursor::new(raw), &limits)
            .map_err(|e| format!("read_request: {e}"))?
            .ok_or("read_request: empty")?;
        let doc = json::parse(&req.body)?;
        sink.clear();
        mb_serve::http::write_response_ext(&mut sink, 200, "application/json", reply, false, &[])
            .map_err(|e| format!("write_response_ext: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((doc, &sink));
    }
    Ok(median(times))
}

/// Recall@64 of the serving backend against exact scoring of the same
/// tables on the replayed mentions (1.0 where serving is exact).
fn recall64(generation: &Generation, mentions: &[LinkedMention]) -> Result<f64, String> {
    let Some(ann) = generation.ann_source() else { return Ok(1.0) };
    let Some(exact) = &generation.qindex else { return Ok(1.0) };
    let m = &generation.model;
    let sample = &mentions[..mentions.len().min(256)];
    let bags: Vec<Vec<u32>> = sample
        .iter()
        .map(|x| mb_encoders::input::mention_bag(&m.vocab, &m.linker.input, x))
        .collect();
    let queries = m.frozen_bi().embed_mentions_batch(&bags);
    let threads = mb_store::Threads::new(setup::nproc());
    let k = m.linker.k;
    let truth = exact.top_k_batch(&queries, k, threads).map_err(|e| format!("exact: {e}"))?;
    let got = ann.top_k_batch(&queries, k, threads).map_err(|e| format!("ivf: {e}"))?;
    let recalls: Vec<f64> = truth
        .iter()
        .zip(&got)
        .map(|(t, g)| {
            let hit = t.iter().filter(|(id, _)| g.iter().any(|(x, _)| x == id)).count();
            ratio(hit as f64, t.len() as f64)
        })
        .collect();
    Ok(mean(&recalls))
}
