//! `bulk_link`: offline linking of a large mention set with
//! `TwoStageLinker::link_batch` over fixed 32-mention chunks at nproc
//! linker threads, as `metablink evaluate` runs it. No HTTP, queue,
//! linger or cache.

use crate::setup::{self, Base};
use crate::trace::{self, Tracer};
use crate::{median, quantile, Args, Outcome, PhaseTally};
use mb_common::Rng;
use mb_core::linker::{LinkResult, LinkerConfig, TwoStageLinker};
use mb_datagen::LinkedMention;
use mb_serve::Generation;
use mb_store::Threads;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CHUNK: usize = 32;
/// Mentions in the linked set (128 chunks), cycled for the whole phase.
const MENTIONS: usize = 4_096;
/// Rounds per run; each holds one of every measurement, so a slow
/// stretch of the machine hits each a little instead of one wholly.
const ROUNDS: usize = 5;
/// Shares of a round: the bulk segment, then single-mention `link`
/// calls from one caller (`low`) and from nproc callers (`high`, `cap`).
const BULK_SHARE: f64 = 0.75;
const LOW_SHARE: f64 = 0.08;
const HIGH_SHARE: f64 = 0.12;
const SETUPS: usize = 3;

/// FNV-1a over ids and score bits of a chunk's results.
fn digest(results: &[LinkResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.predicted.map_or(u64::MAX, |id| u64::from(id.0)));
        for ((id, bi), score) in r.retrieved.iter().zip(&r.rerank_scores) {
            eat(u64::from(id.0));
            eat(bi.to_bits());
            eat(score.to_bits());
        }
    }
    h
}

fn linker_cfg(threads: usize) -> LinkerConfig {
    LinkerConfig { threads: Threads::new(threads), ..LinkerConfig::default() }
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let threads = setup::nproc();
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut built: Option<(Base, std::path::PathBuf, Generation)> = None;
    for i in 0..SETUPS {
        drop(built.take());
        let dir = work.join(format!("setup{i}"));
        let start = Instant::now();
        let base = Base::generate(false)?;
        out.layers.insert("setup.world_s", start.elapsed().as_secs_f64());
        let t = Instant::now();
        let model = base.model(linker_cfg(threads));
        let (ckpt, _) = setup::write_source(&dir, &model, None)?;
        let generation =
            Generation::build(1, "bulk".into(), model).map_err(|e| format!("generation: {e}"))?;
        out.layers.insert("setup.model_s", t.elapsed().as_secs_f64());
        // Warm-up: one chunk through the linker.
        let warm = base.mentions(CHUNK, &mut Rng::seed_from_u64(u64::MAX));
        setup::linker(&generation, threads)?
            .link_batch(&warm)
            .map_err(|e| format!("warm-up: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i > 0 {
            let _ = std::fs::remove_dir_all(work.join(format!("setup{}", i - 1)));
        }
        built = Some((base, ckpt, generation));
    }
    let (base, ckpt, generation) = built.ok_or("no set-up ran")?;
    for k in
        ["setup.entity_embed_s", "setup.store_write_s", "setup.ivf_build_s", "setup.server_start_s"]
    {
        out.layers.insert(k, 0.0);
    }
    out.e2e.insert("setup_s", median(setup_s));

    let mentions = base.mentions(MENTIONS, &mut Rng::seed_from_u64(args.seed));
    let chunks: Vec<&[LinkedMention]> = mentions.chunks(CHUNK).collect();
    let linker = setup::linker(&generation, threads)?;
    // Single-mention callers link on one thread each, as a server worker
    // does, so nproc callers do not also fan out inside every call.
    let single = setup::linker(&generation, 1)?;

    // Rounds of a bulk segment (cycling the chunks; later passes must
    // repeat the first) and single-mention calls from one caller and
    // from nproc callers; then rebuilds of the generation from the
    // checkpoint, which is what a reload does without a server.
    let mut first: Vec<Option<Vec<LinkResult>>> = vec![None; chunks.len()];
    let mut digests = vec![0u64; chunks.len()];
    let mut chunk_ms = Vec::new();
    let (mut linked, mut mismatched, mut bulk_s) = (0usize, 0u64, 0.0);
    let mut next_chunk = 0usize;
    let mut low = PhaseTally::new("low");
    let mut high = PhaseTally::new("high");
    // Per-round medians and rates; each metric is their median.
    let (mut low_p50, mut high_p50, mut high_rps) = (Vec::new(), Vec::new(), Vec::new());
    let mut reload_s = Vec::new();
    let loader = base.loader();
    let round_s = args.seconds / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(round_s * BULK_SHARE);
        while Instant::now() < end {
            let c = next_chunk % chunks.len();
            next_chunk += 1;
            let t = Instant::now();
            let results = linker.link_batch(chunks[c]).map_err(|e| format!("link_batch: {e}"))?;
            chunk_ms.push(t.elapsed().as_secs_f64() * 1e3);
            linked += chunks[c].len();
            out.attempted += 1;
            match &first[c] {
                None => {
                    digests[c] = digest(&results);
                    first[c] = Some(results);
                }
                Some(_) if digest(&results) != digests[c] => mismatched += 1,
                Some(_) => {}
            }
        }
        bulk_s += start.elapsed().as_secs_f64();

        let reference: Vec<Option<&LinkResult>> = first
            .iter()
            .zip(&chunks)
            .flat_map(|(results, chunk)| match results {
                Some(r) => r.iter().map(Some).collect::<Vec<_>>(),
                None => vec![None; chunk.len()],
            })
            .collect();
        let from = low.latencies_ms.len();
        single_calls(&mut low, &single, &mentions, &reference, 1, round_s * LOW_SHARE);
        low_p50.push(median(low.latencies_ms[from..].to_vec()));
        let (from, ok) = (high.latencies_ms.len(), high.ok);
        let t = Instant::now();
        single_calls(&mut high, &single, &mentions, &reference, threads, round_s * HIGH_SHARE);
        high_rps.push((high.ok - ok) as f64 / t.elapsed().as_secs_f64());
        high_p50.push(median(high.latencies_ms[from..].to_vec()));
    }
    // Taken before the rebuilds below: where a dropped generation's
    // memory lands depends on allocator history.
    out.e2e.insert("rss_mb", setup::rss_mb());
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let model = loader(&ckpt).map_err(|e| format!("reload load: {e}"))?;
        Generation::build(2, "reload".into(), model).map_err(|e| format!("reload build: {e}"))?;
        reload_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
    }
    out.e2e.insert("mentions_per_s", linked as f64 / bulk_s);
    chunk_ms.sort_by(f64::total_cmp);
    println!(
        "bulk: {linked} mentions in {} chunks over {bulk_s:.2} s, chunk p50 {:.3} ms, {mismatched} digest mismatches",
        chunk_ms.len(),
        quantile(&chunk_ms, 0.5)
    );
    out.failed += mismatched;
    for t in [&mut low, &mut high] {
        t.latencies_ms.sort_by(f64::total_cmp);
        t.print();
        out.attempted += t.sent;
        out.failed += t.failed;
    }
    out.e2e.insert("p50_low_ms", median(low_p50));
    out.e2e.insert("p50_high_ms", median(high_p50));
    out.e2e.insert("capacity_rps", median(high_rps));
    reload_s.sort_by(f64::total_cmp);
    println!("reload rebuilds (s): {reload_s:.3?}");
    out.e2e.insert("reload_s", median(reload_s));

    // Stage replay at the same thread count: its digests must equal the
    // bulk pass's. Timed against untraced `link_batch` in a traced run.
    let mut tr = Tracer::new();
    let (mut traced_us, mut plain_us) = (0.0, 0.0);
    let (mut rows, mut candidates) = (0usize, 0usize);
    for (c, chunk) in chunks.iter().enumerate() {
        let (results, counts) =
            trace::replay_batch(&mut tr, &generation, &linker, c as u64, chunk, None)?;
        traced_us += counts.batch_us;
        rows += counts.embed_rows;
        candidates += counts.candidates;
        out.attempted += 1;
        if first[c].is_some() && digest(&results) != digests[c] {
            out.failed += 1;
            eprintln!("replay digest differs from the bulk pass on chunk {c}");
        }
        if args.trace {
            let t = Instant::now();
            std::hint::black_box(linker.link_batch(chunk).map_err(|e| format!("link_batch: {e}"))?);
            plain_us += t.elapsed().as_secs_f64() * 1e6;
        }
    }
    let total = digests.iter().fold(0u64, |h, d| h.rotate_left(5) ^ d);
    println!("bulk digest {total:016x} over {} chunks at {threads} threads", chunks.len());

    crate::serve::memory(&mut out, &generation, false);
    if args.trace {
        crate::serve::stage_layers(&mut out, &tr, rows, candidates, chunks.len());
        let ratio = if plain_us > 0.0 { (plain_us - traced_us) / plain_us } else { 0.0 };
        out.layers.insert("trace.residual_frac", ratio);
        for k in [
            "serve.wait_ms",
            "serve.batch_mean",
            "serve.service_ewma_us",
            "serve.shed",
            "serve.http_us",
            "store.open_s",
            "store.tables_s",
            "ivf.load_s",
            "ivf.build_s",
            "cache.hit_rate",
            "repeat_share",
            "gen.late_frac",
        ] {
            out.layers.insert(k, 0.0);
        }
        out.layers.insert("retrieve.recall64", 1.0);
        tr.write(&crate::trace_path(args))?;
    }
    Ok(out)
}

/// Single-mention `link` calls from `callers` threads for `seconds`,
/// each checked against the bulk pass's result for that mention, added
/// to `tally`.
fn single_calls(
    tally: &mut PhaseTally,
    linker: &TwoStageLinker<'_>,
    mentions: &[LinkedMention],
    reference: &[Option<&LinkResult>],
    callers: usize,
    seconds: f64,
) {
    // Mentions whose chunk the bulk pass has linked (chunks go in order).
    let covered = reference.iter().take_while(|r| r.is_some()).count().max(1);
    let next = AtomicUsize::new(tally.sent as usize);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let samples: Vec<(f64, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let i = next.fetch_add(1, Ordering::Relaxed) % covered;
                        let t = Instant::now();
                        let result = linker.link(&mentions[i]);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let good = matches!((&result, reference.get(i)), (Ok(r), Some(Some(want))) if r == *want);
                        out.push((ms, good));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    for (ms, good) in samples {
        tally.sent += 1;
        tally.latencies_ms.push(ms);
        if good {
            tally.ok += 1;
        } else {
            tally.failed += 1;
        }
    }
}
