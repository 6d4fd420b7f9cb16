//! `stream_mix`: a seeded seven-family Figure-4 query stream through
//! `Session::verify_stream` on the smoke scale tier, at one worker per
//! core, with the default window and construction cache.

use crate::traced::{Layers, Traced};
use crate::util::{self, check_answer, median, ms, quantile, Expected, Report};
use crate::Config;
use aalwines::{NetworkPrecomp, Session, StreamEvent, StreamOptions};
use std::time::Instant;

/// Input families the run seed selects from.
pub const SLOTS: u64 = 8;
/// Most streams one run makes (the expected-verdict file covers this
/// many per slot).
pub const MAX_PASSES: u64 = 3;
/// Queries per stream.
pub const STREAM_LEN: usize = 200;
/// Session opens timed before each stream; `setup_s` is the median of
/// all of them.
const SETUPS: usize = 5;

/// The network: the scale tier's CI-sized instance.
pub fn dataplane() -> topogen::lsp::Dataplane {
    topogen::scale::scale_tier(&topogen::scale::ScaleConfig::smoke())
}

/// The query texts of stream `pass` of a run with `seed`.
pub fn pass_queries(dp: &topogen::lsp::Dataplane, seed: u64, pass: u64) -> Vec<String> {
    topogen::queries::figure4_queries(dp, STREAM_LEN, util::sub_seed(seed, SLOTS, pass))
}

/// Worker threads: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn open(net: netmodel::Network, threads: usize) -> Session {
    Session::builder()
        .threads(threads)
        .saturation_threads(1)
        .open(net)
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let expected = Expected::load("stream_mix")?;
    let dp = dataplane();
    let passes: Vec<Vec<String>> = (0..MAX_PASSES)
        .map(|p| pass_queries(&dp, cfg.seed, p))
        .collect();
    let net = dp.net;
    let threads = threads();

    // Each stream runs on a fresh session, so every stream starts from
    // the same cold cache; whole streams until the time is up. Each
    // stream's peak resident size is read on its own, from a heap
    // trimmed of what earlier streams freed. The session opens are timed
    // next to each stream, so the set-up samples span the run as the
    // other metrics do.
    let mut setup = Vec::new();
    let mut rss_reset = true;
    let mut peaks = Vec::new();
    let mut estimates = Vec::new();
    let mut latencies = Vec::new();
    // Wall time of each stream.
    let mut walls = Vec::new();
    let mut decided = 0u64;
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut peak_in_flight = 0usize;
    let mut resident = 0usize;
    let mut answered: Vec<Vec<String>> = Vec::new();
    let started = Instant::now();
    for queries in &passes {
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        util::trim_heap();
        rss_reset &= util::reset_own_peak_rss();
        let mut opened = None;
        for _ in 0..SETUPS {
            drop(opened.take());
            let n = net.clone();
            let t = Instant::now();
            opened = Some(open(n, threads));
            setup.push(t.elapsed().as_secs_f64());
        }
        let session = opened.expect("SETUPS > 0");
        let mut verdicts = vec![String::new(); queries.len()];
        let t0 = Instant::now();
        let summary = session.verify_stream(
            queries.clone().into_iter(),
            &StreamOptions::new(),
            &mut |event| {
                let StreamEvent::Answer {
                    index,
                    text,
                    answer,
                    ..
                } = event
                else {
                    return;
                };
                latencies.push(ms(t0.elapsed()));
                report.attempted += 1;
                decided += answer.outcome.is_conclusive() as u64;
                hits += answer.stats.cache_hits;
                misses += answer.stats.cache_misses;
                let k = query::parse_query(text)
                    .map(|q| q.max_failures)
                    .unwrap_or(0);
                verdicts[index] = check_answer(report, &expected, text, answer, &net, k);
            },
        );
        walls.push(t0.elapsed().as_secs_f64());
        let hwm = util::vm_hwm_bytes("self").unwrap_or(0) as f64;
        peaks.push(hwm);
        estimates.push(util::ratio(session.bytes_resident() as f64, hwm));
        resident = resident.max(session.bytes_resident());
        peak_in_flight = peak_in_flight.max(summary.peak_in_flight);
        answered.push(verdicts);
    }

    report.metric("setup_s", median(&setup), "s");
    let rates: Vec<f64> = walls.iter().map(|w| STREAM_LEN as f64 / w).collect();
    report.metric("throughput_qps", median(&rates), "1/s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    report.metric("peak_rss_mib", util::mib(median(&peaks)), "MiB");
    report.metric(
        "decided_ratio",
        decided as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cache.hit_ratio",
        util::ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    report.metric("cache.invalidated_share", 0.0, "ratio");
    report.metric("cache.resident_mib", util::mib(resident as f64), "MiB");
    report.metric("cache.estimate_over_rss", median(&estimates), "ratio");
    report.metric("stream.peak_in_flight", peak_in_flight as f64, "count");
    eprintln!(
        "stream_mix: {} answers in {} streams, {:.1}s at {threads} threads; \
         peak MiB per stream {:.0?}; peak-rss reset: {rss_reset}",
        latencies.len(),
        answered.len(),
        walls.iter().sum::<f64>(),
        peaks.iter().map(|b| util::mib(*b)).collect::<Vec<_>>()
    );

    if cfg.trace {
        // The first stream alone keeps a traced run within its time limit.
        trace(
            report,
            &net,
            &passes[..1],
            &answered[..1],
            threads,
            walls[0],
        );
    }
    Ok(())
}

/// The traced run: the same streams (`stream_wall` seconds untraced),
/// one query at a time, each stream against a fresh cache like the
/// untraced run's fresh sessions. The
/// untraced serial baseline (one `Session::verify` after another) gives
/// the tracing overhead.
fn trace(
    report: &mut Report,
    net: &netmodel::Network,
    passes: &[Vec<String>],
    answered: &[Vec<String>],
    threads: usize,
    stream_wall: f64,
) {
    let t = Instant::now();
    let issues = net.validate();
    report.metric("netmodel.validate_ms", ms(t.elapsed()), "ms");
    let t = Instant::now();
    let pre = NetworkPrecomp::new(net);
    report.metric("construction.precomp_ms", ms(t.elapsed()), "ms");
    if !issues.is_empty() {
        report.fail(format!("network has {} validation issues", issues.len()));
    }

    let mut serial_ms = 0.0;
    for queries in passes.iter().take(answered.len()) {
        let session = open(net.clone(), 1);
        for text in queries {
            let t = Instant::now();
            let _ = session.verify_text(text);
            serial_ms += ms(t.elapsed());
        }
    }

    let mut layers = Layers::default();
    for (queries, verdicts) in passes.iter().zip(answered) {
        let cache = aalwines::ConstructionCache::new(aalwines::DEFAULT_CACHE_SIZE);
        let mut traced = Traced::new(net, &pre, Some(&cache), None);
        for (text, got) in queries.iter().zip(verdicts) {
            let v = traced.verify_text(text).map(|v| v.verdict);
            util::check_traced(report, v, got, text);
        }
        layers += &traced.layers;
    }
    for (name, value, unit) in layers.metrics() {
        report.metric(name, value, unit);
    }
    report.metric(
        "trace_overhead_ratio",
        util::ratio(ms(layers.total), serial_ms),
        "ratio",
    );
    report.metric(
        "stream.parallel_efficiency",
        util::ratio(ms(layers.total), threads as f64 * stream_wall * 1e3),
        "ratio",
    );
}
