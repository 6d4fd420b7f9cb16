//! `table1_paper`: the paper's Table-1 queries on the NORDUnet-like
//! network at full scale, one client, one query at a time, under the
//! unweighted dual engine and the `Failures`-weighted spec, with the
//! construction cache off so every verdict is cold.

use crate::traced::Traced;
use crate::util::{self, check_answer, median, ms, quantile, Expected, Report};
use crate::Config;
use aalwines::{AtomicQuantity, NetworkPrecomp, Session, VerifyOptions, WeightSpec};
use std::time::Instant;

/// Input families the run seed selects from.
pub const SLOTS: u64 = 8;
/// Most passes of the six queries one run makes (the expected-verdict
/// file covers this many per slot).
pub const MAX_PASSES: u64 = 6;
/// Session opens timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// The two engines every query runs under: (key tag, weights).
pub fn engines() -> [(&'static str, Option<WeightSpec>); 2] {
    [
        ("dual", None),
        (
            "failures",
            Some(WeightSpec::single(AtomicQuantity::Failures)),
        ),
    ]
}

/// The network: NORDUnet-like at full scale.
pub fn dataplane() -> topogen::lsp::Dataplane {
    topogen::nordunet::nordunet_like(1.0)
}

/// The query texts of pass `pass` of a run with `seed`.
pub fn pass_queries(dp: &topogen::lsp::Dataplane, seed: u64, pass: u64) -> Vec<String> {
    topogen::queries::table1_queries(dp, util::sub_seed(seed, SLOTS, pass))
}

/// The expected-verdict key of `text` under engine `tag`.
pub fn key(tag: &str, text: &str) -> String {
    format!("{tag}|{text}")
}

/// Open the session of one engine: cache off, one thread.
pub fn open(net: netmodel::Network, weights: &Option<WeightSpec>) -> Session {
    let mut opts = VerifyOptions::new().with_saturation_threads(1);
    if let Some(spec) = weights {
        opts = opts.with_weights(spec.clone());
    }
    Session::builder()
        .threads(1)
        .cache_size(0)
        .verify_options(opts)
        .open(net)
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let expected = Expected::load("table1_paper")?;
    let t = Instant::now();
    let dp = dataplane();
    let passes: Vec<Vec<String>> = (0..MAX_PASSES)
        .map(|p| pass_queries(&dp, cfg.seed, p))
        .collect();
    let net = dp.net;
    eprintln!(
        "table1_paper: generated {} rules in {:.1}s",
        net.num_rules(),
        t.elapsed().as_secs_f64()
    );

    // Set-up: open both engines' sessions (validation + precomputation).
    let mut setup = Vec::new();
    let mut sessions = Vec::new();
    for _ in 0..SETUPS {
        sessions.clear();
        let clones: Vec<_> = engines().iter().map(|_| net.clone()).collect();
        let t = Instant::now();
        for ((_, weights), n) in engines().iter().zip(clones) {
            sessions.push(open(n, weights));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    let rss_reset = util::reset_own_peak_rss();

    // Measured closed loop: whole passes until the time is up.
    let mut latencies = Vec::new();
    let mut rates = Vec::new();
    let mut verdicts = Vec::new();
    let mut decided = 0u64;
    let started = Instant::now();
    let mut pass = 0;
    while pass < passes.len() && started.elapsed().as_secs_f64() < cfg.seconds {
        let pass_start = Instant::now();
        let before = latencies.len();
        for text in &passes[pass] {
            let k = query::parse_query(text)
                .map(|q| q.max_failures)
                .unwrap_or(0);
            for ((tag, _), session) in engines().iter().zip(&sessions) {
                let t = Instant::now();
                let answer = session.verify_text(text);
                let lat = t.elapsed();
                report.attempted += 1;
                let answer = match answer {
                    Ok(a) => a,
                    Err(e) => {
                        report.fail(format!("{text}: {e}"));
                        continue;
                    }
                };
                latencies.push(ms(lat));
                decided += answer.outcome.is_conclusive() as u64;
                let got = check_answer(report, &expected, &key(tag, text), &answer, &net, k);
                verdicts.push((tag.to_string(), text.clone(), got, ms(lat)));
            }
        }
        rates.push((latencies.len() - before) as f64 / pass_start.elapsed().as_secs_f64());
        pass += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let hwm = util::vm_hwm_bytes("self").unwrap_or(0) as f64;
    let resident = sessions.iter().map(|s| s.bytes_resident()).sum::<usize>() as f64;

    report.metric("setup_s", median(&setup), "s");
    report.metric("throughput_qps", latencies.len() as f64 / wall, "1/s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric("latency_p90_ms", quantile(&latencies, 0.9), "ms");
    report.metric("peak_rss_mib", util::mib(hwm), "MiB");
    report.metric(
        "decided_ratio",
        decided as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("cache.hit_ratio", 0.0, "ratio");
    report.metric("cache.invalidated_share", 0.0, "ratio");
    report.metric("cache.resident_mib", util::mib(resident), "MiB");
    report.metric(
        "cache.estimate_over_rss",
        util::ratio(resident, hwm),
        "ratio",
    );
    report.metric("stream.peak_in_flight", 1.0, "count");
    eprintln!(
        "table1_paper: {} verdicts in {pass} passes, {wall:.1}s; verdicts/s per pass {:.3?}; \
         peak-rss reset: {rss_reset}",
        latencies.len(),
        rates
    );

    if cfg.trace {
        drop(sessions);
        trace(cfg, report, &net, &verdicts);
    }
    Ok(())
}

/// The traced run over the same verdicts, in the same order.
fn trace(
    _cfg: &Config,
    report: &mut Report,
    net: &netmodel::Network,
    verdicts: &[(String, String, String, f64)],
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
    let mut layers = crate::traced::Layers::default();
    let mut untraced_ms = 0.0;
    for (tag, weights) in engines() {
        let mut traced = Traced::new(net, &pre, None, weights);
        for (_, text, got, lat) in verdicts.iter().filter(|v| v.0 == tag) {
            untraced_ms += lat;
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
        util::ratio(ms(layers.total), untraced_ms),
        "ratio",
    );
    // One client thread: serial traced time over the untraced wall.
    report.metric(
        "stream.parallel_efficiency",
        util::ratio(ms(layers.total), untraced_ms),
        "ratio",
    );
}
