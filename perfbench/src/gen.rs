//! Generation of the expected-verdict files.
//!
//! Every input a run can reach (all slots, all passes) is verified once
//! with a cold session per network state, every witness is replayed, and
//! the verdict is cross-checked against the Moped engine wherever Moped
//! decides within a fixed deadline. A disagreement aborts generation.
//! The reference verdict is the dual engine's where it decides, Moped's
//! where only Moped decides, and `unknown` where neither does.
//!
//! ```text
//! perfbench --generate table1_paper|stream_mix|delta_watch
//! ```

use crate::util::{expected_path, replay_ok, verdict_of, Report};
use crate::{delta_watch, stream_mix, table1};
use aalwines::{Answer, Backend, Outcome, Session, VerifyOptions};
use query::Query;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// How long Moped may take per query before its answer is ignored.
const MOPED_DEADLINE: Duration = Duration::from_millis(200);
/// Wall-time budget of one Moped cross-check pass.
const MOPED_BUDGET: Duration = Duration::from_secs(600);
/// Moped on the full-scale Table-1 network takes minutes per query, so
/// its cross-check covers what fits in this budget.
const TABLE1_MOPED_BUDGET: Duration = Duration::from_secs(240);

/// Moped's answers to `texts` on `net`, each under the deadline, in
/// batches of one query per core until `budget` is spent (`None` for
/// texts not attempted). Moped polls its deadline only between phases,
/// so on large networks one verification can run far past it; the
/// budget bounds the whole cross-check instead.
fn moped_answers(
    net: &netmodel::Network,
    texts: &[String],
    budget: Duration,
) -> Vec<Option<Answer>> {
    let started = Instant::now();
    let threads = stream_mix::threads();
    let moped = Session::builder()
        .threads(threads)
        .backend(Backend::Moped)
        .verify_options(VerifyOptions::new().with_timeout(MOPED_DEADLINE))
        .open(net.clone());
    let mut answers = Vec::new();
    for chunk in parse_all(texts).chunks(threads) {
        if started.elapsed() > budget {
            break;
        }
        answers.extend(moped.verify_batch(chunk).into_iter().map(Some));
    }
    eprintln!(
        "  moped: {} of {} queries in {:.0}s",
        answers.len(),
        texts.len(),
        started.elapsed().as_secs_f64()
    );
    answers.resize_with(texts.len(), || None);
    answers
}

fn parse_all(texts: &[String]) -> Vec<Query> {
    texts
        .iter()
        .map(|t| query::parse_query(t).expect("generated queries parse"))
        .collect()
}

/// Verify `texts` on `net` with the dual engine (weighted or not),
/// replay every witness, cross-check Moped's answers `moped` (aligned
/// with `texts`), and add `key`-keyed reference verdicts to `out`.
/// Returns how many answers Moped decided.
fn verify_all(
    net: &netmodel::Network,
    texts: &[String],
    weights: Option<aalwines::WeightSpec>,
    key: &dyn Fn(&str) -> String,
    moped_answers: &[Option<Answer>],
    out: &mut BTreeMap<String, String>,
    report: &mut Report,
) -> usize {
    let started = Instant::now();
    let queries = parse_all(texts);
    let mut opts = VerifyOptions::new().with_saturation_threads(1);
    if let Some(spec) = weights {
        opts = opts.with_weights(spec);
    }
    let dual = Session::builder()
        .threads(stream_mix::threads())
        .verify_options(opts)
        .open(net.clone());
    let answers = dual.verify_batch(&queries);
    eprintln!(
        "  dual: {} queries in {:.0}s",
        texts.len(),
        started.elapsed().as_secs_f64()
    );
    let mut decided = 0;
    for ((text, q), (a, m)) in texts
        .iter()
        .zip(&queries)
        .zip(answers.iter().zip(moped_answers))
    {
        let k = key(text);
        // The reference verdict: the dual engine's where it decides,
        // else Moped's, else unknown.
        let m = m.as_ref().filter(|m| m.outcome.is_conclusive());
        let verdict = match (a.outcome.is_conclusive(), m) {
            (true, _) => verdict_of(a),
            (false, Some(m)) => verdict_of(m),
            (false, None) => "unknown".to_string(),
        };
        if let Outcome::Satisfied(w) = &a.outcome {
            if !replay_ok(net, &w.trace, &w.failed_links, q.max_failures) {
                report.fail(format!("witness does not replay: {k}"));
            }
        }
        // Inconclusive is a verdict of the polynomial analysis (the paper
        // reports it for a fraction of a percent of queries); errors and
        // aborts are not.
        if matches!(a.outcome, Outcome::Error(_) | Outcome::Aborted(_)) {
            report.fail(format!("dual engine failed on {k}: {}", a.outcome.kind()));
        }
        decided += m.is_some() as usize;
        if let (Some(m), true) = (m, a.outcome.is_conclusive()) {
            if m.outcome.is_satisfied() != a.outcome.is_satisfied() {
                report.fail(format!(
                    "moped {} disagrees with dual {verdict}: {k}",
                    m.outcome.kind()
                ));
            }
        }
        if let Some(prev) = out.insert(k.clone(), verdict.clone()) {
            if prev != verdict {
                report.fail(format!("nondeterministic verdict {prev} vs {verdict}: {k}"));
            }
        }
    }
    decided
}

/// Generate the expected-verdict file of `workload`.
pub fn generate(workload: &str) -> Result<(), String> {
    let started = Instant::now();
    let mut out = BTreeMap::new();
    let mut report = Report::default();
    // Moped answers decided, out of dual-engine verifications checked.
    let (mut decided, mut checked) = (0, 0);
    let header = match workload {
        "table1_paper" => {
            let dp = table1::dataplane();
            let mut texts: Vec<String> = (0..table1::SLOTS)
                .flat_map(|slot| (0..table1::MAX_PASSES).map(move |p| (slot, p)))
                .flat_map(|(slot, p)| table1::pass_queries(&dp, slot, p))
                .collect();
            texts.sort();
            texts.dedup();
            // Moped is unweighted: one answer per text serves both engines.
            let moped = moped_answers(&dp.net, &texts, TABLE1_MOPED_BUDGET);
            for (tag, weights) in table1::engines() {
                decided += verify_all(
                    &dp.net,
                    &texts,
                    weights,
                    &|t| table1::key(tag, t),
                    &moped,
                    &mut out,
                    &mut report,
                );
                checked += texts.len();
            }
            format!("slots {} x passes {}", table1::SLOTS, table1::MAX_PASSES)
        }
        "stream_mix" => {
            let dp = stream_mix::dataplane();
            let mut texts: Vec<String> = (0..stream_mix::SLOTS)
                .flat_map(|slot| (0..stream_mix::MAX_PASSES).map(move |p| (slot, p)))
                .flat_map(|(slot, p)| stream_mix::pass_queries(&dp, slot, p))
                .collect();
            texts.sort();
            texts.dedup();
            let moped = moped_answers(&dp.net, &texts, MOPED_BUDGET);
            decided += verify_all(
                &dp.net,
                &texts,
                None,
                &|t| t.to_string(),
                &moped,
                &mut out,
                &mut report,
            );
            checked += texts.len();
            format!(
                "slots {} x streams {} x {} queries",
                stream_mix::SLOTS,
                stream_mix::MAX_PASSES,
                stream_mix::STREAM_LEN
            )
        }
        "delta_watch" => {
            let dp = delta_watch::dataplane();
            // Every (state, query) pair any slot can reach: the base
            // state and each pooled link down, crossed with the watched
            // and one-off queries.
            let mut per_state: BTreeMap<Option<u32>, Vec<String>> = BTreeMap::new();
            for slot in 0..delta_watch::SLOTS {
                let inputs = delta_watch::inputs(&dp, slot);
                let texts: Vec<String> = inputs
                    .watched
                    .iter()
                    .chain(&inputs.one_off)
                    .cloned()
                    .collect();
                per_state.entry(None).or_default().extend(texts.clone());
                for l in &inputs.links {
                    per_state
                        .entry(Some(l.0))
                        .or_default()
                        .extend(texts.clone());
                }
            }
            for (down, mut texts) in per_state {
                texts.sort();
                texts.dedup();
                let mut net = dp.net.clone();
                let down = down.map(netmodel::LinkId);
                if let Some(l) = down {
                    delta_watch::link_down(&mut net, l);
                }
                let moped = moped_answers(&net, &texts, MOPED_BUDGET);
                decided += verify_all(
                    &net,
                    &texts,
                    None,
                    &|t| delta_watch::key(&net, down, t),
                    &moped,
                    &mut out,
                    &mut report,
                );
                checked += texts.len();
            }
            format!(
                "slots {} x (base + {} links down) x ({} watched + {} one-off)",
                delta_watch::SLOTS,
                delta_watch::LINK_POOL,
                delta_watch::WATCHED,
                delta_watch::ONE_OFF
            )
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    if report.failed > 0 {
        return Err(format!(
            "{} problems generating {workload}:\n{}",
            report.failed,
            report.problems.join("\n")
        ));
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# Expected verdicts of {workload}: {header}.\n\
         # Dual engine, cold session per network state; every witness replayed;\n\
         # inputs the dual engine left inconclusive take Moped's verdict or `unknown`.\n\
         # Moped ({} ms deadline) decided {decided} of {checked} verifications and agreed on all.\n\
         # Regenerate: perfbench --generate {workload}",
        MOPED_DEADLINE.as_millis()
    );
    for (k, v) in &out {
        let _ = writeln!(text, "{k}\t{v}");
    }
    let path = expected_path(workload);
    std::fs::create_dir_all(path.parent().expect("has parent")).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    eprintln!(
        "{workload}: {} verdicts, moped decided {decided}/{checked}, {:.0}s -> {}",
        out.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(())
}
