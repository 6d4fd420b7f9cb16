//! Run-to-run determinism suite: verifying the same queries against the
//! same network with two fresh engines must be **observably
//! identical** — byte-identical answers (verdict, witness trace with its
//! headers, failed-link set, weight vector) and identical non-timing
//! statistics (rule/transition/pop/mid-state counters, peak worklist
//! bytes, cache hit/miss counters, resident-byte estimates) — on the
//! paper network, on weighted queries, on the one network that forces
//! the under-approximation, and on chaos-mutated dataplanes from three
//! independent seeds. A resident `Session` must answer exactly like a
//! plain `Verifier`.
//!
//! Only the timing fields may differ.

use aalwines::examples::paper_network;
use aalwines::{
    AtomicQuantity, Engine, EngineStats, Outcome, Session, Verifier, VerifyOptions, WeightSpec,
};
use chaos::{mutate, paper_queries, MutationKind};
use detrand::DetRng;
use netmodel::{LabelTable, Network, Op, RoutingEntry, Topology};
use query::{parse_query, Query};

/// Canonical rendering of an outcome: witness trace (headers included),
/// sorted failed links, weight vector. `failed_links` is a `HashSet`
/// whose iteration order differs between instances, so it is sorted;
/// everything else renders deterministically.
fn outcome_repr(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Satisfied(w) => {
            let mut links: Vec<usize> = w.failed_links.iter().map(|l| l.index()).collect();
            links.sort_unstable();
            format!(
                "Satisfied(trace={:?}, failed={links:?}, weight={:?})",
                w.trace, w.weight
            )
        }
        other => format!("{other:?}"),
    }
}

/// Every non-timing stats field. `bytes_resident` is deliberately
/// included: it depends on the construction cache's exact contents, so
/// it pins the cache bookkeeping as well as the answers.
fn stats_repr(s: &EngineStats) -> String {
    format!(
        "rulesOver={} rulesRemoved={} rulesUnder={} satTransitions={} \
         worklistPops={} midStates={} requeuesAvoided={} peakWorklistBytes={} \
         underRuns={} validationIssues={} quickDecided={:?} aborted={:?} \
         cacheHits={} cacheMisses={} bytesResident={}",
        s.rules_over,
        s.rules_removed,
        s.rules_under,
        s.sat_transitions,
        s.worklist_pops,
        s.mid_states,
        s.worklist_requeues_avoided,
        s.peak_worklist_bytes,
        s.under_runs,
        s.validation_issues,
        s.quick_decided,
        s.aborted,
        s.cache_hits,
        s.cache_misses,
        s.bytes_resident,
    )
}

/// Run the whole query sequence (twice, so the second pass answers from
/// a warm cache) through one fresh verifier and return the canonical
/// transcript.
fn transcript(
    net: &netmodel::routing::Network,
    queries: &[Query],
    opts: &VerifyOptions,
) -> Vec<String> {
    let verifier = Verifier::new(net);
    let mut out = Vec::with_capacity(queries.len() * 2);
    for _ in 0..2 {
        for q in queries {
            let a = verifier.verify(q, opts);
            out.push(format!(
                "{} | {}",
                outcome_repr(&a.outcome),
                stats_repr(&a.stats)
            ));
        }
    }
    out
}

#[test]
fn paper_network_answers_repeat_run_to_run() {
    let net = paper_network();
    let queries = paper_queries();
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        let first = transcript(&net, &queries, opts);
        // The corpus must actually exercise the warm-cache path, or
        // this test proves nothing about the cache bookkeeping.
        assert!(
            first.iter().any(|l| !l.contains("cacheHits=0")),
            "opts#{oi}: corpus never hit the construction cache"
        );
        let second = transcript(&net, &queries, opts);
        assert_eq!(second, first, "opts#{oi}: transcript diverged");
    }
}

/// A network whose only trace matching the query below is a failover
/// loop: at `f0` the backup (priority-2) route to `f2` protects the
/// primary link `f0 → f1`, yet the trace returns to `f0` and traverses
/// exactly that link afterwards.
///
/// The over-approximation counts failures globally, so it accepts the
/// loop with one failure — but `feasible_failures` rejects the witness
/// (a link cannot be both failed and traversed), producing
/// `Phase::Infeasible` and forcing the under-approximation to run.
/// This is the one corpus entry that exercises the under phase.
fn failover_loop() -> (Network, Vec<Query>) {
    let mut t = Topology::new();
    let xin = t.add_router("x_in", None);
    let f0 = t.add_router("f0", None);
    let f1 = t.add_router("f1", None);
    let f2 = t.add_router("f2", None);
    let xout = t.add_router("x_out", None);
    let li = t.add_link(xin, "o0", f0, "i0", 1);
    let lp = t.add_link(f0, "o1", f1, "i1", 1);
    let lb = t.add_link(f0, "o2", f2, "i2", 1);
    let lr = t.add_link(f2, "o3", f0, "i3", 1);
    let lo = t.add_link(f1, "o4", xout, "i4", 1);

    let mut labels = LabelTable::new();
    let s = labels.mpls_bos("s50");
    let u = labels.mpls_bos("s51");
    let v = labels.mpls_bos("s52");
    labels.ip("ip9"); // headers must bottom out in an IP label

    let mut net = Network::new(t, labels);
    let rule = |out, ops: Vec<Op>| RoutingEntry {
        out,
        ops: ops.into(),
    };
    // f0: primary straight to f1, backup detours via f2.
    net.add_rule(li, s, 1, rule(lp, vec![Op::Swap(u)]));
    net.add_rule(li, s, 2, rule(lb, vec![Op::Swap(s)]));
    // f2 bounces back to f0 ...
    net.add_rule(lb, s, 1, rule(lr, vec![Op::Swap(v)]));
    // ... which forwards over the very link the backup protects.
    net.add_rule(lr, v, 1, rule(lp, vec![Op::Swap(u)]));
    // f1 egresses.
    net.add_rule(lp, u, 1, rule(lo, vec![Op::Swap(u)]));
    assert!(net.validate().is_empty());

    // Reaching `f2` is only possible through the backup route, so the
    // minimal accepting over-path is the infeasible failover loop.
    let queries = ["<s50 ip9> [.#f0] [.#f2] .* [f1#.] <s51 ip9> 1"]
        .iter()
        .map(|q| parse_query(q).expect("failover query parses"))
        .collect();
    (net, queries)
}

/// The corpus entry that runs the under phase: answers and non-timing
/// stats (including the under-phase saturation counters and its cache
/// bookkeeping) must repeat run to run, unweighted and weighted.
#[test]
fn under_phase_answers_repeat_run_to_run() {
    let (net, queries) = failover_loop();
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        let first = transcript(&net, &queries, opts);
        assert!(
            first.iter().all(|l| !l.contains("underRuns=0")),
            "opts#{oi}: the failover loop must run the under-approximation\n{first:#?}"
        );
        let second = transcript(&net, &queries, opts);
        assert_eq!(second, first, "opts#{oi}: transcript diverged");
    }
}

#[test]
fn chaos_mutants_answer_identically_run_to_run() {
    let base = paper_network();
    let queries = paper_queries();
    for seed in [0x5EED_D001u64, 0x5EED_D002, 0x5EED_D003] {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut checked = 0usize;
        let mut attempts = 0usize;
        while checked < 4 && attempts < 200 {
            attempts += 1;
            let kind = *rng.choose(&MutationKind::ALL);
            let Some(mut net) = mutate(&base, kind, &mut rng) else {
                continue;
            };
            net.repair();
            let qs = std::slice::from_ref(&queries[checked % queries.len()]);
            let opts = VerifyOptions::new();
            let first = transcript(&net, qs, &opts);
            let second = transcript(&net, qs, &opts);
            assert_eq!(
                second,
                first,
                "seed {seed:#x} mutant#{checked} ({})",
                kind.as_str()
            );
            checked += 1;
        }
        assert!(
            checked >= 4,
            "seed {seed:#x}: only {checked} mutants checked"
        );
    }
}

/// The resident session adds warm state around the same engine, not a
/// different one: on the paper corpus, `Session::verify` and
/// `Verifier::verify` give identical outcomes and non-timing stats.
#[test]
fn session_matches_verifier_on_paper_corpus() {
    let net = paper_network();
    let session = Session::builder().open(net.clone());
    let verifier = Verifier::new(&net);
    let opts = VerifyOptions::new();
    for pass in 0..2 {
        for (qi, q) in paper_queries().iter().enumerate() {
            let a = session.verify(q);
            let b = verifier.verify(q, &opts);
            assert_eq!(
                format!("{} | {}", outcome_repr(&a.outcome), stats_repr(&a.stats)),
                format!("{} | {}", outcome_repr(&b.outcome), stats_repr(&b.stats)),
                "pass {pass} q{qi}"
            );
        }
    }
}
