//! Differential tests: dense-index saturation vs the frozen reference.
//!
//! The dense data layout introduced for the `post*`/`pre*` hot loops
//! (construction-time rule indexes, per-state packed-key adjacency,
//! worklist dedup, scratch buffers) must be *observationally identical*
//! to the pre-optimization implementation preserved in
//! [`pdaal::reference`]. This harness pins that down on hundreds of
//! fixed-seed random pushdown systems:
//!
//! * identical saturated transition **sets** — same `(from, label, to)`
//!   triples with the same minimal weights (creation *order* may differ,
//!   since dedup changes pop order, so sets are compared canonically),
//! * identical accept/reject answers and accept weights on random probe
//!   configurations,
//! * witnesses reconstructed from both automata **replay**: the rule
//!   sequence executes step-by-step under PDS semantics and lands on the
//!   queried configuration, with equal shortest-path weights,
//! * the dense worklist never pops **more** than the reference — dedup
//!   may only collapse pops, never add them.
//!
//! Everything is seeded and hermetic; `--features slow-tests` multiplies
//! the campaign size.

use detrand::DetRng;
use pdaal::poststar::post_star_with_stats;
use pdaal::prestar::pre_star_with_stats;
use pdaal::reference::{post_star_ref, pre_star_ref};
use pdaal::shortest::shortest_accepted;
use pdaal::witness::{reconstruct_run, reconstruct_run_pre, Run};
use pdaal::{
    AutState, MinTotal, PAutomaton, Pds, RuleOp, StackNfa, StateId, SymbolId, TLabel, Weight,
};

fn cases(base: u64) -> u64 {
    if cfg!(feature = "slow-tests") {
        base * 8
    } else {
        base
    }
}

fn gen_pds(rng: &mut DetRng, n_states: u32, n_syms: u32, max_rules: usize) -> Pds<MinTotal> {
    let mut pds = Pds::new(n_states, n_syms);
    let n = rng.gen_range(1..max_rules);
    for _ in 0..n {
        let from = StateId(rng.gen_range(0..n_states));
        let sym = SymbolId(rng.gen_range(0..n_syms));
        let to = StateId(rng.gen_range(0..n_states));
        let op = match rng.gen_range(0..3u32) {
            0 => RuleOp::Pop,
            1 => RuleOp::Swap(SymbolId(rng.gen_range(0..n_syms))),
            _ => RuleOp::Push(
                SymbolId(rng.gen_range(0..n_syms)),
                SymbolId(rng.gen_range(0..n_syms)),
            ),
        };
        let w = MinTotal(rng.gen_range(0..5u64));
        pds.add_rule(from, sym, to, op, w, 0);
    }
    pds
}

fn gen_stack(rng: &mut DetRng, n_syms: u32, max: usize) -> Vec<SymbolId> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| SymbolId(rng.gen_range(0..n_syms))).collect()
}

fn single_config<W: Weight>(pds: &Pds<W>, p: StateId, word: &[SymbolId]) -> PAutomaton<W> {
    let mut a = PAutomaton::new(pds);
    let mut prev = AutState(p.0);
    for &s in word {
        let next = a.add_state();
        a.add_edge(prev, s, next, W::one());
        prev = next;
    }
    a.set_final(prev);
    a
}

/// Canonical transition set: sorted `(from, label-tag, label-val, to,
/// weight)` tuples, independent of creation order.
fn canon<W: Weight>(aut: &PAutomaton<W>) -> Vec<(u32, u8, u32, u32, W)> {
    let mut v: Vec<(u32, u8, u32, u32, W)> = aut
        .transitions()
        .iter()
        .map(|t| {
            let (tag, val) = match t.label {
                TLabel::Eps => (0u8, 0u32),
                TLabel::Sym(s) => (1, s.0),
                TLabel::Filter(f) => (2, f.0),
            };
            (t.from.0, tag, val, t.to.0, t.weight.clone())
        })
        .collect();
    v.sort();
    v
}

/// Execute a witness run under PDS semantics and return the final
/// configuration.
fn replay<W: Weight>(pds: &Pds<W>, run: &Run, case: u64) -> (StateId, Vec<SymbolId>) {
    let mut state = run.start_state;
    let mut stack = run.start_stack.clone();
    for rid in &run.rules {
        let r = pds.rule(*rid);
        assert_eq!(r.from, state, "case {case}: rule fired in wrong state");
        assert_eq!(
            Some(&r.sym),
            stack.first(),
            "case {case}: rule fired on wrong head"
        );
        state = r.to;
        match r.op {
            RuleOp::Pop => {
                stack.remove(0);
            }
            RuleOp::Swap(g) => stack[0] = g,
            RuleOp::Push(g1, g2) => {
                stack[0] = g2;
                stack.insert(0, g1);
            }
        }
    }
    (state, stack)
}

/// post*: dense and reference agree on transition sets, probe answers,
/// pop counts, and replayable witnesses.
#[test]
fn poststar_differential_vs_reference() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0001);
    for case in 0..cases(120) {
        let (n_states, n_syms) = (4, 4);
        let pds = gen_pds(&mut rng, n_states, n_syms, 14);
        let stack = gen_stack(&mut rng, n_syms, 4);
        let init = single_config(&pds, StateId(0), &stack);

        let (dense, dstats) = post_star_with_stats(&pds, &init);
        let (refr, rstats) = post_star_ref(&pds, &init);
        let refr = refr.into_pautomaton();

        assert_eq!(
            canon(&dense),
            canon(&refr),
            "case {case}: saturated transition sets diverge"
        );
        assert_eq!(dstats.transitions, rstats.transitions, "case {case}");
        assert_eq!(dstats.mid_states, rstats.mid_states, "case {case}");
        assert!(
            dstats.worklist_pops <= rstats.worklist_pops,
            "case {case}: dedup increased pops ({} > {})",
            dstats.worklist_pops,
            rstats.worklist_pops
        );

        // Random probes: acceptance and weights agree.
        for _ in 0..8 {
            let p = StateId(rng.gen_range(0..n_states));
            let w = gen_stack(&mut rng, n_syms, 5);
            assert_eq!(
                dense.accept_weight(p, &w),
                refr.accept_weight(p, &w),
                "case {case}: probe <{p:?}, {w:?}> diverges"
            );
        }

        // Witnesses from both automata replay to the same place with the
        // same weight.
        let starts: Vec<(StateId, MinTotal)> =
            (0..n_states).map(|s| (StateId(s), MinTotal(0))).collect();
        let nfa = StackNfa::universal();
        let pd = shortest_accepted(&dense, &starts, &nfa);
        let pr = shortest_accepted(&refr, &starts, &nfa);
        match (pd, pr) {
            (None, None) => {}
            (Some(pd), Some(pr)) => {
                assert_eq!(pd.weight, pr.weight, "case {case}: shortest weights");
                for (aut, path) in [(&dense, &pd), (&refr, &pr)] {
                    let run = reconstruct_run(&pds, aut, &path.transitions, &path.word)
                        .expect("witness reconstructs");
                    let (end_state, end_stack) = replay(&pds, &run, case);
                    assert_eq!(end_state, path.start, "case {case}: witness end state");
                    assert_eq!(end_stack, path.word, "case {case}: witness end stack");
                    // The start must be the seeded configuration.
                    assert_eq!(run.start_state, StateId(0), "case {case}");
                    assert_eq!(run.start_stack, stack, "case {case}");
                }
            }
            (d, r) => panic!(
                "case {case}: dense found={} reference found={}",
                d.is_some(),
                r.is_some()
            ),
        }
    }
}

/// pre*: dense and reference agree on transition sets, probe answers,
/// pop counts, and replayable witnesses into the target set.
#[test]
fn prestar_differential_vs_reference() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0002);
    for case in 0..cases(120) {
        let (n_states, n_syms) = (4, 4);
        let pds = gen_pds(&mut rng, n_states, n_syms, 14);
        let stack = gen_stack(&mut rng, n_syms, 4);
        let tstate = StateId(rng.gen_range(0..n_states));
        let target = single_config(&pds, tstate, &stack);

        let (dense, dstats) = pre_star_with_stats(&pds, &target);
        let (refr, rstats) = pre_star_ref(&pds, &target);
        let refr = refr.into_pautomaton();

        assert_eq!(
            canon(&dense),
            canon(&refr),
            "case {case}: saturated transition sets diverge"
        );
        assert_eq!(dstats.transitions, rstats.transitions, "case {case}");
        assert!(
            dstats.worklist_pops <= rstats.worklist_pops,
            "case {case}: dedup increased pops ({} > {})",
            dstats.worklist_pops,
            rstats.worklist_pops
        );

        for _ in 0..8 {
            let p = StateId(rng.gen_range(0..n_states));
            let w = gen_stack(&mut rng, n_syms, 5);
            assert_eq!(
                dense.accept_weight(p, &w),
                refr.accept_weight(p, &w),
                "case {case}: probe <{p:?}, {w:?}> diverges"
            );
        }

        // Witnesses: the run starts at the configuration the accepting
        // path describes and its replay ends in the target set.
        let starts: Vec<(StateId, MinTotal)> =
            (0..n_states).map(|s| (StateId(s), MinTotal(0))).collect();
        let nfa = StackNfa::universal();
        let pd = shortest_accepted(&dense, &starts, &nfa);
        let pr = shortest_accepted(&refr, &starts, &nfa);
        match (pd, pr) {
            (None, None) => {}
            (Some(pd), Some(pr)) => {
                assert_eq!(pd.weight, pr.weight, "case {case}: shortest weights");
                for (aut, path) in [(&dense, &pd), (&refr, &pr)] {
                    let run = reconstruct_run_pre(&pds, aut, &path.transitions, &path.word)
                        .expect("witness reconstructs");
                    assert_eq!(run.start_state, path.start, "case {case}");
                    assert_eq!(run.start_stack, path.word, "case {case}");
                    let (end_state, end_stack) = replay(&pds, &run, case);
                    assert!(
                        target.accepts(end_state, &end_stack),
                        "case {case}: witness run must land in the target set \
                         (got <{end_state:?}, {end_stack:?}>)"
                    );
                }
            }
            (d, r) => panic!(
                "case {case}: dense found={} reference found={}",
                d.is_some(),
                r.is_some()
            ),
        }
    }
}

/// The requeues-avoided counter actually fires, and dedup never costs
/// pops. Purely random rules rarely improve a transition that is still
/// queued, so each generated rule is doubled with a heavier twin: the
/// cheap copy improves the transition the expensive copy just queued
/// within the same pop.
#[test]
fn requeues_avoided_fires_and_never_adds_pops() {
    let mut rng = DetRng::seed_from_u64(0xD1FF_0003);
    let mut any_avoided = false;
    for case in 0..cases(40) {
        let (n_states, n_syms) = (5u32, 4u32);
        let mut pds = Pds::new(n_states, n_syms);
        let n = rng.gen_range(2..12usize);
        for _ in 0..n {
            let from = StateId(rng.gen_range(0..n_states));
            let sym = SymbolId(rng.gen_range(0..n_syms));
            let to = StateId(rng.gen_range(0..n_states));
            let op = match rng.gen_range(0..3u32) {
                0 => RuleOp::Pop,
                1 => RuleOp::Swap(SymbolId(rng.gen_range(0..n_syms))),
                _ => RuleOp::Push(
                    SymbolId(rng.gen_range(0..n_syms)),
                    SymbolId(rng.gen_range(0..n_syms)),
                ),
            };
            let w = rng.gen_range(0..5u64);
            pds.add_rule(from, sym, to, op, MinTotal(w + 3), 0);
            pds.add_rule(from, sym, to, op, MinTotal(w), 0);
        }
        let stack = gen_stack(&mut rng, n_syms, 4);
        let init = single_config(&pds, StateId(0), &stack);
        let (dense, dstats) = post_star_with_stats(&pds, &init);
        let (refr, rstats) = post_star_ref(&pds, &init);
        let refr = refr.into_pautomaton();
        assert_eq!(canon(&dense), canon(&refr), "case {case}");
        assert!(
            dstats.worklist_pops <= rstats.worklist_pops,
            "case {case}: dedup increased pops ({} > {})",
            dstats.worklist_pops,
            rstats.worklist_pops
        );
        any_avoided |= dstats.worklist_requeues_avoided > 0;
    }
    assert!(
        any_avoided,
        "campaign never exercised the dedup path — workloads too small?"
    );
}
