//! Weighted `pre*` saturation.
//!
//! Given a PDS and a P-automaton accepting a set of *target*
//! configurations `C`, `pre*` computes an automaton accepting exactly the
//! configurations from which some configuration in `C` is reachable, each
//! with the minimal weight of such a run.
//!
//! The saturation rule (Bouajjani–Esparza–Maler, weighted per
//! Reps–Schwoon–Jha–Melski): if `<p,γ> → <p', w>` is a rule and the
//! current automaton can read `w` from `p'` to some state `q` with weight
//! `d`, then add `(p, γ, q)` with weight `f(r) ⊗ d`. No ε-transitions or
//! extra states are ever introduced.
//!
//! The backward rule lookups (swap rules by swapped-in symbol, push rules
//! by first/second pushed symbol) come from the construction-time indexes
//! of [`Pds`] — nothing is rebuilt per call. The local transition index
//! `(from, γ) → transitions` is a per-state sorted array (pre* never adds
//! states, so the outer dimension is fixed), the worklist is deduplicated
//! with an on-worklist bitflag, and follower/first snapshots reuse
//! scratch buffers instead of cloning.

use crate::budget::{Budget, SaturationAbort};
use crate::pautomaton::{AutState, PAutomaton, Provenance, TLabel, TransId};
use crate::pds::{Pds, RuleOp, StateId, SymbolId};
use crate::poststar::SaturationStats;
use crate::semiring::Weight;
use std::collections::VecDeque;

/// A per-state multimap from head symbol to the transitions reading it,
/// kept sorted by symbol (same layout as the rule indexes of [`Pds`]).
#[derive(Clone, Default)]
struct HeadIndex {
    syms: Vec<SymbolId>,
    lists: Vec<Vec<TransId>>,
}

const NO_TRANS: &[TransId] = &[];

impl HeadIndex {
    #[inline]
    fn push(&mut self, g: SymbolId, t: TransId) {
        match self.syms.binary_search(&g) {
            Ok(i) => self.lists[i].push(t),
            Err(i) => {
                self.syms.insert(i, g);
                self.lists.insert(i, vec![t]);
            }
        }
    }

    #[inline]
    fn get(&self, g: SymbolId) -> &[TransId] {
        match self.syms.binary_search(&g) {
            Ok(i) => &self.lists[i],
            Err(_) => NO_TRANS,
        }
    }
}

/// Compute `pre*` of the configurations accepted by `target`.
///
/// Requirements on `target` (checked): ε-free and no transitions into PDS
/// control states.
pub fn pre_star<W: Weight>(pds: &Pds<W>, target: &PAutomaton<W>) -> PAutomaton<W> {
    pre_star_with_stats(pds, target).0
}

/// As [`pre_star`] but also returning [`SaturationStats`].
///
/// `pre*` introduces no mid-states, so
/// [`mid_states`](SaturationStats::mid_states) is always zero.
pub fn pre_star_with_stats<W: Weight>(
    pds: &Pds<W>,
    target: &PAutomaton<W>,
) -> (PAutomaton<W>, SaturationStats) {
    pre_star_budgeted(pds, target, &Budget::unlimited()).expect("unlimited budget cannot abort")
}

/// As [`pre_star_with_stats`] but stopping early — with the abort reason
/// and the statistics accumulated so far — once `budget` is exhausted.
pub fn pre_star_budgeted<W: Weight>(
    pds: &Pds<W>,
    target: &PAutomaton<W>,
    budget: &Budget,
) -> Result<(PAutomaton<W>, SaturationStats), SaturationAbort> {
    let mut checker = budget.checker();
    let mut stats = SaturationStats::default();
    for t in target.transitions() {
        assert!(
            matches!(t.label, TLabel::Sym(_)),
            "pre*: input automaton must be ε-free and symbol-concrete"
        );
        assert!(
            !target.is_pds_state(t.to),
            "pre*: input automaton must not have transitions into PDS states"
        );
    }

    let mut aut = target.clone();

    // Local (from, γ) → transitions index, maintained incrementally.
    // pre* never allocates states, so the outer dimension is fixed.
    let mut by_head: Vec<HeadIndex> = vec![HeadIndex::default(); aut.num_states() as usize];
    let mut worklist: VecDeque<TransId> = VecDeque::new();
    let mut on_worklist: Vec<bool> = Vec::new();

    // Reusable snapshot buffers for the push-rule composition loops (the
    // index is mutated while a snapshot is traversed).
    let mut followers_scratch: Vec<TransId> = Vec::new();
    let mut firsts_scratch: Vec<TransId> = Vec::new();

    macro_rules! upd {
        ($from:expr, $sym:expr, $to:expr, $w:expr, $prov:expr) => {{
            let from: AutState = $from;
            let sym: SymbolId = $sym;
            let before = aut.transitions().len();
            let (tid, improved) = aut.insert_or_combine(from, TLabel::Sym(sym), $to, $w, $prov);
            if aut.transitions().len() > before {
                by_head[from.index()].push(sym, tid);
            }
            if improved {
                let ti = tid.index();
                if ti >= on_worklist.len() {
                    on_worklist.resize(ti + 1, false);
                }
                if !on_worklist[ti] {
                    on_worklist[ti] = true;
                    worklist.push_back(tid);
                } else {
                    stats.worklist_requeues_avoided += 1;
                }
            }
        }};
    }

    // Seed: existing transitions, plus pop rules <p,γ> -> <p', ε> which
    // immediately yield (p, γ, p').
    for i in 0..aut.transitions().len() {
        let tid = TransId(i as u32);
        let t = aut.transition(tid);
        let TLabel::Sym(sym) = t.label else {
            unreachable!("checked above")
        };
        let from = t.from;
        by_head[from.index()].push(sym, tid);
        worklist.push_back(tid);
        on_worklist.push(true);
    }
    for (i, r) in pds.rules().iter().enumerate() {
        if let RuleOp::Pop = r.op {
            let rid = crate::pds::RuleId(i as u32);
            upd!(
                AutState(r.from.0),
                r.sym,
                AutState(r.to.0),
                r.weight.clone(),
                Provenance::PrePop { rule: rid }
            );
        }
    }

    while let Some(tid) = worklist.pop_front() {
        on_worklist[tid.index()] = false;
        stats.worklist_pops += 1;
        stats.sample_worklist(worklist.len(), on_worklist.len());
        if let Err(reason) = checker.tick(aut.transitions().len()) {
            stats.transitions = aut.transitions().len();
            return Err(SaturationAbort { reason, stats });
        }
        let (from, label, to, d) = {
            let t = aut.transition(tid);
            let TLabel::Sym(sym) = t.label else {
                unreachable!("pre* only creates symbol transitions")
            };
            (t.from, sym, t.to, t.weight.clone())
        };

        // Case 1: t reads the swapped-in symbol of a swap rule.
        if from.0 < pds.num_states() {
            let p_prime = StateId(from.0);
            for &rid in pds.swap_rules_into(p_prime, label) {
                let r = pds.rule(rid);
                let w = r.weight.extend(&d);
                upd!(
                    AutState(r.from.0),
                    r.sym,
                    to,
                    w,
                    Provenance::PreSwap {
                        rule: rid,
                        next: tid
                    }
                );
            }
            // Case 2a: t reads the FIRST pushed symbol: need a follower
            // reading the second.
            for &rid in pds.push_rules_by_first(p_prime, label) {
                let r = pds.rule(rid);
                let RuleOp::Push(_, g2) = r.op else {
                    unreachable!()
                };
                followers_scratch.clear();
                followers_scratch.extend_from_slice(by_head[to.index()].get(g2));
                for &t2 in followers_scratch.iter() {
                    let (to2, d2) = {
                        let tt = aut.transition(t2);
                        (tt.to, tt.weight.clone())
                    };
                    let w = r.weight.extend(&d).extend(&d2);
                    upd!(
                        AutState(r.from.0),
                        r.sym,
                        to2,
                        w,
                        Provenance::PrePush {
                            rule: rid,
                            next1: tid,
                            next2: t2
                        }
                    );
                }
            }
        }
        // Case 2b: t reads the SECOND pushed symbol: need a predecessor
        // reading the first from the rule's target state into t.from.
        for &rid in pds.push_rules_by_second(label) {
            let r = pds.rule(rid);
            let RuleOp::Push(g1, _) = r.op else {
                unreachable!()
            };
            firsts_scratch.clear();
            firsts_scratch.extend_from_slice(by_head[AutState(r.to.0).index()].get(g1));
            for &t1 in firsts_scratch.iter() {
                let (to1, d1) = {
                    let tt = aut.transition(t1);
                    (tt.to, tt.weight.clone())
                };
                if to1 != from {
                    continue;
                }
                let w = r.weight.extend(&d1).extend(&d);
                upd!(
                    AutState(r.from.0),
                    r.sym,
                    to,
                    w,
                    Provenance::PrePush {
                        rule: rid,
                        next1: t1,
                        next2: tid
                    }
                );
            }
        }
    }

    stats.transitions = aut.transitions().len();
    Ok((aut, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinTotal, Unweighted};

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn st(i: u32) -> StateId {
        StateId(i)
    }

    fn target_config<W: Weight>(pds: &Pds<W>, p: StateId, word: &[SymbolId]) -> PAutomaton<W> {
        let mut a = PAutomaton::new(pds);
        if word.is_empty() {
            a.set_final(AutState(p.0));
            return a;
        }
        let mut prev = AutState(p.0);
        for &s in word {
            let next = a.add_state();
            a.add_edge(prev, s, next, W::one());
            prev = next;
        }
        a.set_final(prev);
        a
    }

    #[test]
    fn classic_prestar_reachability() {
        // r1: <p0, a> -> <p1, b a> ; r2: <p1, b> -> <p2, c> ;
        // r3: <p2, c> -> <p0, ε>
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(c), Unweighted, 1);
        pds.add_rule(st(2), c, st(0), RuleOp::Pop, Unweighted, 2);

        // Target: <p0, a> (the loop closes back here).
        let target = target_config(&pds, st(0), &[a]);
        let sat = pre_star(&pds, &target);
        assert!(sat.accepts(st(0), &[a]));
        assert!(sat.accepts(st(1), &[b, a]));
        assert!(sat.accepts(st(2), &[c, a]));
        assert!(!sat.accepts(st(1), &[a]));
        assert!(!sat.accepts(st(0), &[b]));
    }

    #[test]
    fn prestar_of_empty_stack_target() {
        // <p0, a> -> <p0, ε>: every a^n can be fully popped.
        let mut pds = Pds::<Unweighted>::new(1, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(0), RuleOp::Pop, Unweighted, 0);
        let target = target_config(&pds, st(0), &[]);
        let sat = pre_star(&pds, &target);
        assert!(sat.accepts(st(0), &[]));
        assert!(sat.accepts(st(0), &[a]));
        assert!(sat.accepts(st(0), &[a, a, a]));
    }

    #[test]
    fn weighted_prestar_minimal_run() {
        // Two routes into the target <p2, g>:
        //   <p0,a> -swap g, w=7-> p2
        //   <p0,a> -swap b, w=1-> p1 ; <p1,b> -swap g, w=1-> p2   (total 2)
        let mut pds = Pds::<MinTotal>::new(3, 3);
        let (a, b, g) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(2), RuleOp::Swap(g), MinTotal(7), 0);
        pds.add_rule(st(0), a, st(1), RuleOp::Swap(b), MinTotal(1), 1);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(g), MinTotal(1), 2);
        let target = target_config(&pds, st(2), &[g]);
        let sat = pre_star(&pds, &target);
        assert_eq!(sat.accept_weight(st(0), &[a]), Some(MinTotal(2)));
        assert_eq!(sat.accept_weight(st(1), &[b]), Some(MinTotal(1)));
        assert_eq!(sat.accept_weight(st(2), &[g]), Some(MinTotal(0)));
    }

    #[test]
    fn prestar_push_composition() {
        // <p0, a> -> <p1, b c>; target <p1, b c> pops nothing — instead
        // target is <p1, b c> itself, so pre* must find <p0, a>.
        let mut pds = Pds::<Unweighted>::new(2, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, c), Unweighted, 0);
        let target = target_config(&pds, st(1), &[b, c]);
        let sat = pre_star(&pds, &target);
        assert!(sat.accepts(st(0), &[a]));
        assert!(!sat.accepts(st(0), &[b]));
    }

    #[test]
    fn budgeted_prestar_respects_budget() {
        use crate::budget::{AbortReason, Budget};
        let mut pds = Pds::<Unweighted>::new(1, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(0), RuleOp::Pop, Unweighted, 0);
        let target = target_config(&pds, st(0), &[]);
        let err = pre_star_budgeted(&pds, &target, &Budget::new().with_max_transitions(0))
            .expect_err("cap of 0 must abort");
        assert_eq!(err.reason, AbortReason::TransitionBudgetExceeded);

        let (sat, stats) = pre_star_with_stats(&pds, &target);
        assert!(sat.accepts(st(0), &[a, a]));
        assert!(stats.worklist_pops >= 1);
        assert_eq!(stats.mid_states, 0);
        assert_eq!(stats.transitions, sat.transitions().len());
    }

    #[test]
    fn prestar_agrees_with_poststar_on_membership() {
        // Sanity: c' ∈ post*({c}) iff c ∈ pre*({c'}).
        let mut pds = Pds::<Unweighted>::new(2, 2);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(0), RuleOp::Pop, Unweighted, 1);

        let fwd_init = {
            let mut m = PAutomaton::<Unweighted>::new(&pds);
            let f = m.add_state();
            m.set_final(f);
            m.add_edge(AutState(0), a, f, Unweighted);
            m
        };
        let fwd = crate::poststar::post_star(&pds, &fwd_init);
        assert!(fwd.accepts(st(0), &[a]));
        assert!(fwd.accepts(st(1), &[b, a]));

        let back = pre_star(&pds, &target_config(&pds, st(1), &[b, a]));
        assert!(back.accepts(st(0), &[a]));
    }

    #[test]
    fn prestar_dedup_keeps_minimal_weights() {
        // Chain of swaps where a cheaper route is discovered after the
        // transition is already queued: the dedup flag must not freeze
        // the earlier (worse) weight.
        let mut pds = Pds::<MinTotal>::new(4, 2);
        let (a, g) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(3), RuleOp::Swap(g), MinTotal(9), 0);
        pds.add_rule(st(0), a, st(1), RuleOp::Swap(a), MinTotal(1), 1);
        pds.add_rule(st(1), a, st(2), RuleOp::Swap(a), MinTotal(1), 2);
        pds.add_rule(st(2), a, st(3), RuleOp::Swap(g), MinTotal(1), 3);
        let target = target_config(&pds, st(3), &[g]);
        let (sat, stats) = pre_star_with_stats(&pds, &target);
        assert_eq!(sat.accept_weight(st(0), &[a]), Some(MinTotal(3)));
        let _ = stats.worklist_requeues_avoided;
    }
}
