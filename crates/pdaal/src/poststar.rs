//! Weighted `post*` saturation.
//!
//! Given a PDS and a P-automaton `A` accepting a set of *initial*
//! configurations, `post*` computes a P-automaton accepting exactly the
//! configurations reachable from them, with the weight of each accepted
//! configuration equal to the combine over all runs of the extend of rule
//! weights (for our totally ordered domains: the minimum run weight).
//!
//! The algorithm follows Schwoon's ε-transition formulation, generalized
//! to weights in the style of Reps–Schwoon–Jha–Melski: each push rule
//! `<p,γ> → <p',γ₁γ₂>` owns a *mid-state* `m(p',γ₁)`; firing the rule on a
//! transition `(p,γ,q)` installs `(p',γ₁,m)` with weight 1 and
//! `(m,γ₂,q)` with weight `f(r) ⊗ d(p,γ,q)`. Pop rules introduce
//! ε-transitions which are eagerly composed with the transitions following
//! them. Transitions are re-processed whenever their weight strictly
//! improves; boundedness of the weight domain guarantees termination.
//!
//! Input transitions may be *filter* transitions standing for whole
//! symbol classes; a rule `<p,γ> → …` fires on a filter transition from
//! `p` whenever the filter matches `γ`. All derived transitions carry
//! concrete symbols; ε-composition preserves the composed transition's
//! label (concrete or filter), so filter edges deeper in the initial
//! automaton keep working when pops expose them.
//!
//! ## Data layout of the hot loop
//!
//! The worklist loop runs entirely on dense integer indexes (see
//! DESIGN.md "Saturation data layout"): rule lookups use the
//! construction-time indexes of [`Pds`], ε-predecessors live in a
//! per-state vector, a transition sits on the worklist at most once (an
//! on-worklist bitflag; re-queues avoided are counted in
//! [`SaturationStats::worklist_requeues_avoided`]), and the per-pop
//! snapshots of successor/ε lists reuse two scratch buffers instead of
//! allocating. Because a popped transition always reads its *current*
//! weight, collapsing pending re-queues onto one pop cannot change the
//! fixpoint — only the number of pops.

use crate::budget::{Budget, SaturationAbort};
use crate::fxhash::FxHashMap;
use crate::pautomaton::{AutState, PAutomaton, Provenance, TLabel, TransId};
use crate::pds::{Pds, RuleOp, StateId};
use crate::semiring::Weight;
use std::collections::VecDeque;

/// Statistics of a saturation run, used by the benchmark harness and the
/// engine telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaturationStats {
    /// Transitions in the saturated automaton.
    pub transitions: usize,
    /// Number of worklist pops (including weight-improving re-processing).
    pub worklist_pops: usize,
    /// Mid-states allocated for push rules.
    pub mid_states: usize,
    /// Worklist pushes skipped because the transition was already
    /// queued (the on-worklist dedup flag). Each skip is one avoided
    /// future pop with all its rule lookups.
    pub worklist_requeues_avoided: usize,
    /// Peak bytes of the *logical* worklist: queued transition ids plus
    /// the on-worklist flag array, sampled at every pop. Defined over
    /// lengths (not capacities) so the value is identical on every
    /// machine — it measures the algorithm's frontier, not the
    /// allocator.
    pub peak_worklist_bytes: usize,
}

impl SaturationStats {
    /// Fold one pop-time worklist sample (`queued` ids pending, `flags`
    /// slots in the on-worklist array) into the peak counter.
    #[inline]
    pub(crate) fn sample_worklist(&mut self, queued: usize, flags: usize) {
        let bytes = queued * std::mem::size_of::<TransId>() + flags;
        if bytes > self.peak_worklist_bytes {
            self.peak_worklist_bytes = bytes;
        }
    }
}

/// Compute `post*` of the configurations accepted by `initial`.
///
/// Requirements on `initial` (checked, panicking on violation, since they
/// are construction-layer invariants): no ε-transitions and no transitions
/// whose target is a PDS control state.
pub fn post_star<W: Weight>(pds: &Pds<W>, initial: &PAutomaton<W>) -> PAutomaton<W> {
    post_star_with_stats(pds, initial).0
}

/// As [`post_star`] but also returning [`SaturationStats`].
pub fn post_star_with_stats<W: Weight>(
    pds: &Pds<W>,
    initial: &PAutomaton<W>,
) -> (PAutomaton<W>, SaturationStats) {
    post_star_budgeted(pds, initial, &Budget::unlimited()).expect("unlimited budget cannot abort")
}

/// As [`post_star_with_stats`] but stopping early — with the abort
/// reason and the statistics accumulated so far — once `budget` is
/// exhausted.
pub fn post_star_budgeted<W: Weight>(
    pds: &Pds<W>,
    initial: &PAutomaton<W>,
    budget: &Budget,
) -> Result<(PAutomaton<W>, SaturationStats), SaturationAbort> {
    let mut checker = budget.checker();
    for t in initial.transitions() {
        assert!(t.label.reads(), "post*: input automaton must be ε-free");
        assert!(
            !initial.is_pds_state(t.to),
            "post*: input automaton must not have transitions into PDS states"
        );
    }

    let mut aut = initial.clone();
    let mut stats = SaturationStats::default();

    // Mid-states per (target control state, first pushed symbol), keyed
    // by the packed pair (sparse: only fired push rules create entries).
    let mut mid: FxHashMap<u64, AutState> = FxHashMap::default();
    // ε-transitions indexed densely by their target state. A transition
    // enters this index exactly once, at creation.
    let mut eps_into: Vec<Vec<TransId>> = vec![Vec::new(); aut.num_states() as usize];

    let mut worklist: VecDeque<TransId> =
        (0..aut.transitions().len() as u32).map(TransId).collect();
    // Whether a transition currently sits on the worklist.
    let mut on_worklist: Vec<bool> = vec![true; aut.transitions().len()];

    // Reusable per-pop snapshot buffers (the automaton is mutated while
    // the snapshot is traversed, so a copy is required — but not a fresh
    // allocation).
    let mut succ_scratch: Vec<TransId> = Vec::new();
    let mut eps_scratch: Vec<TransId> = Vec::new();

    macro_rules! upd {
        ($from:expr, $label:expr, $to:expr, $w:expr, $prov:expr) => {{
            let label: TLabel = $label;
            let to: AutState = $to;
            let before = aut.transitions().len();
            let (tid, improved) = aut.insert_or_combine($from, label, to, $w, $prov);
            if improved {
                if aut.transitions().len() > before && !label.reads() {
                    eps_into[to.index()].push(tid);
                }
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

    // Fire `rule` on transition `tid = (p, γ, to)` carrying weight `d`,
    // where γ is the concrete symbol the rule consumes.
    macro_rules! fire {
        ($rid:expr, $tid:expr, $to:expr, $d:expr) => {{
            let rule = pds.rule($rid);
            let w = rule.weight.extend(&$d);
            match rule.op {
                RuleOp::Pop => {
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Eps,
                        $to,
                        w,
                        Provenance::Pop {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
                RuleOp::Swap(g2) => {
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Sym(g2),
                        $to,
                        w,
                        Provenance::Swap {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
                RuleOp::Push(g1, g2) => {
                    let mkey = ((rule.to.0 as u64) << 32) | g1.0 as u64;
                    let m = *mid.entry(mkey).or_insert_with(|| {
                        stats.mid_states += 1;
                        aut.add_state()
                    });
                    if m.index() >= eps_into.len() {
                        eps_into.resize(m.index() + 1, Vec::new());
                    }
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Sym(g1),
                        m,
                        W::one(),
                        Provenance::PushEntry { rule: $rid }
                    );
                    upd!(
                        m,
                        TLabel::Sym(g2),
                        $to,
                        w,
                        Provenance::PushRest {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
            }
        }};
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
            (t.from, t.label, t.to, t.weight.clone())
        };
        match label {
            TLabel::Eps => {
                // ε-transition (from, ε, to): compose with every reading
                // transition currently leaving `to`.
                succ_scratch.clear();
                succ_scratch.extend_from_slice(aut.out_of(to));
                for &t2id in succ_scratch.iter() {
                    let (l2, to2, d2) = {
                        let t2 = aut.transition(t2id);
                        (t2.label, t2.to, t2.weight.clone())
                    };
                    if !l2.reads() {
                        continue;
                    }
                    let w = d.extend(&d2);
                    upd!(
                        from,
                        l2,
                        to2,
                        w,
                        Provenance::Combine {
                            eps: tid,
                            next: t2id
                        }
                    );
                }
            }
            _ if aut.is_pds_state(from) => {
                let p = StateId(from.0);
                match label {
                    TLabel::Sym(gamma) => {
                        for &rid in pds.rules_for(p, gamma) {
                            fire!(rid, tid, to, d);
                        }
                    }
                    TLabel::Filter(f) => {
                        for &rid in pds.rules_of_state(p) {
                            let sym = pds.rule(rid).sym;
                            if aut.filter(f).matches(sym) {
                                fire!(rid, tid, to, d);
                            }
                        }
                    }
                    TLabel::Eps => unreachable!("handled above"),
                }
            }
            _ => {
                // A reading transition at a non-control state: compose
                // each ε-transition (q'', ε, from) with it.
                eps_scratch.clear();
                eps_scratch.extend_from_slice(&eps_into[from.index()]);
                for &e in eps_scratch.iter() {
                    let (esrc, ew) = {
                        let et = aut.transition(e);
                        (et.from, et.weight.clone())
                    };
                    let w = ew.extend(&d);
                    upd!(
                        esrc,
                        label,
                        to,
                        w,
                        Provenance::Combine { eps: e, next: tid }
                    );
                }
            }
        }
    }

    stats.transitions = aut.transitions().len();
    Ok((aut, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::SymFilter;
    use crate::pds::SymbolId;
    use crate::semiring::{MinTotal, Unweighted};

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn st(i: u32) -> StateId {
        StateId(i)
    }

    /// Classic example:
    ///   r1: <p0, a> -> <p1, b a>
    ///   r2: <p1, b> -> <p2, c>
    ///   r3: <p2, c> -> <p0, ε>
    ///   r4: <p0, a> -> <p0, ε>
    fn classic_pds() -> Pds<Unweighted> {
        let mut pds = Pds::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(c), Unweighted, 1);
        pds.add_rule(st(2), c, st(0), RuleOp::Pop, Unweighted, 2);
        pds.add_rule(st(0), a, st(0), RuleOp::Pop, Unweighted, 3);
        pds
    }

    fn initial_config<W: Weight>(
        pds: &Pds<W>,
        p: StateId,
        word: &[SymbolId],
        w: W,
    ) -> PAutomaton<W> {
        let mut a = PAutomaton::new(pds);
        if word.is_empty() {
            a.set_final(AutState(p.0));
            return a;
        }
        let mut prev = AutState(p.0);
        for &s in word {
            let next = a.add_state();
            a.add_edge(prev, s, next, w.clone());
            prev = next;
        }
        a.set_final(prev);
        a
    }

    #[test]
    fn classic_poststar_reachability() {
        let pds = classic_pds();
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let init = initial_config(&pds, st(0), &[a], Unweighted);
        let sat = post_star(&pds, &init);

        assert!(sat.accepts(st(0), &[a]));
        assert!(sat.accepts(st(1), &[b, a]));
        assert!(sat.accepts(st(2), &[c, a]));
        assert!(sat.accepts(st(0), &[]));
        assert!(!sat.accepts(st(1), &[a]));
        assert!(!sat.accepts(st(2), &[a]));
        assert!(!sat.accepts(st(0), &[b, a]));
        assert!(!sat.accepts(st(1), &[b, b, a]));
    }

    #[test]
    fn weighted_poststar_takes_min_run() {
        let mut pds = Pds::<MinTotal>::new(4, 3);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(2), RuleOp::Swap(a), MinTotal(10), 0);
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), MinTotal(1), 1);
        pds.add_rule(st(1), b, st(3), RuleOp::Pop, MinTotal(1), 2);
        pds.add_rule(st(3), a, st(2), RuleOp::Swap(a), MinTotal(1), 3);

        let init = initial_config(&pds, st(0), &[a], MinTotal(0));
        let sat = post_star(&pds, &init);
        assert_eq!(sat.accept_weight(st(2), &[a]), Some(MinTotal(3)));
    }

    #[test]
    fn poststar_empty_pds_is_input() {
        let pds = Pds::<Unweighted>::new(2, 2);
        let init = initial_config(&pds, st(0), &[sym(1)], Unweighted);
        let sat = post_star(&pds, &init);
        assert!(sat.accepts(st(0), &[sym(1)]));
        assert!(!sat.accepts(st(1), &[sym(1)]));
        assert_eq!(sat.transitions().len(), init.transitions().len());
    }

    #[test]
    fn pop_then_continue_under_stack() {
        let mut pds = Pds::<Unweighted>::new(2, 2);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(1), RuleOp::Pop, Unweighted, 0);
        let init = initial_config(&pds, st(0), &[a, b], Unweighted);
        let sat = post_star(&pds, &init);
        assert!(sat.accepts(st(1), &[b]));
        assert!(!sat.accepts(st(1), &[a, b]));
    }

    #[test]
    fn unbounded_stack_growth_is_finite_representation() {
        let mut pds = Pds::<Unweighted>::new(1, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(0), RuleOp::Push(a, a), Unweighted, 0);
        let init = initial_config(&pds, st(0), &[a], Unweighted);
        let sat = post_star(&pds, &init);
        for n in 1..6 {
            let word: Vec<SymbolId> = std::iter::repeat_n(a, n).collect();
            assert!(sat.accepts(st(0), &word), "a^{n} must be reachable");
        }
        assert!(!sat.accepts(st(0), &[]));
    }

    #[test]
    fn weighted_growth_counts_pushes() {
        let mut pds = Pds::<MinTotal>::new(1, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(0), RuleOp::Push(a, a), MinTotal(1), 0);
        let init = initial_config(&pds, st(0), &[a], MinTotal(0));
        let sat = post_star(&pds, &init);
        assert_eq!(sat.accept_weight(st(0), &[a]), Some(MinTotal(0)));
        assert_eq!(sat.accept_weight(st(0), &[a, a]), Some(MinTotal(1)));
        assert_eq!(sat.accept_weight(st(0), &[a, a, a, a]), Some(MinTotal(3)));
    }

    #[test]
    fn budgeted_poststar_respects_transition_cap() {
        use crate::budget::AbortReason;
        let mut pds = Pds::<Unweighted>::new(1, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(0), RuleOp::Push(a, a), Unweighted, 0);
        let init = initial_config(&pds, st(0), &[a], Unweighted);

        let err = post_star_budgeted(&pds, &init, &Budget::new().with_max_transitions(0))
            .expect_err("cap of 0 must abort");
        assert_eq!(err.reason, AbortReason::TransitionBudgetExceeded);
        assert!(err.stats.worklist_pops >= 1);

        // A generous budget must not change the result.
        let (aut, _) =
            post_star_budgeted(&pds, &init, &Budget::new().with_max_transitions(1 << 20))
                .expect("generous budget completes");
        assert!(aut.accepts(st(0), &[a, a, a]));
    }

    #[test]
    fn budgeted_poststar_respects_expired_deadline() {
        use crate::budget::AbortReason;
        use std::time::{Duration, Instant};
        let pds = classic_pds();
        let init = initial_config(&pds, st(0), &[sym(0)], Unweighted);
        let budget = Budget::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = post_star_budgeted(&pds, &init, &budget).expect_err("expired deadline");
        assert_eq!(err.reason, AbortReason::DeadlineExceeded);
    }

    #[test]
    fn budgeted_poststar_respects_cancellation() {
        use crate::budget::{AbortReason, CancelToken};
        let pds = classic_pds();
        let init = initial_config(&pds, st(0), &[sym(0)], Unweighted);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::new().with_cancel(token);
        let err = post_star_budgeted(&pds, &init, &budget).expect_err("pre-cancelled");
        assert_eq!(err.reason, AbortReason::Cancelled);
    }

    #[test]
    fn rules_fire_on_filter_transitions() {
        // <p0, a> -> <p1, ε> and <p0, b> -> <p2, ε>; initial automaton
        // accepts <p0, X y> for any X via a filter edge. post* must fire
        // both rules.
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, y) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Pop, Unweighted, 0);
        pds.add_rule(st(0), b, st(2), RuleOp::Pop, Unweighted, 1);

        let mut init = PAutomaton::<Unweighted>::new(&pds);
        let q = init.add_state();
        let f = init.add_state();
        init.set_final(f);
        let any = init.add_filter(SymFilter::Any);
        init.add_filter_edge(AutState(0), any, q, Unweighted);
        init.add_edge(q, y, f, Unweighted);

        let sat = post_star(&pds, &init);
        assert!(sat.accepts(st(1), &[y]));
        assert!(sat.accepts(st(2), &[y]));
        assert!(!sat.accepts(st(1), &[a, y]));
    }

    #[test]
    fn pop_exposes_filter_edge() {
        // Initial: <p0, a X> for any X (filter on the SECOND symbol).
        // <p0,a> -> <p0, ε> then <p0, b> -> <p1, ε>: only defined if the
        // exposed X can be b — the filter admits it.
        let mut pds = Pds::<Unweighted>::new(2, 3);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(0), RuleOp::Pop, Unweighted, 0);
        pds.add_rule(st(0), b, st(1), RuleOp::Pop, Unweighted, 1);

        let mut init = PAutomaton::<Unweighted>::new(&pds);
        let q = init.add_state();
        let f = init.add_state();
        init.set_final(f);
        init.add_edge(AutState(0), a, q, Unweighted);
        let fb = init.add_filter(SymFilter::Any);
        init.add_filter_edge(q, fb, f, Unweighted);

        let sat = post_star(&pds, &init);
        // After popping a, <p0, X> for any X; firing rule 1 requires X=b.
        assert!(sat.accepts(st(1), &[]));
        assert!(sat.accepts(st(0), &[b]));
    }

    #[test]
    fn worklist_dedup_does_not_change_fixpoint() {
        // A diamond of swaps with unequal weights forces repeated weight
        // improvements on shared transitions — the dedup flag must not
        // lose any of them.
        let mut pds = Pds::<MinTotal>::new(4, 2);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(1), RuleOp::Swap(a), MinTotal(5), 0);
        pds.add_rule(st(0), a, st(2), RuleOp::Swap(a), MinTotal(1), 1);
        pds.add_rule(st(1), a, st(3), RuleOp::Swap(b), MinTotal(1), 2);
        pds.add_rule(st(2), a, st(3), RuleOp::Swap(b), MinTotal(1), 3);
        pds.add_rule(st(3), b, st(0), RuleOp::Swap(a), MinTotal(1), 4);

        let init = initial_config(&pds, st(0), &[a], MinTotal(0));
        let (sat, stats) = post_star_with_stats(&pds, &init);
        assert_eq!(sat.accept_weight(st(3), &[b]), Some(MinTotal(2)));
        assert_eq!(sat.accept_weight(st(0), &[a]), Some(MinTotal(0)));
        // The run must have observed at least one avoided re-queue or
        // none — either way the weights above pin the fixpoint; the
        // counter is merely observable.
        let _ = stats.worklist_requeues_avoided;
    }
}
