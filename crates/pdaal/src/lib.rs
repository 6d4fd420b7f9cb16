//! # pdaal — a weighted pushdown automata library
//!
//! This crate is a from-scratch Rust rebuild of the PDAAAL backend used by
//! the AalWiNes MPLS what-if analysis tool (CoNEXT 2020). It provides:
//!
//! * [`Pds`] — (weighted) pushdown systems in normal form, where every rule
//!   pops, swaps, or pushes relative to the top-of-stack symbol,
//! * [`PAutomaton`] — weighted finite automata over stack symbols used to
//!   represent regular sets of pushdown configurations,
//! * [`post_star`](poststar::post_star) and [`pre_star`](prestar::pre_star) —
//!   worklist saturation procedures computing the set of configurations
//!   reachable from / backward-reachable to a regular configuration set,
//!   generalized to bounded idempotent semirings following
//!   Reps, Schwoon, Jha and Melski (*Weighted pushdown systems and their
//!   application to interprocedural dataflow analysis*, SCP 2005),
//! * provenance-annotated transitions enabling reconstruction of a concrete
//!   minimum-weight *witness run* (the sequence of pushdown rules),
//! * [`reduction`] — static top-of-stack analyses that prune rules which can
//!   never fire, mirroring the reductions AalWiNes applies before solving.
//!
//! ## Weight domains
//!
//! All weight domains in this crate are *totally ordered min-combine*
//! semirings: `combine` is `min` under the `Ord` instance and `extend` is a
//! commutative, monotone addition (see [`Weight`]). This is exactly the
//! class needed for AalWiNes' quantitative queries (shortest traces under
//! hop count, latency, tunnel depth, failure count, and lexicographic
//! vectors thereof) and it admits Dijkstra-style extraction of shortest
//! accepting paths.
//!
//! ## Example
//!
//! ```
//! use pdaal::{Pds, PAutomaton, StateId, SymbolId, RuleOp, Unweighted};
//! use pdaal::poststar::post_star;
//!
//! // A pushdown system with control states p0, p1 and symbols a, b:
//! //   <p0, a> -> <p1, b a>   (push)
//! //   <p1, b> -> <p1, eps>   (pop)
//! let mut pds = Pds::<Unweighted>::new(2, 2);
//! let (p0, p1) = (StateId(0), StateId(1));
//! let (a, b) = (SymbolId(0), SymbolId(1));
//! pds.add_rule(p0, a, p1, RuleOp::Push(b, a), Unweighted, 0);
//! pds.add_rule(p1, b, p1, RuleOp::Pop, Unweighted, 1);
//!
//! // Initial configurations: <p0, a>.
//! let mut initial = PAutomaton::new(&pds);
//! let fin = initial.add_state();
//! initial.set_final(fin);
//! initial.add_edge(p0.into(), a, fin, Unweighted);
//!
//! let sat = post_star(&pds, &initial);
//! // <p1, b a> and <p1, a> are reachable.
//! assert!(sat.accepts(p1, &[b, a]));
//! assert!(sat.accepts(p1, &[a]));
//! assert!(!sat.accepts(p0, &[b, a]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod dot;
pub mod fxhash;
pub mod nfa;
pub mod pautomaton;
pub mod pds;
pub mod poststar;
pub mod prestar;
pub mod reduction;
pub mod reference;
pub mod semiring;
pub mod shortest;
pub mod witness;

pub use budget::{AbortReason, Budget, BudgetChecker, CancelToken, SaturationAbort};
pub use nfa::{StackNfa, SymFilter};
pub use pautomaton::{AutState, FilterId, PAutomaton, Provenance, TLabel, TransId};
pub use pds::{Pds, Rule, RuleId, RuleOp, StateId, SymbolId};
pub use poststar::SaturationStats;
pub use semiring::{MinTotal, MinVector, Unweighted, Weight};
pub use shortest::{shortest_accepted, shortest_accepted_budgeted, AcceptedPath};
pub use witness::{reconstruct_run, WitnessError};

/// Former entry point of intra-query parallel `post*` saturation.
/// Saturation is sequential; this forwards to
/// [`post_star_budgeted`](poststar::post_star_budgeted) and ignores
/// `_threads`.
#[deprecated(note = "use poststar::post_star_budgeted")]
pub fn post_star_threaded<W: Weight>(
    pds: &Pds<W>,
    initial: &PAutomaton<W>,
    budget: &Budget,
    _threads: usize,
) -> Result<(PAutomaton<W>, SaturationStats), SaturationAbort> {
    poststar::post_star_budgeted(pds, initial, budget)
}
