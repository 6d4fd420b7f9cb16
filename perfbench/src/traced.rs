//! The traced driver: one query at a time through each layer's public
//! function, in the dual engine's order, with a clock around every call.
//!
//! It mirrors `Verifier::verify_compiled` at one saturation thread:
//! parse → compile → quick-decide → (fingerprint → cache probe) →
//! over phase (construction → reduction → post* → shortest accepted
//! path → run reconstruction → trace lift → failure feasibility) and,
//! only when the over-approximation's witness is infeasible, the same
//! steps for the under phase. Time not covered by a layer (cache
//! probes, glue) is reported as `other`.

use crate::util::ms;
use aalwines::construction::{self, ApproxMode, Construction, NetworkPrecomp};
use aalwines::lift::{lift_run, trace_pairs};
use aalwines::quantities::StepMeasure;
use aalwines::{query_fingerprint, quick_decide, ConstructionCache, VerifyOptions, WeightSpec};
use netmodel::{feasible_failures, Network};
use pdaal::budget::Budget;
use pdaal::reduction::reduce;
use pdaal::shortest::shortest_accepted_budgeted;
use pdaal::witness::reconstruct_run;
use pdaal::{
    post_star_threaded, MinTotal, MinVector, PAutomaton, Pds, StateId, Unweighted, Weight,
};
use query::CompiledQuery;
use std::time::{Duration, Instant};

/// Time and work accumulated per layer over a traced run.
#[derive(Default, Clone, Debug)]
pub struct Layers {
    pub parse: Duration,
    pub compile: Duration,
    pub quick_decide: Duration,
    pub fingerprint: Duration,
    /// Construction-cache lookups and inserts (evictions included),
    /// without the construction a miss runs.
    pub cache_probe: Duration,
    pub construct_over: Duration,
    pub construct_under: Duration,
    pub reduce_over: Duration,
    pub reduce_under: Duration,
    pub post_over: Duration,
    pub post_under: Duration,
    pub shortest: Duration,
    pub witness: Duration,
    pub lift: Duration,
    pub feasible: Duration,
    /// Wall time of every traced verification, end to end.
    pub total: Duration,
    /// Verifications traced.
    pub queries: usize,
    /// Verifications that needed a PDS (not quick-decided).
    pub full: usize,
    /// Verifications that ran the under phase.
    pub under_runs: usize,
    /// Over-approximation rules, summed over full verifications.
    pub rules_over: usize,
    /// Rules the reduction removed from the over-approximation.
    pub rules_removed: usize,
    /// Saturated over-approximation transitions, summed.
    pub transitions: usize,
    /// Worklist pops over both phases, summed.
    pub worklist_pops: usize,
}

impl Layers {
    /// Sum of every layer's time (everything but `other`).
    pub fn layered(&self) -> Duration {
        self.parse
            + self.compile
            + self.quick_decide
            + self.fingerprint
            + self.cache_probe
            + self.construct_over
            + self.construct_under
            + self.reduce_over
            + self.reduce_under
            + self.post_over
            + self.post_under
            + self.shortest
            + self.witness
            + self.lift
            + self.feasible
    }

    /// Traced total minus the layers.
    pub fn other(&self) -> Duration {
        self.total.saturating_sub(self.layered())
    }

    /// Per-layer metrics as `(name, value, unit)`: times are mean
    /// milliseconds per traced verification, counts are means per
    /// verification that built a PDS.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per_q = |d: Duration| ms(d) / self.queries.max(1) as f64;
        let per_full = |n: usize| n as f64 / self.full.max(1) as f64;
        vec![
            ("query.parse_ms", per_q(self.parse), "ms"),
            ("query.compile_ms", per_q(self.compile), "ms"),
            ("engine.quick_decide_ms", per_q(self.quick_decide), "ms"),
            ("engine.fingerprint_ms", per_q(self.fingerprint), "ms"),
            ("cache.probe_ms", per_q(self.cache_probe), "ms"),
            ("engine.under_share", per_full(self.under_runs), "ratio"),
            ("construction.over_ms", per_q(self.construct_over), "ms"),
            ("construction.under_ms", per_q(self.construct_under), "ms"),
            (
                "construction.rules_over",
                per_full(self.rules_over),
                "count",
            ),
            ("reduction.over_ms", per_q(self.reduce_over), "ms"),
            ("reduction.under_ms", per_q(self.reduce_under), "ms"),
            (
                "reduction.removed_share",
                crate::util::ratio(self.rules_removed as f64, self.rules_over as f64),
                "ratio",
            ),
            ("poststar.over_ms", per_q(self.post_over), "ms"),
            ("poststar.under_ms", per_q(self.post_under), "ms"),
            ("poststar.transitions", per_full(self.transitions), "count"),
            (
                "poststar.worklist_pops",
                per_full(self.worklist_pops),
                "count",
            ),
            ("shortest_ms", per_q(self.shortest), "ms"),
            ("witness_ms", per_q(self.witness), "ms"),
            ("lift_ms", per_q(self.lift), "ms"),
            ("netmodel.feasible_ms", per_q(self.feasible), "ms"),
            ("other_ms", per_q(self.other()), "ms"),
            ("traced_total_ms", per_q(self.total), "ms"),
            ("traced_verdicts", self.queries as f64, "count"),
        ]
    }
}

impl std::ops::AddAssign<&Layers> for Layers {
    fn add_assign(&mut self, b: &Layers) {
        self.parse += b.parse;
        self.compile += b.compile;
        self.quick_decide += b.quick_decide;
        self.fingerprint += b.fingerprint;
        self.cache_probe += b.cache_probe;
        self.construct_over += b.construct_over;
        self.construct_under += b.construct_under;
        self.reduce_over += b.reduce_over;
        self.reduce_under += b.reduce_under;
        self.post_over += b.post_over;
        self.post_under += b.post_under;
        self.shortest += b.shortest;
        self.witness += b.witness;
        self.lift += b.lift;
        self.feasible += b.feasible;
        self.total += b.total;
        self.queries += b.queries;
        self.full += b.full;
        self.under_runs += b.under_runs;
        self.rules_over += b.rules_over;
        self.rules_removed += b.rules_removed;
        self.transitions += b.transitions;
        self.worklist_pops += b.worklist_pops;
    }
}

/// A traced verdict: `sat`, `unsat`, or `inconclusive` when neither
/// phase decides, plus the witness's weight vector when weighted.
pub struct TracedVerdict {
    pub verdict: String,
    pub weight: Option<Vec<u64>>,
}

/// One compiled, reduced phase artifact, as the engine caches it.
struct Compiled<W: Weight> {
    cons: Construction<W>,
    solve_pds: Pds<W>,
    removed: usize,
}

enum PhaseResult {
    Empty,
    /// A feasible witness, with its weight vector when weighted.
    Witness(Option<Vec<u64>>),
    Infeasible,
}

/// The traced engine over one network state.
pub struct Traced<'a> {
    net: &'a Network,
    pre: &'a NetworkPrecomp,
    cache: Option<&'a ConstructionCache>,
    weights: Option<WeightSpec>,
    pub layers: Layers,
}

impl<'a> Traced<'a> {
    /// A traced engine over `net` with precomputation `pre`, an optional
    /// construction cache, and optional weights (`None` = unweighted
    /// dual engine).
    pub fn new(
        net: &'a Network,
        pre: &'a NetworkPrecomp,
        cache: Option<&'a ConstructionCache>,
        weights: Option<WeightSpec>,
    ) -> Self {
        Traced {
            net,
            pre,
            cache,
            weights,
            layers: Layers::default(),
        }
    }

    /// Verify one query text through the traced layers.
    pub fn verify_text(&mut self, text: &str) -> Result<TracedVerdict, String> {
        let start = Instant::now();
        let t = Instant::now();
        let parsed = query::parse_query(text);
        self.layers.parse += t.elapsed();
        let q = parsed.map_err(|e| e.to_string())?;
        let t = Instant::now();
        let cq = query::compile(&q, self.net);
        self.layers.compile += t.elapsed();
        let out = self.verify_compiled(&cq);
        self.layers.total += start.elapsed();
        self.layers.queries += 1;
        Ok(out)
    }

    fn verify_compiled(&mut self, cq: &CompiledQuery) -> TracedVerdict {
        let t = Instant::now();
        let quick = quick_decide(cq, self.net);
        self.layers.quick_decide += t.elapsed();
        if quick.is_some() {
            return TracedVerdict {
                verdict: "unsat".into(),
                weight: None,
            };
        }
        self.layers.full += 1;
        let fingerprint = self.cache.map(|_| {
            let mut opts = VerifyOptions::new();
            if let Some(spec) = &self.weights {
                opts = opts.with_weights(spec.clone());
            }
            let t = Instant::now();
            let fp = query_fingerprint(cq, &opts);
            self.layers.fingerprint += t.elapsed();
            fp
        });
        let fp = fingerprint.as_deref();
        let (over, under) = match self.weights.clone() {
            None => (
                self.phase::<Unweighted>(cq, ApproxMode::Over, fp, &|_| Unweighted, &|_| None),
                None,
            ),
            Some(spec) => {
                let s = spec.clone();
                (
                    self.phase::<MinVector>(cq, ApproxMode::Over, fp, &move |m| s.weigh(m), &|w| {
                        Some(w.0.clone())
                    }),
                    Some(spec),
                )
            }
        };
        let decided = |r: PhaseResult| match r {
            PhaseResult::Empty => Some(TracedVerdict {
                verdict: "unsat".into(),
                weight: None,
            }),
            PhaseResult::Witness(weight) => Some(TracedVerdict {
                verdict: "sat".into(),
                weight,
            }),
            PhaseResult::Infeasible => None,
        };
        if let Some(v) = decided(over) {
            return v;
        }
        self.layers.under_runs += 1;
        let under = match under {
            None => self.phase::<MinTotal>(
                cq,
                ApproxMode::Under,
                fp,
                &|m| MinTotal(m.failures),
                &|_| None,
            ),
            Some(spec) => {
                self.phase::<MinVector>(cq, ApproxMode::Under, fp, &move |m| spec.weigh(m), &|w| {
                    Some(w.0.clone())
                })
            }
        };
        match under {
            PhaseResult::Witness(..) => decided(under).expect("witness decides"),
            _ => TracedVerdict {
                verdict: "inconclusive".into(),
                weight: None,
            },
        }
    }

    fn phase<W: Weight + Send + Sync + 'static>(
        &mut self,
        cq: &CompiledQuery,
        mode: ApproxMode,
        fingerprint: Option<&str>,
        weigh: &dyn Fn(&StepMeasure) -> W,
        weight_vec: &dyn Fn(&W) -> Option<Vec<u64>>,
    ) -> PhaseResult {
        let budget = Budget::unlimited();
        let over = mode == ApproxMode::Over;
        let pre = self.pre;
        // Construction and reduction times of a cache miss.
        let mut compiled = (Duration::ZERO, Duration::ZERO);
        let mut compile = || {
            let t = Instant::now();
            let cons = construction::build_with_budget(pre, cq, mode, weigh, &budget)
                .expect("unlimited budget never aborts");
            compiled.0 = t.elapsed();
            let t = Instant::now();
            let (solve_pds, removed) = reduce(&cons.pds, &cons.initial, &cons.finals);
            compiled.1 = t.elapsed();
            Compiled {
                cons,
                solve_pds,
                removed,
            }
        };
        let artifact = match (self.cache, fingerprint) {
            (Some(cache), Some(fp)) => {
                let t = Instant::now();
                let (artifact, _) = cache.get_or_build_tracked(&format!("{mode:?};{fp}"), || {
                    let c = compile();
                    let footprint = c.cons.footprint();
                    let bytes = c.cons.approx_bytes() + c.solve_pds.approx_bytes();
                    (c, Some(footprint), bytes)
                });
                self.layers.cache_probe += t.elapsed().saturating_sub(compiled.0 + compiled.1);
                artifact
            }
            _ => std::sync::Arc::new(compile()),
        };
        if over {
            self.layers.construct_over += compiled.0;
            self.layers.reduce_over += compiled.1;
        } else {
            self.layers.construct_under += compiled.0;
            self.layers.reduce_under += compiled.1;
        }
        if over {
            self.layers.rules_over += artifact.cons.pds.num_rules();
            self.layers.rules_removed += artifact.removed;
        }

        let t = Instant::now();
        let saturated = post_star_threaded(&artifact.solve_pds, &artifact.cons.initial, &budget, 1);
        let d = t.elapsed();
        *(if over {
            &mut self.layers.post_over
        } else {
            &mut self.layers.post_under
        }) += d;
        let (sat, stats) = match saturated {
            Ok(ok) => ok,
            Err(_) => unreachable!("unlimited budget never aborts"),
        };
        self.layers.worklist_pops += stats.worklist_pops;
        if over {
            self.layers.transitions += stats.transitions;
        }

        let result = self.extract(&artifact, &sat, cq, weight_vec);
        // Freeing the saturated automaton, and an artifact the cache does
        // not keep, is work of the layer that allocated it.
        let t = Instant::now();
        drop(sat);
        *(if over {
            &mut self.layers.post_over
        } else {
            &mut self.layers.post_under
        }) += t.elapsed();
        let t = Instant::now();
        drop(artifact);
        *(if over {
            &mut self.layers.construct_over
        } else {
            &mut self.layers.construct_under
        }) += t.elapsed();
        result
    }

    /// Shortest accepted path, run reconstruction, trace lift and
    /// failure feasibility of one saturated phase.
    fn extract<W: Weight>(
        &mut self,
        artifact: &Compiled<W>,
        sat: &PAutomaton<W>,
        cq: &CompiledQuery,
        weight_vec: &dyn Fn(&W) -> Option<Vec<u64>>,
    ) -> PhaseResult {
        let budget = Budget::unlimited();
        let t = Instant::now();
        let starts: Vec<(StateId, W)> = artifact
            .cons
            .finals
            .iter()
            .map(|s| (*s, W::one()))
            .collect();
        let found = shortest_accepted_budgeted(sat, &starts, &cq.final_, &budget)
            .expect("unlimited budget never aborts");
        self.layers.shortest += t.elapsed();
        let Some(path) = found else {
            return PhaseResult::Empty;
        };

        let t = Instant::now();
        let run = reconstruct_run(&artifact.solve_pds, sat, &path.transitions, &path.word);
        self.layers.witness += t.elapsed();
        let Ok(run) = run else {
            return PhaseResult::Infeasible;
        };
        let t = Instant::now();
        let trace = lift_run(self.net, &artifact.solve_pds, &artifact.cons.meta, &run);
        self.layers.lift += t.elapsed();
        let Ok(trace) = trace else {
            return PhaseResult::Infeasible;
        };
        let t = Instant::now();
        let failed = feasible_failures(self.net, &trace_pairs(&trace));
        self.layers.feasible += t.elapsed();
        match failed {
            Some(failed) if failed.len() as u32 <= cq.max_failures => {
                PhaseResult::Witness(weight_vec(&path.weight))
            }
            _ => PhaseResult::Infeasible,
        }
    }
}

/// The traced driver's self-test on the paper's Figure-1 network:
/// φ0, φ1, φ2 and φ4 satisfied, φ3 unsatisfied, weighted φ4 under
/// `Hops, Failures + 3*Tunnels` = `[5, 0]`, and the layers plus `other`
/// summing to the traced total. Returns the failures found.
pub fn self_test() -> Vec<String> {
    let net = aalwines::examples::paper_network();
    let pre = NetworkPrecomp::new(&net);
    let mut problems = Vec::new();
    let phi = [
        ("<ip> [.#v0] .* [v3#.] <ip> 0", "sat"),
        ("<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2", "sat"),
        ("<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0", "sat"),
        ("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1", "unsat"),
        ("<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1", "sat"),
    ];
    let cache = ConstructionCache::new(aalwines::DEFAULT_CACHE_SIZE);
    for with_cache in [false, true] {
        let mut traced = Traced::new(&net, &pre, with_cache.then_some(&cache), None);
        for (i, (text, want)) in phi.iter().enumerate() {
            match traced.verify_text(text) {
                Ok(v) if v.verdict == *want => {}
                Ok(v) => problems.push(format!("phi{i}: traced {} != {want}", v.verdict)),
                Err(e) => problems.push(format!("phi{i}: {e}")),
            }
        }
        let l = &traced.layers;
        if l.layered() + l.other() != l.total || l.layered() > l.total {
            problems.push("layers plus other do not sum to the traced total".into());
        }
    }
    let spec = WeightSpec::parse("Hops, Failures + 3*Tunnels").expect("valid weight spec");
    let mut weighted = Traced::new(&net, &pre, None, Some(spec));
    match weighted.verify_text(phi[4].0) {
        Ok(v) if v.weight.as_deref() == Some(&[5, 0][..]) => {}
        Ok(v) => problems.push(format!(
            "weighted phi4: traced weight {:?} != [5, 0]",
            v.weight
        )),
        Err(e) => problems.push(format!("weighted phi4: {e}")),
    }
    problems
}

#[cfg(test)]
mod tests {
    #[test]
    fn traced_driver_reproduces_figure1_answers() {
        assert_eq!(super::self_test(), Vec::<String>::new());
    }
}
