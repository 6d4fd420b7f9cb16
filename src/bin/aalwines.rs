//! The `aalwines` command-line tool: load a data-plane snapshot in the
//! vendor-agnostic Appendix-A formats and verify queries against it.
//!
//! ```text
//! aalwines --topology topo.xml --routing route.xml [--locations loc.json] \
//!          [--weight "Hops, Failures + 3*Tunnels"] [--no-reduction] [--engine moped] \
//!          --query '<ip> [.#v0] .* [v3#.] <ip> 0'
//!
//! aalwines --isis mapping.txt ...      # ingest per-router IS-IS dumps instead
//! aalwines --isis mapping.txt --write-topology topo.xml --write-routing route.xml
//!                                      # convert to the vendor-agnostic format
//! aalwines --demo                      # the paper's running example
//! aalwines ... --stdin                 # one query per line from stdin
//! aalwines ... --lint                  # static analysis instead of verification
//! ```
//!
//! Exit code 0: all queries conclusive; 2: at least one inconclusive;
//! 1: usage or input error, including an unknown flag. With
//! `--lint`/`--lint-json`: 0 clean, 2 warnings only, 1 at least one
//! error.

use aalwines::telemetry::envelope;
use aalwines::{
    Answer, Backend, BatchSummary, Outcome, SessionBuilder, StreamEvent, StreamOptions,
    VerifyOptions, WeightSpec,
};
use netmodel::Network;
use query::parse_query;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: aalwines (--demo | --isis mapping.txt | --topology topo.xml --routing route.xml\n\
         \x20                 | --gml file.gml [--edge-routers N] [--max-pairs N]\n\
         \x20                   [--service-chains N] [--seed N] [--no-protection])\n\
         \x20        [--locations loc.json] (--query '<a> b <c> k' ... | --stdin)\n\
         \x20        [--weight 'expr, expr, ...'] [--engine dual|moped] [--no-reduction]\n\
         \x20        [--deadline-ms N] [--batch-deadline-ms N] [--max-transitions N]\n\
         \x20        [--threads N] [--no-cache] [--cache-size N]\n\
         \x20        [--window N] [--progress-ms N]\n\
         \x20        [--stats] [--json] [--repair]\n\
         \x20        [--write-topology out.xml] [--write-routing out.xml]\n\
         \x20        [--chaos-seed N] [--chaos-mutants M]\n\
         \x20        [--lint | --lint-json]\n\
         \n\
         --demo without --query/--stdin runs the paper's six benchmark queries."
    );
    std::process::exit(1)
}

/// Flags that take the next argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "--batch-deadline-ms",
    "--cache-size",
    "--chaos-mutants",
    "--chaos-seed",
    "--deadline-ms",
    "--edge-routers",
    "--engine",
    "--gml",
    "--isis",
    "--locations",
    "--max-pairs",
    "--max-transitions",
    "--progress-ms",
    "--query",
    "--routing",
    "--seed",
    "--service-chains",
    "--threads",
    "--topology",
    "--weight",
    "--window",
    "--write-routing",
    "--write-topology",
];

/// Flags that stand alone.
const BOOL_FLAGS: &[&str] = &[
    "--demo",
    "--json",
    "--lint",
    "--lint-json",
    "--no-cache",
    "--no-protection",
    "--no-reduction",
    "--repair",
    "--stats",
    "--stdin",
];

/// Split the command line into `(flag, value)` pairs, checking every
/// argument against [`VALUE_FLAGS`] and [`BOOL_FLAGS`].
fn parse_flags(args: &[String]) -> Result<Vec<(&str, Option<&str>)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            flags.push((arg.as_str(), Some(v.as_str())));
        } else if BOOL_FLAGS.contains(&arg.as_str()) {
            flags.push((arg.as_str(), None));
        } else {
            return Err(format!("unknown flag '{arg}'"));
        }
    }
    Ok(flags)
}

/// The paper's six running-example queries, used as the default workload
/// of `--demo`.
const DEMO_QUERIES: [&str; 6] = [
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
    "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
    "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
    "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
    "<ip> [.#v3] .* [v0#.] <ip> 2",
];

fn report(net: &Network, text: &str, answer: &Answer, show_stats: bool) -> bool {
    let conclusive = match &answer.outcome {
        Outcome::Satisfied(w) => {
            println!("{text}");
            println!("  SATISFIED");
            println!("  witness: {}", w.trace.display(net));
            if !w.failed_links.is_empty() {
                let mut names: Vec<String> = w
                    .failed_links
                    .iter()
                    .map(|&l| net.topology.link_name(l))
                    .collect();
                names.sort();
                println!("  failed links: {}", names.join(", "));
            }
            if let Some(weight) = &w.weight {
                println!("  weight: {weight:?}");
            }
            true
        }
        Outcome::Unsatisfied => {
            println!("{text}\n  UNSATISFIED");
            true
        }
        Outcome::Inconclusive => {
            println!("{text}\n  INCONCLUSIVE");
            false
        }
        Outcome::Aborted(reason) => {
            println!("{text}\n  ABORTED ({reason})");
            false
        }
        Outcome::Error(msg) => {
            println!("{text}\n  ERROR ({msg})");
            false
        }
    };
    if show_stats {
        println!("  stats: {}", answer.stats.to_json());
    }
    conclusive
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("{msg}");
            usage()
        }
    };
    let has = |flag: &str| flags.iter().any(|(f, _)| *f == flag);
    let values = |key: &str| -> Vec<String> {
        flags
            .iter()
            .filter(|(f, _)| *f == key)
            .filter_map(|(_, v)| v.map(str::to_owned))
            .collect()
    };
    let value = |key: &str| {
        flags
            .iter()
            .find(|(f, _)| *f == key)
            .and_then(|(_, v)| v.map(str::to_owned))
    };

    let lint_mode = has("--lint") || has("--lint-json");

    // `--no-cache` and `--cache-size` used to silently resolve in
    // argument order; a conflicting combination is a usage error now.
    if has("--no-cache") && has("--cache-size") {
        eprintln!("--no-cache conflicts with --cache-size (use --cache-size 0 to disable)");
        return ExitCode::FAILURE;
    }

    // ---- load the network ------------------------------------------------
    let net: Network = if has("--demo") {
        aalwines::examples::paper_network()
    } else if let Some(gml_path) = value("--gml") {
        // A Topology Zoo GML file carries no routing; synthesize the
        // paper's evaluation data plane on top (LSPs between edge
        // routers + fast-failover tunnels along shortest paths).
        let text = match std::fs::read_to_string(&gml_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {gml_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let topo = match topogen::topology_from_gml(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{gml_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let n = topo.num_routers();
        let parse_n = |key: &str, default: usize| {
            value(key)
                .map(|v| v.parse().unwrap_or(default))
                .unwrap_or(default)
        };
        let dp = topogen::build_mpls_dataplane(
            topo,
            &topogen::LspConfig {
                edge_routers: parse_n("--edge-routers", (n as usize / 4).clamp(2, 24)),
                max_pairs: parse_n("--max-pairs", 300),
                protect: !has("--no-protection"),
                service_chains: parse_n("--service-chains", 2 * n as usize),
                seed: parse_n("--seed", 1) as u64,
            },
        );
        eprintln!(
            "synthesized LSPs on {gml_path}: edge routers {:?}",
            dp.edge_routers
                .iter()
                .map(|&r| dp.net.topology.router(r).name.clone())
                .collect::<Vec<_>>()
        );
        dp.net
    } else if let Some(mapping_path) = value("--isis") {
        let mapping = match std::fs::read_to_string(&mapping_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {mapping_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base = std::path::Path::new(&mapping_path)
            .parent()
            .map(|p| p.to_path_buf())
            .unwrap_or_default();
        match formats::network_from_isis(&mapping, &|p| {
            std::fs::read_to_string(base.join(p)).map_err(|e| format!("{p}: {e}"))
        }) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{mapping_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let (Some(tp), Some(rp)) = (value("--topology"), value("--routing")) else {
            usage()
        };
        let topo_text = match std::fs::read_to_string(&tp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {tp}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let route_text = match std::fs::read_to_string(&rp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {rp}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let loc_text = match value("--locations") {
            None => None,
            Some(lp) => match std::fs::read_to_string(&lp) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("cannot read {lp}: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        // The unified load path: every parse failure is a typed
        // LoadError with a byte offset where one exists. Lint mode
        // skips the validation gate — a semantically broken network is
        // exactly what the linter is for.
        let loaded = if lint_mode && !has("--repair") {
            aalwines_suite::load_dataplane_unchecked(&topo_text, &route_text, loc_text.as_deref())
        } else {
            aalwines_suite::load_dataplane(
                &topo_text,
                &route_text,
                loc_text.as_deref(),
                has("--repair"),
            )
        };
        match loaded {
            Ok(n) => n,
            Err(e) => {
                eprintln!("cannot load {tp} + {rp}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut net = net;
    let problems = net.validate();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("  {p}");
        }
        let errors = problems
            .iter()
            .filter(|p| p.severity == netmodel::Severity::Error)
            .count();
        if has("--repair") {
            let report = net.repair();
            eprintln!(
                "repaired network: dropped {} rule keys, {} entries; removed {} empty groups",
                report.dropped_keys, report.dropped_entries, report.removed_groups
            );
        } else if errors > 0 && !lint_mode {
            // The linter reports these same defects itself (DP001–DP004),
            // so lint mode keeps going on an invalid network.
            eprintln!("invalid network: {errors} error(s) (re-run with --repair to drop them)");
            return ExitCode::FAILURE;
        }
    }
    let net = net;
    eprintln!(
        "loaded network: {} routers, {} links, {} rules, {} labels",
        net.topology.num_routers(),
        net.topology.num_links(),
        net.num_rules(),
        net.labels.len()
    );

    // ---- lint mode --------------------------------------------------------
    // `--lint` / `--lint-json` run the static analyzer instead of the
    // verifier: dataplane lints over the loaded network plus query
    // lints for any `--query`/`--stdin` queries. Exit 0 when clean,
    // 2 with warnings only, 1 with at least one error.
    if lint_mode {
        let mut lint_queries = Vec::new();
        let mut texts = values("--query");
        if has("--stdin") {
            for line in std::io::stdin().lock().lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("cannot read stdin: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let line = line.trim();
                if !line.is_empty() && !line.starts_with('#') {
                    texts.push(line.to_string());
                }
            }
        }
        for text in &texts {
            match parse_query(text) {
                Ok(q) => lint_queries.push(q),
                Err(e) => {
                    eprintln!("{text}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let report = dplint::lint_all(&net, &lint_queries);
        if has("--lint-json") {
            println!("{}", envelope("lint-report", &report.to_json()));
        } else {
            println!("{report}");
        }
        return ExitCode::from(report.exit_code() as u8);
    }

    // ---- chaos mode -------------------------------------------------------
    // `--chaos-seed N` runs the fault-injection campaign against this
    // network instead of verifying queries: seeded mutants, validate/
    // repair, dual-vs-moped agreement, witness replay. Exit 0 iff no
    // invariant was violated.
    if let Some(seed_text) = value("--chaos-seed") {
        let Ok(seed) = seed_text.parse::<u64>() else {
            eprintln!("--chaos-seed: expected an integer, got {seed_text:?}");
            return ExitCode::FAILURE;
        };
        let mutants = match value("--chaos-mutants") {
            None => 100,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--chaos-mutants: expected a count, got {v:?}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let mut chaos_queries = Vec::new();
        for text in values("--query") {
            match parse_query(&text) {
                Ok(q) => chaos_queries.push(q),
                Err(e) => {
                    eprintln!("{text}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if chaos_queries.is_empty() {
            chaos_queries = chaos::paper_queries();
        }
        let report = chaos::run_chaos(
            &net,
            &chaos_queries,
            &chaos::ChaosOptions::new(seed, mutants),
        );
        if has("--json") {
            println!("{}", envelope("chaos-report", &report.to_json()));
        } else {
            println!(
                "chaos: {} mutants ({} clean, {} repaired, {} rejected), \
                 {} verifications, {} decided pairs, {} witnesses replayed",
                report.mutants,
                report.clean,
                report.repaired,
                report.rejected,
                report.verifications,
                report.decided_pairs,
                report.witnesses_replayed
            );
            for v in &report.violations {
                println!("  VIOLATION: {v}");
            }
        }
        return if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // ---- conversion mode (paper Appendix A.1) -------------------------
    let mut converted = false;
    if let Some(path) = value("--write-topology") {
        if let Err(e) = std::fs::write(&path, formats::write_topology(&net.topology)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
        converted = true;
    }
    if let Some(path) = value("--write-routing") {
        if let Err(e) = std::fs::write(&path, formats::write_routes(&net)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
        converted = true;
    }
    if converted && values("--query").is_empty() && !has("--stdin") {
        return ExitCode::SUCCESS;
    }

    // ---- options ----------------------------------------------------------
    let weights = match value("--weight").map(|w| WeightSpec::parse(&w)) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            eprintln!("--weight: {e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let engine_name = value("--engine").unwrap_or_else(|| "dual".into());
    if engine_name == "moped" && weights.is_some() {
        eprintln!("the moped engine cannot handle weighted queries (as in the paper)");
        return ExitCode::FAILURE;
    }
    let parse_millis = |key: &str| -> Result<Option<Duration>, ExitCode> {
        match value(key) {
            None => Ok(None),
            Some(v) => match v.parse::<u64>() {
                Ok(ms) => Ok(Some(Duration::from_millis(ms))),
                Err(_) => {
                    eprintln!("{key}: expected milliseconds, got {v:?}");
                    Err(ExitCode::FAILURE)
                }
            },
        }
    };
    let mut opts = VerifyOptions::new();
    if let Some(w) = weights {
        opts = opts.with_weights(w);
    }
    if has("--no-reduction") {
        opts = opts.without_reduction();
    }
    match parse_millis("--deadline-ms") {
        Ok(Some(t)) => opts = opts.with_timeout(t),
        Ok(None) => {}
        Err(code) => return code,
    }
    if let Some(v) = value("--max-transitions") {
        match v.parse::<usize>() {
            Ok(max) => opts = opts.with_transition_budget(max),
            Err(_) => {
                eprintln!("--max-transitions: expected a count, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // --threads parallelizes across queries: each worker verifies whole
    // queries, sequentially.
    let mut builder = SessionBuilder::new();
    if let Some(v) = value("--threads") {
        match v.parse::<usize>() {
            Ok(n) => builder = builder.threads(n),
            Err(_) => {
                eprintln!("--threads: expected a count, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match parse_millis("--batch-deadline-ms") {
        Ok(Some(t)) => builder = builder.batch_timeout(t),
        Ok(None) => {}
        Err(code) => return code,
    }
    let show_stats = has("--stats");
    let json_output = has("--json");

    // Construction cache (dual engine only; Moped has no cache).
    if has("--no-cache") {
        builder = builder.cache_size(0);
    }
    if let Some(v) = value("--cache-size") {
        match v.parse::<usize>() {
            Ok(n) => builder = builder.cache_size(n),
            Err(_) => {
                eprintln!("--cache-size: expected a count (0 disables the cache), got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match engine_name.as_str() {
        "dual" => {}
        "moped" => builder = builder.backend(Backend::Moped),
        other => {
            eprintln!("unknown engine {other:?} (use dual or moped)");
            return ExitCode::FAILURE;
        }
    }

    // ---- streaming mode (--stdin) -----------------------------------------
    // Queries stream straight off stdin through the bounded-window
    // driver: nothing buffers the whole input or the whole answer set,
    // a malformed line yields a per-query error answer instead of
    // aborting the run, and answers print in input order as they
    // complete. `--window` bounds in-flight queries; `--progress-ms`
    // emits live telemetry envelopes on stderr.
    if has("--stdin") {
        let mut stream_opts = StreamOptions::new();
        if let Some(v) = value("--window") {
            match v.parse::<usize>() {
                Ok(n) => stream_opts = stream_opts.with_window(n),
                Err(_) => {
                    eprintln!("--window: expected a count, got {v:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        match parse_millis("--progress-ms") {
            Ok(Some(t)) => stream_opts = stream_opts.with_progress_interval(t),
            Ok(None) => {}
            Err(code) => return code,
        }

        // One resident session owns the network, precomputation, and
        // cache; every streamed query reuses them.
        let session = builder.verify_options(opts).open(net);
        let net = session.network();

        // A read error mid-stream ends the input; remember it so the
        // run still exits 1 (the feeder thread owns the iterator, hence
        // the shared slot).
        let io_error: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let io_slot = Arc::clone(&io_error);
        let lines = values("--query").into_iter().chain(
            BufReader::new(std::io::stdin())
                .lines()
                .map_while(move |r| match r {
                    Ok(l) => Some(l),
                    Err(e) => {
                        *io_slot.lock().unwrap() = Some(e.to_string());
                        None
                    }
                })
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#')),
        );

        let mut all_conclusive = true;
        let summary = session.verify_stream(lines, &stream_opts, &mut |ev| match ev {
            StreamEvent::Answer { text, answer, .. } => {
                if json_output {
                    println!(
                        "{}",
                        envelope(
                            "answer",
                            &aalwines_suite::gui::answer_to_json(net, text, answer).to_json()
                        )
                    );
                    all_conclusive &= answer.outcome.is_conclusive();
                } else {
                    all_conclusive &= report(net, text, answer, show_stats);
                }
            }
            StreamEvent::Progress(p) => {
                eprintln!("{}", envelope("stream-progress", &p.to_json()));
            }
        });
        if json_output {
            println!("{}", envelope("stream-summary", &summary.to_json()));
        } else if show_stats {
            print_summary(&summary.batch);
        }
        if let Some(e) = io_error.lock().unwrap().take() {
            eprintln!("cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        if summary.parse_errors > 0 {
            eprintln!(
                "{} quer{} failed to parse",
                summary.parse_errors,
                if summary.parse_errors == 1 {
                    "y"
                } else {
                    "ies"
                }
            );
            return ExitCode::FAILURE;
        }
        return if all_conclusive {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }

    // ---- batch mode (--query ...) -----------------------------------------
    let mut queries = values("--query");
    if queries.is_empty() {
        if has("--demo") {
            queries = DEMO_QUERIES.iter().map(|q| q.to_string()).collect();
        } else {
            usage()
        }
    }
    let mut parsed = Vec::with_capacity(queries.len());
    for text in &queries {
        match parse_query(text) {
            Ok(q) => parsed.push(q),
            Err(e) => {
                eprintln!("{text}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // One resident session owns the network, precomputation, and cache;
    // every query of the run (and any future interactive follow-ups)
    // reuses them.
    let session = builder.verify_options(opts).open(net);
    let net = session.network();

    let answers = session.verify_batch(&parsed);
    let mut all_conclusive = true;
    for (text, answer) in queries.iter().zip(&answers) {
        if json_output {
            println!(
                "{}",
                envelope(
                    "answer",
                    &aalwines_suite::gui::answer_to_json(net, text, answer).to_json()
                )
            );
            all_conclusive &= answer.outcome.is_conclusive();
        } else {
            all_conclusive &= report(net, text, answer, show_stats);
        }
    }
    let summary = BatchSummary::summarize(&answers);
    if json_output {
        println!("{}", envelope("batch-summary", &summary.to_json()));
    } else if show_stats {
        print_summary(&summary);
    }
    if all_conclusive {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn print_summary(summary: &BatchSummary) {
    println!(
        "summary: {} queries — {} satisfied, {} unsatisfied, {} inconclusive, {} aborted, \
         {} errors; solve p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        summary.total,
        summary.satisfied,
        summary.unsatisfied,
        summary.inconclusive,
        summary.aborted,
        summary.errors,
        summary.t_solve.p50,
        summary.t_solve.p95,
        summary.t_solve.max
    );
}
