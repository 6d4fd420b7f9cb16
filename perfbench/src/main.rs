//! The repository benchmark: three workloads through the surfaces users
//! call, with every answer checked.
//!
//! ```text
//! perfbench --workload table1_paper|stream_mix|delta_watch \
//!           --seed N --seconds S --trace 0|1 [--daemon PATH]
//! perfbench --generate WORKLOAD     # rewrite expected/WORKLOAD.tsv
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! split of a traced replay of the same inputs. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the environment. Any verdict that differs from the
//! expected-verdict file, failed witness replay, error, abort or error
//! envelope makes `correct` false and the exit code 1. `README.md` next
//! to this crate describes the workloads and metrics.

mod delta_watch;
mod gen;
mod stream_mix;
mod table1;
mod traced;
mod util;

use std::path::PathBuf;
use util::Report;

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mib",
    "decided_ratio",
];

/// Per-layer metrics, reported with `--trace 1`. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("query.parse_ms", "ms"),
    ("query.compile_ms", "ms"),
    ("engine.quick_decide_ms", "ms"),
    ("engine.fingerprint_ms", "ms"),
    ("engine.under_share", "ratio"),
    ("construction.over_ms", "ms"),
    ("construction.under_ms", "ms"),
    ("construction.rules_over", "count"),
    ("construction.precomp_ms", "ms"),
    ("reduction.over_ms", "ms"),
    ("reduction.under_ms", "ms"),
    ("reduction.removed_share", "ratio"),
    ("poststar.over_ms", "ms"),
    ("poststar.under_ms", "ms"),
    ("poststar.transitions", "count"),
    ("poststar.worklist_pops", "count"),
    ("shortest_ms", "ms"),
    ("witness_ms", "ms"),
    ("lift_ms", "ms"),
    ("netmodel.feasible_ms", "ms"),
    ("netmodel.validate_ms", "ms"),
    ("cache.probe_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.invalidated_share", "ratio"),
    ("cache.resident_mib", "MiB"),
    ("cache.estimate_over_rss", "ratio"),
    ("stream.parallel_efficiency", "ratio"),
    ("stream.peak_in_flight", "count"),
    ("formats.xml_tree_s", "s"),
    ("formats.parse_routes_s", "s"),
    ("session.apply_delta_ms", "ms"),
    ("session.reverify_ms", "ms"),
    ("dplint.relint_ms", "ms"),
    ("aalwinesd.overhead_ms", "ms"),
    ("aalwinesd.query_rtt_ms", "ms"),
    ("other_ms", "ms"),
    ("traced_total_ms", "ms"),
    ("trace_overhead_ratio", "ratio"),
    ("traced_verdicts", "count"),
    ("traced_inconclusive_flips", "count"),
    ("selftest_failures", "count"),
];

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload table1_paper|stream_mix|delta_watch --seed N \
         --seconds S --trace 0|1 [--daemon PATH]\n       perfbench --generate WORKLOAD"
    );
    std::process::exit(2)
}

/// `git rev-parse HEAD` of the working directory, or `unavailable`.
fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into())
}

fn main() {
    // The bench and the daemon it starts run with the engine's default
    // intra-query threading, whatever the caller's environment says.
    std::env::remove_var("AALWINES_SAT_THREADS");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value == "1",
            "--daemon" => cfg.daemon = Some(PathBuf::from(value)),
            "--generate" => {
                if let Err(e) = gen::generate(&value) {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
                return;
            }
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());

    let mut report = Report::default();
    if cfg.trace {
        let problems = traced::self_test();
        report.metric("selftest_failures", problems.len() as f64, "count");
        for p in problems {
            report.fail(format!("self-test: {p}"));
        }
    }
    let ran = match workload.as_str() {
        "table1_paper" => table1::run(&cfg, &mut report),
        "stream_mix" => stream_mix::run(&cfg, &mut report),
        "delta_watch" => delta_watch::run(&cfg, &mut report),
        _ => usage(),
    };
    if let Err(e) = ran {
        eprintln!("{workload}: {e}");
        std::process::exit(1);
    }

    if cfg.trace {
        report.metric("traced_inconclusive_flips", report.flips as f64, "count");
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        report.retain(&names);
        for (name, unit) in PER_LAYER {
            report.metric_default(name, unit);
        }
    } else {
        report.retain(&END_TO_END);
    }
    for p in &report.problems {
        eprintln!("FAIL {p}");
    }
    println!(
        "{{\"env\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"workerThreads\": {}, \"saturationThreads\": 1, \"revision\": \"{}\"}}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        stream_mix::threads(),
        if workload == "stream_mix" {
            stream_mix::threads()
        } else {
            1
        },
        revision()
    );
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
