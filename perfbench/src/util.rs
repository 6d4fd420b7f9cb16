//! Shared pieces: sample statistics, OS memory readings, the result
//! line, the expected-verdict file and the witness replay check.

use aalwines::{Answer, Outcome};
use netmodel::{LinkId, Network, Trace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantile `q` (0..=1) of `samples` by linear interpolation between
/// closest ranks. `0.0` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples` (`0.0` when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `a / b`, or `0.0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in bytes, as the
/// kernel reports it in `/proc/<pid>/status`.
pub fn vm_hwm_bytes(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Reset this process's `VmHWM` to its current resident size, so the
/// peak read afterwards covers only what follows. Returns whether the
/// kernel accepted the reset.
pub fn reset_own_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Return the heap's free pages to the OS (glibc `malloc_trim`), so a
/// peak read after the next [`reset_own_peak_rss`] starts from the live
/// data rather than from memory an earlier phase freed.
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free memory; it takes no
    // pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Mebibytes.
pub fn mib(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// The benchmark's result: correctness counters plus named metrics.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (verdicts, answers, deltas).
    pub attempted: u64,
    /// Operations that failed: errors, aborts, wrong verdicts, failed
    /// witness replays, error envelopes.
    pub failed: u64,
    /// First few failure descriptions, echoed to stderr.
    pub problems: Vec<String>,
    /// Traced verdicts that differed from the untraced run's only by one
    /// side being `inconclusive`.
    pub flips: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Record `name` as 0 unless it is already present.
    pub fn metric_default(&mut self, name: &str, unit: &'static str) {
        self.metrics.entry(name.to_string()).or_insert((0.0, unit));
    }

    /// Count one failed operation with a description.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Keep only the metrics named in `names`.
    pub fn retain(&mut self, names: &[&str]) {
        self.metrics.retain(|k, _| names.contains(&k.as_str()));
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, unit))| {
                format!(
                    "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The verdict of an answer as the expected-verdict files spell it:
/// `sat`, `unsat`, or the outcome kind (`inconclusive`, `aborted`,
/// `error`).
pub fn verdict_of(answer: &Answer) -> String {
    match &answer.outcome {
        Outcome::Satisfied(_) => "sat".to_string(),
        Outcome::Unsatisfied => "unsat".to_string(),
        other => other.kind().to_string(),
    }
}

/// Whether two verdicts of the same input are consistent: equal, or one
/// of them is `inconclusive` (the dual engine may fail to decide, never
/// decide wrongly; which witness it tries first can depend on hash
/// order, so an input it decides in one run may stay undecided in
/// another).
pub fn consistent(a: &str, b: &str) -> bool {
    a == b || a == "inconclusive" || b == "inconclusive"
}

/// The witness replay check: at most `k` failed links, and the trace
/// replays through `netmodel`'s forwarding semantics under exactly that
/// failure set.
pub fn replay_ok(net: &Network, trace: &Trace, failed: &HashSet<LinkId>, k: u32) -> bool {
    failed.len() as u32 <= k && trace.is_valid(net, failed)
}

/// Compare a traced verdict with the untraced run's for the same input:
/// a conclusive disagreement or a traced error is a failure, an
/// `inconclusive` on one side is counted as a flip.
pub fn check_traced(
    report: &mut Report,
    traced: Result<String, String>,
    untraced: &str,
    text: &str,
) {
    report.attempted += 1;
    match traced {
        Ok(v) if v == untraced => {}
        Ok(v) if consistent(&v, untraced) => {
            report.flips += 1;
            if report.flips <= 5 {
                eprintln!("flip: traced {v}, untraced {untraced}: {text}");
            }
        }
        Ok(v) => report.fail(format!("traced {v} != untraced {untraced}: {text}")),
        Err(e) => report.fail(format!("traced {text}: {e}")),
    }
}

/// Check one in-process answer against the expected verdict under `key`
/// and replay its witness on `net`. Records a failure in `report`.
pub fn check_answer(
    report: &mut Report,
    expected: &Expected,
    key: &str,
    answer: &Answer,
    net: &Network,
    k: u32,
) -> String {
    let got = verdict_of(answer);
    expected.check(report, key, &got);
    if let Outcome::Satisfied(w) = &answer.outcome {
        if !replay_ok(net, &w.trace, &w.failed_links, k) {
            report.fail(format!("witness does not replay: {key}"));
        }
    }
    got
}

/// Expected verdicts of one workload, keyed by input.
pub struct Expected {
    map: HashMap<String, String>,
}

impl Expected {
    /// Load `expected/<workload>.tsv` next to the benchmark's sources.
    pub fn load(workload: &str) -> Result<Self, String> {
        let path = expected_path(workload);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut map = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (key, verdict) = line
                .rsplit_once('\t')
                .ok_or_else(|| format!("malformed line in {}: {line}", path.display()))?;
            map.insert(key.to_string(), verdict.to_string());
        }
        Ok(Expected { map })
    }

    /// The expected verdict under `key`, if the table has one.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(String::as_str)
    }

    /// Compare `got` with the reference verdict. A conclusive verdict
    /// must equal the reference (unless the reference is `unknown`: no
    /// engine decided the input); `inconclusive` is never wrong, it
    /// lowers `decided_ratio` instead. Errors, aborts and inputs missing
    /// from the table are failures.
    pub fn check(&self, report: &mut Report, key: &str, got: &str) {
        match (self.get(key), got) {
            (None, _) => report.fail(format!("no expected verdict for: {key}")),
            (Some(_), "inconclusive") => {}
            (Some(want), "sat" | "unsat") if want == got || want == "unknown" => {}
            (Some(want), _) => report.fail(format!("verdict {got} (reference {want}): {key}")),
        }
    }
}

/// Where the expected-verdict file of `workload` lives.
pub fn expected_path(workload: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.tsv"))
}

/// Deterministic sub-seed of pass `pass` for run seed `seed`: the run
/// seed selects one of `slots` input families, each pass within it a
/// fixed member, so every input a run can reach has an expected verdict.
pub fn sub_seed(seed: u64, slots: u64, pass: u64) -> u64 {
    (seed % slots) * 1000 + pass
}
