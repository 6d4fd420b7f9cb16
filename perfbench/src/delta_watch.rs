//! `delta_watch`: the `aalwinesd` daemon over its Unix socket, one
//! client, closed loop. The client loads topology/route XML, primes the
//! incremental lint, subscribes a fixed set of anchored queries, then
//! runs a seeded script of `link-down`/`link-up` deltas, each followed
//! by a one-off `query`.

use crate::traced::{Layers, Traced};
use crate::util::{self, median, ms, quantile, Expected, Report};
use crate::Config;
use aalwines::{ConstructionCache, Delta, Footprint, NetworkPrecomp, Session};
use detrand::DetRng;
use formats::json::Value;
use netmodel::{Header, LabelId, LinkId, Network, RoutingEntry, Trace, TraceStep};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Input families the run seed selects from.
pub const SLOTS: u64 = 8;
/// Links the script takes down, per slot.
pub const LINK_POOL: usize = 16;
/// Watched (subscribed) queries.
pub const WATCHED: usize = 6;
/// One-off queries the script draws from, per slot.
pub const ONE_OFF: usize = 24;
/// Daemon set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest a single request may take before the run fails.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// The network: the smoke tier's backbone with 500 service chains.
pub fn dataplane() -> topogen::lsp::Dataplane {
    topogen::scale::scale_tier(&topogen::scale::ScaleConfig {
        service_chains: 500,
        ..topogen::scale::ScaleConfig::smoke()
    })
}

/// The inputs of one slot: watched queries, one-off pool, link pool.
pub struct Inputs {
    pub watched: Vec<String>,
    pub one_off: Vec<String>,
    pub links: Vec<LinkId>,
}

/// Anchored queries only: every seventh Figure-4 query is the
/// unanchored family, which this workload leaves to `stream_mix`.
fn anchored(dp: &topogen::lsp::Dataplane, n: usize, seed: u64) -> Vec<String> {
    topogen::queries::figure4_queries(dp, n / 6 * 7, seed)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 7 != 6)
        .map(|(_, q)| q)
        .collect()
}

pub fn inputs(dp: &topogen::lsp::Dataplane, seed: u64) -> Inputs {
    let mut links: Vec<LinkId> = dp
        .net
        .topology
        .links()
        .filter(|l| !dp.net.entries_over(*l).is_empty())
        .collect();
    let mut rng = DetRng::seed_from_u64(util::sub_seed(seed, SLOTS, 2));
    rng.shuffle(&mut links);
    links.truncate(LINK_POOL);
    Inputs {
        // The watched set is the same for every seed, so the cost of a
        // delta's re-verification does not vary with the seed.
        watched: anchored(dp, WATCHED, 0),
        one_off: anchored(dp, ONE_OFF, util::sub_seed(seed, SLOTS, 1)),
        links,
    }
}

/// One script step: take `link` down, ask `down_query`, bring the link
/// back up, ask `up_query`.
#[derive(Clone)]
pub struct Step {
    pub link: LinkId,
    pub down_query: String,
    pub up_query: String,
}

/// The endless seeded script of a run.
pub fn script(inputs: &Inputs, seed: u64) -> impl Iterator<Item = Step> + '_ {
    let mut rng = DetRng::seed_from_u64(util::sub_seed(seed, SLOTS, 3));
    std::iter::from_fn(move || {
        Some(Step {
            link: inputs.links[rng.gen_range(0..inputs.links.len())],
            down_query: inputs.one_off[rng.gen_range(0..inputs.one_off.len())].clone(),
            up_query: inputs.one_off[rng.gen_range(0..inputs.one_off.len())].clone(),
        })
    })
}

/// The expected-verdict key of `text` with `down` out of service.
pub fn key(net: &Network, down: Option<LinkId>, text: &str) -> String {
    match down {
        Some(l) => format!("{}|{text}", net.topology.link_name(l)),
        None => format!("-|{text}"),
    }
}

/// Take `link` out of service exactly as `Delta::LinkDown` does,
/// returning the stashed rules.
pub fn link_down(net: &mut Network, link: LinkId) -> Vec<(LinkId, LabelId, usize, RoutingEntry)> {
    let hits = net.entries_over(link);
    for (in_link, label, priority, entry) in &hits {
        net.remove_entry(*in_link, *label, *priority, entry);
    }
    hits
}

/// Restore rules stashed by [`link_down`].
pub fn link_up(net: &mut Network, stash: Vec<(LinkId, LabelId, usize, RoutingEntry)>) {
    for (in_link, label, priority, entry) in stash {
        net.add_rule_unchecked(in_link, label, priority, entry);
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// A running daemon and one client connection. Dropping it kills and
/// reaps the child if it has not shut down cleanly.
struct Daemon {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    /// Start `binary` in `dir` with a fresh journal and connect to it.
    fn start(binary: &Path, dir: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(dir.join("journal.ndjson"));
        let child = Command::new(binary)
            .current_dir(dir)
            .args(["--socket", "d.sock", "--journal", "journal.ndjson"])
            .env_remove("AALWINES_SAT_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("{}: {e}", binary.display()))?;
        let mut guard = Reaper(Some(child));
        let socket = dir.join("d.sock");
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        let stream = loop {
            if let Ok(s) = UnixStream::connect(&socket) {
                break s;
            }
            if let Some(status) = guard.child().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not open its socket".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        stream
            .set_read_timeout(Some(REQUEST_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Daemon {
            child: guard.0.take().expect("child present"),
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request; collect envelopes until one of kind `until` (or
    /// an error envelope) arrives. Returns (kind, payload) pairs.
    fn request(&mut self, body: &str, until: &str) -> Result<Vec<(String, Value)>, String> {
        writeln!(self.writer, "{body}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        let mut out = Vec::new();
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("no response within {REQUEST_TIMEOUT:?}: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".into());
            }
            let v = formats::json::parse(&line).map_err(|e| format!("bad envelope: {e}"))?;
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let payload = v.get("payload").cloned().unwrap_or(Value::Null);
            let done = kind == until || kind == "error" || kind == "busy";
            out.push((kind, payload));
            if done {
                let (kind, payload) = out.last().expect("just pushed");
                if kind != until {
                    return Err(format!("{kind} envelope: {}", payload.to_json()));
                }
                return Ok(out);
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// End with the `shutdown` verb and reap the child.
    fn shutdown(mut self) -> Result<(), String> {
        let res = self.request("{\"verb\":\"shutdown\"}", "bye").map(|_| ());
        let deadline = Instant::now() + REQUEST_TIMEOUT;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        res
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Kills and reaps a child on drop unless taken.
struct Reaper(Option<Child>);

impl Reaper {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child present")
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Verdict of an answer payload as the expected-verdict file spells it.
fn verdict_of(answer: &Value) -> String {
    match answer.get("result").and_then(Value::as_str) {
        Some("satisfied") => "sat".into(),
        Some("unsatisfied") => "unsat".into(),
        Some(other) => other.into(),
        None => "missing".into(),
    }
}

fn link_of(net: &Network, v: &Value) -> Option<LinkId> {
    let from = net.topology.router_by_name(v.get("from")?.as_str()?)?;
    net.topology
        .link_by_interface(from, v.get("fromInterface")?.as_str()?)
}

/// Replay a satisfied answer payload's witness on `net`.
fn replay_payload(net: &Network, answer: &Value, k: u32) -> bool {
    let (Some(Value::Array(steps)), Some(Value::Array(failed))) =
        (answer.get("trace"), answer.get("failedLinks"))
    else {
        return false;
    };
    let mut trace = Vec::new();
    for step in steps {
        let Some(link) = step.get("link").and_then(|l| link_of(net, l)) else {
            return false;
        };
        let Some(Value::Array(names)) = step.get("header") else {
            return false;
        };
        let labels: Option<Vec<LabelId>> = names
            .iter()
            .map(|n| n.as_str().and_then(|n| net.labels.get(n)))
            .collect();
        let Some(labels) = labels else { return false };
        trace.push(TraceStep {
            link,
            header: Header(labels),
        });
    }
    let failed: Option<HashSet<LinkId>> = failed.iter().map(|l| link_of(net, l)).collect();
    let Some(failed) = failed else { return false };
    util::replay_ok(net, &Trace::new(trace), &failed, k)
}

fn max_failures(text: &str) -> u32 {
    query::parse_query(text)
        .map(|q| q.max_failures)
        .unwrap_or(0)
}

/// Check a daemon answer payload: expected verdict and witness replay.
fn check_payload(
    report: &mut Report,
    expected: &Expected,
    net: &Network,
    down: Option<LinkId>,
    text: &str,
    answer: &Value,
) -> String {
    let got = verdict_of(answer);
    let key = key(net, down, text);
    expected.check(report, &key, &got);
    if got == "sat" && !replay_payload(net, answer, max_failures(text)) {
        report.fail(format!("witness does not replay: {key}"));
    }
    got
}

fn number(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for p in path {
        match cur.get(p) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Start a daemon, load the XML, prime lint, subscribe the watched
/// queries. Returns the daemon and the subscribe answers' verdicts.
fn set_up(
    binary: &Path,
    dir: &Path,
    watched: &[String],
    report: &mut Report,
    expected: &Expected,
    net: &Network,
) -> Result<(Daemon, Vec<String>), String> {
    let mut d = Daemon::start(binary, dir)?;
    d.request(
        "{\"verb\":\"load\",\"topology\":\"topo.xml\",\"routing\":\"routes.xml\"}",
        "loaded",
    )?;
    d.request("{\"verb\":\"lint\"}", "lint-report")?;
    let mut verdicts = Vec::new();
    for text in watched {
        let resp = d.request(
            &format!(
                "{{\"verb\":\"subscribe\",\"query\":{}}}",
                formats::json::json_escape(text)
            ),
            "subscribed",
        )?;
        let answer = resp.last().and_then(|(_, p)| p.get("answer")).cloned();
        report.attempted += 1;
        let answer = answer.unwrap_or(Value::Null);
        verdicts.push(check_payload(report, expected, net, None, text, &answer));
    }
    Ok((d, verdicts))
}

/// What the untraced pass saw, for the traced replay.
struct Observed {
    steps: Vec<Step>,
    /// Daemon round trip of each delta, in order (down, up, down, ...).
    delta_rtt: Vec<f64>,
    /// Daemon round trip of each one-off query.
    query_rtt: Vec<f64>,
    /// Verdict of each one-off query, in order.
    query_verdicts: Vec<String>,
    /// Watched verdicts at subscription and after each delta.
    subscribed: Vec<String>,
    watched_after: Vec<Vec<String>>,
}

pub fn run(cfg: &Config, report: &mut Report) -> Result<(), String> {
    let expected = Expected::load("delta_watch")?;
    let binary = cfg
        .daemon
        .as_ref()
        .ok_or("delta_watch needs --daemon PATH to the aalwinesd binary")?;
    // The daemon starts in its scratch directory, so a relative path
    // would resolve against that.
    let binary = std::fs::canonicalize(binary).map_err(|e| format!("{}: {e}", binary.display()))?;
    let dp = dataplane();
    let inputs = inputs(&dp, cfg.seed);
    let mut mirror = dp.net.clone();
    let tmp = TempDir::new()?;
    let topo_xml = formats::write_topology(&dp.net.topology);
    let routes_xml = formats::write_routes(&dp.net);
    std::fs::write(tmp.0.join("topo.xml"), &topo_xml).map_err(|e| e.to_string())?;
    std::fs::write(tmp.0.join("routes.xml"), &routes_xml).map_err(|e| e.to_string())?;
    eprintln!("delta_watch: {} rules", dp.net.num_rules());

    let mut setup = Vec::new();
    let mut daemon = None;
    let mut watched_now = Vec::new();
    for i in 0..SETUPS {
        let t = Instant::now();
        let (d, verdicts) = set_up(&binary, &tmp.0, &inputs.watched, report, &expected, &mirror)?;
        setup.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
            watched_now = verdicts;
        }
    }
    let mut d = daemon.expect("last set-up kept");

    let mut obs = Observed {
        steps: Vec::new(),
        delta_rtt: Vec::new(),
        query_rtt: Vec::new(),
        query_verdicts: Vec::new(),
        subscribed: watched_now.clone(),
        watched_after: Vec::new(),
    };
    let (mut reverified, mut invalidated, mut retained) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses) = (0.0, 0.0);
    let mut decided = 0u64;
    let started = Instant::now();
    let mut answers_wall = 0.0;
    let mut rates = Vec::new();
    for step in script(&inputs, cfg.seed) {
        if started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let name = mirror.topology.link_name(step.link);
        let mut stash = None;
        let (step_wait, step_answers) = (answers_wall, obs.query_rtt.len() as f64 + reverified);
        for (kind, down, text) in [
            ("link-down", Some(step.link), &step.down_query),
            ("link-up", None, &step.up_query),
        ] {
            // The delta, with the updates it pushes.
            let body = format!(
                "{{\"verb\":\"delta\",\"delta\":{{\"kind\":\"{kind}\",\"link\":{}}}}}",
                formats::json::json_escape(&name)
            );
            let t = Instant::now();
            let resp = d.request(&body, "delta-report")?;
            let rtt = t.elapsed();
            answers_wall += rtt.as_secs_f64();
            obs.delta_rtt.push(ms(rtt));
            report.attempted += 1;
            match down {
                Some(l) => stash = Some(link_down(&mut mirror, l)),
                None => link_up(&mut mirror, stash.take().unwrap_or_default()),
            }
            let (_, delta_report) = resp.last().expect("delta-report present");
            if delta_report.get("report").and_then(|r| r.get("applied")) != Some(&Value::Bool(true))
            {
                report.fail(format!("{kind} {name} was not applied"));
            }
            reverified += number(delta_report, &["report", "reverified"]);
            invalidated += number(delta_report, &["report", "invalidated"]);
            retained += number(delta_report, &["report", "retained"]);
            for (k, payload) in &resp {
                if k != "update" {
                    continue;
                }
                let idx = number(payload, &["index"]) as usize;
                let answer = payload.get("answer").cloned().unwrap_or(Value::Null);
                if let Some(text) = inputs.watched.get(idx) {
                    watched_now[idx] =
                        check_payload(report, &expected, &mirror, down, text, &answer);
                } else {
                    report.fail(format!("update for unknown watch index {idx}"));
                }
            }
            // Every watched answer, pushed or not, must match the new state.
            for (text, got) in inputs.watched.iter().zip(&watched_now) {
                report.attempted += 1;
                expected.check(report, &key(&mirror, down, text), got);
            }
            obs.watched_after.push(watched_now.clone());

            // The one-off query in the new state.
            let body = format!(
                "{{\"verb\":\"query\",\"query\":{}}}",
                formats::json::json_escape(text)
            );
            let t = Instant::now();
            let resp = d.request(&body, "answer")?;
            let rtt = t.elapsed();
            answers_wall += rtt.as_secs_f64();
            obs.query_rtt.push(ms(rtt));
            report.attempted += 1;
            let (_, answer) = resp.last().expect("answer present");
            hits += number(answer, &["stats", "cacheHits"]);
            misses += number(answer, &["stats", "cacheMisses"]);
            let got = check_payload(report, &expected, &mirror, down, text, answer);
            decided += (got == "sat" || got == "unsat") as u64;
            obs.query_verdicts.push(got);
        }
        rates.push(
            (obs.query_rtt.len() as f64 + reverified - step_answers) / (answers_wall - step_wait),
        );
        obs.steps.push(step);
    }
    let wall = started.elapsed().as_secs_f64();
    let health = d.request("{\"verb\":\"health\"}", "health")?;
    let resident = health
        .last()
        .map_or(0.0, |(_, p)| number(p, &["residentBytes"]));
    let hwm = util::vm_hwm_bytes(&d.pid()).unwrap_or(0) as f64;
    d.shutdown()?;

    report.metric("setup_s", median(&setup), "s");
    report.metric("throughput_qps", median(&rates), "1/s");
    report.metric("latency_p50_ms", median(&obs.delta_rtt), "ms");
    report.metric("latency_p90_ms", quantile(&obs.delta_rtt, 0.9), "ms");
    report.metric("peak_rss_mib", util::mib(hwm), "MiB");
    report.metric(
        "decided_ratio",
        decided as f64 / obs.query_rtt.len().max(1) as f64,
        "ratio",
    );
    report.metric("cache.hit_ratio", util::ratio(hits, hits + misses), "ratio");
    report.metric(
        "cache.invalidated_share",
        util::ratio(invalidated, invalidated + retained),
        "ratio",
    );
    report.metric("cache.resident_mib", util::mib(resident), "MiB");
    report.metric(
        "cache.estimate_over_rss",
        util::ratio(resident, hwm),
        "ratio",
    );
    report.metric("stream.peak_in_flight", 1.0, "count");
    report.metric("aalwinesd.query_rtt_ms", median(&obs.query_rtt), "ms");
    eprintln!(
        "delta_watch: {} deltas, {} queries in {wall:.1}s ({answers_wall:.1}s waiting on the daemon)",
        obs.delta_rtt.len(),
        obs.query_rtt.len()
    );

    if cfg.trace {
        trace(report, &dp.net, &inputs, &obs, &topo_xml, &routes_xml);
    }
    Ok(())
}

/// Footprint of a link delta: the incoming links of every rule that
/// forwards over `link` in `net` (before a down, after an up).
fn touched(net: &Network, link: LinkId) -> Footprint {
    Footprint::from_links(net.entries_over(link).into_iter().map(|h| h.0))
}

/// The traced run: ingestion layers once, then an in-process replay of
/// the executed script on three sessions and the traced engine.
fn trace(
    report: &mut Report,
    net: &Network,
    inputs: &Inputs,
    obs: &Observed,
    topo_xml: &str,
    routes_xml: &str,
) {
    let t = Instant::now();
    let trees = formats::xml::parse(topo_xml).and(formats::xml::parse(routes_xml));
    report.metric("formats.xml_tree_s", t.elapsed().as_secs_f64(), "s");
    if let Err(e) = trees {
        report.fail(format!("xml: {e}"));
    }
    let parsed = formats::parse_topology(topo_xml).and_then(|topo| {
        let t = Instant::now();
        let routes = formats::parse_routes(routes_xml, topo);
        report.metric("formats.parse_routes_s", t.elapsed().as_secs_f64(), "s");
        routes
    });
    let loaded = match parsed {
        Ok(n) => n,
        Err(e) => {
            report.fail(format!("parse_routes: {e}"));
            return;
        }
    };
    if loaded.num_rules() != net.num_rules() {
        report.fail("XML round trip changed the rule count".into());
    }

    // A: the daemon's verification state without lint; B: lint primed,
    // no cache and no watches, so B − A is the incremental re-lint.
    let open = |cache: usize| {
        Session::builder()
            .threads(1)
            .saturation_threads(1)
            .cache_size(cache)
            .open(loaded.clone())
    };
    let mut a = open(aalwines::DEFAULT_CACHE_SIZE);
    let mut b = open(0);
    b.lint();
    let cache = ConstructionCache::new(aalwines::DEFAULT_CACHE_SIZE);
    let mut layers = Layers::default();
    let (mut precomp, mut validate) = (Vec::new(), Vec::new());
    let (mut apply, mut relint, mut reverify, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut untraced_ms = 0.0;

    // One traced pass over `texts` on A's current state, checked against
    // the daemon's verdicts.
    let traced_pass = |report: &mut Report,
                       a: &Session,
                       layers: &mut Layers,
                       precomp: &mut Vec<f64>,
                       validate: &mut Vec<f64>,
                       texts: &[(&str, &str)]| {
        let t = Instant::now();
        let _ = a.network().validate();
        validate.push(ms(t.elapsed()));
        let t = Instant::now();
        let pre = NetworkPrecomp::new(a.network());
        precomp.push(ms(t.elapsed()));
        let mut traced = Traced::new(a.network(), &pre, Some(&cache), None);
        for (text, want) in texts {
            let v = traced.verify_text(text).map(|v| v.verdict);
            util::check_traced(report, v, want, text);
        }
        *layers += &traced.layers;
    };

    // Subscribe-time verification of the watched queries.
    for text in &inputs.watched {
        let t = Instant::now();
        let _ = a.verify_text(text);
        untraced_ms += ms(t.elapsed());
    }
    let subscribed: Vec<(&str, &str)> = inputs
        .watched
        .iter()
        .map(String::as_str)
        .zip(obs.subscribed.iter().map(String::as_str))
        .collect();
    traced_pass(
        report,
        &a,
        &mut layers,
        &mut precomp,
        &mut validate,
        &subscribed,
    );

    let mut delta_idx = 0;
    for step in &obs.steps {
        for (is_down, text) in [(true, &step.down_query), (false, &step.up_query)] {
            let delta = if is_down {
                Delta::LinkDown(step.link)
            } else {
                Delta::LinkUp(step.link)
            };
            // Footprint of the delta: rules over the link while it is up.
            let footprint = is_down.then(|| touched(a.network(), step.link));
            let t = Instant::now();
            let ra = a.apply_delta(&delta);
            let ta = ms(t.elapsed());
            let t = Instant::now();
            b.apply_delta(&delta);
            let tb = ms(t.elapsed());
            if !ra.applied {
                report.fail(format!("in-process {} not applied", delta.kind()));
            }
            let t = Instant::now();
            for w in &inputs.watched {
                let _ = a.verify_text(w);
            }
            let tr = ms(t.elapsed());
            untraced_ms += tr;
            apply.push(ta);
            relint.push(tb - ta);
            reverify.push(tr);
            overhead.push(obs.delta_rtt[delta_idx] - (ta + tr + (tb - ta)));

            // The traced engine sees the same invalidation the session did.
            let footprint = footprint.unwrap_or_else(|| touched(a.network(), step.link));
            cache.invalidate_intersecting(&footprint);
            let watched_now = &obs.watched_after[delta_idx];
            let mut texts: Vec<(&str, &str)> = inputs
                .watched
                .iter()
                .map(String::as_str)
                .zip(watched_now.iter().map(String::as_str))
                .collect();
            texts.push((text.as_str(), obs.query_verdicts[delta_idx].as_str()));
            let t = Instant::now();
            let _ = a.verify_text(text);
            untraced_ms += ms(t.elapsed());
            traced_pass(report, &a, &mut layers, &mut precomp, &mut validate, &texts);
            delta_idx += 1;
        }
    }

    for (name, value, unit) in layers.metrics() {
        report.metric(name, value, unit);
    }
    report.metric("construction.precomp_ms", util::mean(&precomp), "ms");
    report.metric("netmodel.validate_ms", util::mean(&validate), "ms");
    report.metric("session.apply_delta_ms", util::mean(&apply), "ms");
    report.metric("session.reverify_ms", util::mean(&reverify), "ms");
    report.metric("dplint.relint_ms", util::mean(&relint), "ms");
    report.metric("aalwinesd.overhead_ms", util::mean(&overhead), "ms");
    report.metric(
        "trace_overhead_ratio",
        util::ratio(ms(layers.total), untraced_ms),
        "ratio",
    );
    report.metric(
        "stream.parallel_efficiency",
        util::ratio(ms(layers.total), untraced_ms),
        "ratio",
    );
}
