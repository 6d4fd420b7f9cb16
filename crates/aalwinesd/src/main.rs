//! CLI entry point for `aalwinesd`: bind a Unix socket, optionally
//! preload a dataplane (or restore one from the write-ahead journal),
//! and serve the NDJSON protocol until `shutdown`.

use aalwines::telemetry::JsonObject;
use aalwinesd::{Daemon, DaemonConfig};
use formats::json::{parse as parse_json, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
aalwinesd — resident what-if verification service (NDJSON over a Unix socket)

USAGE:
    aalwinesd --socket PATH [--demo | --topology T.xml --routing R.xml]
              [--locations L.json] [--repair] [--threads N] [--cache-size N]
              [--journal PATH] [--max-clients N] [--max-frame-bytes N]
              [--read-timeout-ms N] [--max-resident-bytes N]
    aalwinesd --smoke | --smoke-reconnect

OPTIONS:
    --socket PATH            Unix domain socket to listen on
    --demo                   preload the paper's example network
    --topology PATH          preload: topology XML
    --routing PATH           preload: routing XML
    --locations PATH         preload: optional router-coordinate JSON
    --repair                 drop ill-formed rules while preloading
    --threads N              worker threads for batch requests (default 1)
    --cache-size N           construction-cache capacity (default 256, 0 = off)
    --journal PATH           write-ahead journal: replay it at startup, then
                             record every load/delta/subscribe for crash safety
    --max-clients N          concurrent-connection cap; extra connections get
                             a 'busy' envelope (default 64)
    --max-frame-bytes N      request-frame size cap (default 262144)
    --read-timeout-ms N      stalled-frame deadline; idle connections are
                             never timed out (default 10000)
    --max-resident-bytes N   resident-memory budget: past it, cache entries
                             are shed LRU-first, then new subscriptions are
                             refused (default 0 = unbounded)
    --debug-verbs            enable test-only verbs (debug-panic); never use
                             in production
    --smoke                  run a self-contained end-to-end exercise and exit
    --smoke-reconnect        kill -9 a child daemon mid-stream and verify the
                             journal replay + client reconnect path; exit
";

struct Args {
    socket: Option<PathBuf>,
    demo: bool,
    topology: Option<String>,
    routing: Option<String>,
    locations: Option<String>,
    repair: bool,
    threads: usize,
    cache_size: usize,
    journal: Option<PathBuf>,
    max_clients: usize,
    max_frame_bytes: usize,
    read_timeout_ms: u64,
    max_resident_bytes: usize,
    debug_verbs: bool,
    smoke: bool,
    smoke_reconnect: bool,
}

fn parse_args() -> Result<Args, String> {
    let defaults = DaemonConfig::default();
    let mut args = Args {
        socket: None,
        demo: false,
        topology: None,
        routing: None,
        locations: None,
        repair: false,
        threads: 1,
        cache_size: aalwines::DEFAULT_CACHE_SIZE,
        journal: None,
        max_clients: defaults.max_clients,
        max_frame_bytes: defaults.max_frame_bytes,
        read_timeout_ms: defaults.read_timeout.as_millis() as u64,
        max_resident_bytes: 0,
        debug_verbs: false,
        smoke: false,
        smoke_reconnect: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let parsed = |name: &str, v: String| -> Result<usize, String> {
            v.parse().map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket")?)),
            "--demo" => args.demo = true,
            "--topology" => args.topology = Some(value("--topology")?),
            "--routing" => args.routing = Some(value("--routing")?),
            "--locations" => args.locations = Some(value("--locations")?),
            "--repair" => args.repair = true,
            "--threads" => args.threads = parsed("--threads", value("--threads")?)?,
            "--cache-size" => args.cache_size = parsed("--cache-size", value("--cache-size")?)?,
            "--journal" => args.journal = Some(PathBuf::from(value("--journal")?)),
            "--max-clients" => args.max_clients = parsed("--max-clients", value("--max-clients")?)?,
            "--max-frame-bytes" => {
                args.max_frame_bytes = parsed("--max-frame-bytes", value("--max-frame-bytes")?)?
            }
            "--read-timeout-ms" => {
                args.read_timeout_ms =
                    parsed("--read-timeout-ms", value("--read-timeout-ms")?)? as u64
            }
            "--max-resident-bytes" => {
                args.max_resident_bytes =
                    parsed("--max-resident-bytes", value("--max-resident-bytes")?)?
            }
            "--debug-verbs" => args.debug_verbs = true,
            "--smoke" => args.smoke = true,
            "--smoke-reconnect" => args.smoke_reconnect = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

impl Args {
    fn config(&self) -> DaemonConfig {
        DaemonConfig {
            threads: self.threads,
            cache_size: self.cache_size,
            max_clients: self.max_clients,
            max_frame_bytes: self.max_frame_bytes,
            read_timeout: Duration::from_millis(self.read_timeout_ms),
            max_resident_bytes: self.max_resident_bytes,
            debug_verbs: self.debug_verbs,
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return report_smoke("smoke", smoke());
    }
    if args.smoke_reconnect {
        return report_smoke("smoke-reconnect", smoke_reconnect());
    }
    let Some(socket) = args.socket.clone() else {
        eprintln!("error: --socket is required (or --smoke/--smoke-reconnect)\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let daemon = match &args.journal {
        Some(journal) => match Daemon::with_journal(args.config(), journal) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: journal {}: {e}", journal.display());
                return ExitCode::FAILURE;
            }
        },
        None => Daemon::new(args.config()),
    };
    if daemon.is_loaded() {
        // The journal replay already reconstructed a session (including
        // any preload recorded by an earlier run); preloading again
        // would discard the replayed deltas and watches.
        let status = daemon.replay_status();
        eprintln!(
            "aalwinesd: restored session from journal ({} records{})",
            status.records,
            if status.clean {
                ", clean replay"
            } else {
                ", UNCLEAN replay — see the health verb"
            }
        );
    } else if args.demo {
        daemon.preload_with_spec(aalwines::examples::paper_network(), Some("{\"demo\":true}"));
        eprintln!("aalwinesd: preloaded demo network");
    } else if let (Some(topo), Some(routes)) = (&args.topology, &args.routing) {
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let loaded = (|| {
            let topo_xml = read(topo)?;
            let routes_xml = read(routes)?;
            let locations = match &args.locations {
                Some(p) => Some(read(p)?),
                None => None,
            };
            aalwines_suite::load_dataplane(
                &topo_xml,
                &routes_xml,
                locations.as_deref(),
                args.repair,
            )
            .map_err(|e| e.to_string())
        })();
        match loaded {
            Ok(net) => {
                let mut spec = JsonObject::new();
                spec.string("topology", topo);
                spec.string("routing", routes);
                if let Some(l) = &args.locations {
                    spec.string("locations", l);
                }
                if args.repair {
                    spec.boolean("repair", true);
                }
                daemon.preload_with_spec(net, Some(&spec.finish()));
                eprintln!("aalwinesd: preloaded dataplane");
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("aalwinesd: listening on {}", socket.display());
    match daemon.serve(&socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_smoke(name: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => {
            println!("aalwinesd {name}: OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aalwinesd {name}: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One scripted client connection for the smoke exercises.
struct SmokeClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl SmokeClient {
    fn connect(path: &std::path::Path) -> Result<Self, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(SmokeClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Reconnect with capped exponential backoff — the client half of
    /// crash recovery: a daemon restart leaves a window with no socket.
    fn connect_with_backoff(path: &std::path::Path, budget: Duration) -> Result<Self, String> {
        let start = Instant::now();
        let mut delay = Duration::from_millis(10);
        loop {
            match SmokeClient::connect(path) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if start.elapsed() >= budget {
                        return Err(format!("reconnect window exhausted: {e}"));
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(250));
                }
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        if line.is_empty() {
            return Err("connection closed".to_string());
        }
        parse_json(line.trim_end()).map_err(|e| format!("bad envelope: {e}"))
    }

    /// Send one request and expect the response envelope kind,
    /// returning its payload. Unsolicited `update` / `lint-update`
    /// pushes that arrive first are collected into `updates` as whole
    /// envelopes (so callers can tell the two kinds apart).
    fn roundtrip(
        &mut self,
        request: &str,
        want_kind: &str,
        updates: &mut Vec<Value>,
    ) -> Result<Value, String> {
        self.send(request)?;
        loop {
            let envelope = self.recv()?;
            if envelope.get("schemaVersion").and_then(Value::as_f64) != Some(1.0) {
                return Err(format!("unversioned envelope: {}", envelope.to_json()));
            }
            let kind = envelope
                .get("kind")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string();
            let payload = envelope.get("payload").cloned().unwrap_or(Value::Null);
            if kind == "update" || kind == "lint-update" {
                updates.push(envelope);
                continue;
            }
            if kind != want_kind {
                return Err(format!(
                    "{request}: expected kind '{want_kind}', got {}",
                    envelope.to_json()
                ));
            }
            return Ok(payload);
        }
    }
}

/// Strip the volatile timing `stats` from an `answer` payload so two
/// runs of the same deterministic verification compare byte-identical.
fn strip_stats(mut payload: Value) -> Value {
    if let Value::Object(o) = &mut payload {
        o.remove("stats");
    }
    payload
}

/// Self-contained end-to-end exercise over a real Unix socket: load →
/// query → lint → subscribe → delta (with changed-answer push) →
/// stats → shutdown. Used by CI as the daemon smoke job.
fn smoke() -> Result<(), String> {
    let path = std::env::temp_dir().join(format!("aalwinesd-smoke-{}.sock", std::process::id()));
    let daemon = Daemon::new(DaemonConfig {
        threads: 2,
        ..DaemonConfig::default()
    });
    let server = {
        let daemon = daemon.clone();
        let path = path.clone();
        std::thread::spawn(move || daemon.serve(&path))
    };
    // The listener comes up asynchronously; poll for the socket file.
    for _ in 0..200 {
        if path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let mut updates = Vec::new();
    let mut a = SmokeClient::connect(&path)?;
    a.roundtrip(r#"{"verb":"load","demo":true}"#, "loaded", &mut updates)?;

    let q = "<ip> [.#v0] .* [v3#.] <ip> 0";
    let payload = a.roundtrip(
        &format!(r#"{{"verb":"query","query":"{q}"}}"#),
        "answer",
        &mut updates,
    )?;
    if payload.get("result").and_then(Value::as_str) != Some("satisfied") {
        return Err(format!("demo query not satisfied: {}", payload.to_json()));
    }

    // A second, concurrent client sees the same warm session.
    let mut b = SmokeClient::connect(&path)?;
    let stats = b.roundtrip(r#"{"verb":"stats"}"#, "session-stats", &mut updates)?;
    if stats.get("cacheEntries").and_then(Value::as_f64) == Some(0.0) {
        return Err("cache should be warm after the first query".to_string());
    }
    if stats
        .get("bytesResident")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        <= 0.0
    {
        return Err("bytesResident missing from stats".to_string());
    }

    let health = b.roundtrip(r#"{"verb":"health"}"#, "health", &mut updates)?;
    if health.get("loaded") != Some(&Value::Bool(true)) {
        return Err(format!("health says unloaded: {}", health.to_json()));
    }
    if health
        .get("lintIncrementalHits")
        .and_then(Value::as_f64)
        .is_none()
    {
        return Err(format!("health lacks lint counters: {}", health.to_json()));
    }

    // The resident lint report is primed at load; the paper network is
    // clean, so the report must exist and hold zero findings.
    let lint = b.roundtrip(r#"{"verb":"lint"}"#, "lint-report", &mut updates)?;
    let clean = matches!(
        lint.get("report").and_then(|r| r.get("findings")),
        Some(Value::Array(items)) if items.is_empty()
    );
    if !clean {
        return Err(format!(
            "demo dataplane should lint clean: {}",
            lint.to_json()
        ));
    }

    a.roundtrip(
        &format!(r#"{{"verb":"subscribe","query":"{q}"}}"#),
        "subscribed",
        &mut updates,
    )?;

    // Take links down until the subscribed answer changes; the daemon
    // must push an `update` to client A.
    let links = {
        let net = aalwines::examples::paper_network();
        net.topology.num_links()
    };
    for l in 0..links {
        let report = a.roundtrip(
            &format!(r#"{{"verb":"delta","delta":{{"kind":"link-down","link":{l}}}}}"#),
            "delta-report",
            &mut updates,
        )?;
        let changed = report
            .get("report")
            .and_then(|r| r.get("changed"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if changed > 0.0 {
            break;
        }
    }
    let kind_count = |k: &str| {
        updates
            .iter()
            .filter(|u| u.get("kind").and_then(Value::as_str) == Some(k))
            .count()
    };
    if kind_count("update") == 0 {
        return Err("no update push received after deltas".to_string());
    }

    a.roundtrip(r#"{"verb":"shutdown"}"#, "bye", &mut updates)?;
    drop(a);
    drop(b);
    server
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))?;
    Ok(())
}

/// Crash-recovery exercise: spawn a *child* daemon process with a
/// journal, stream deltas at it, `kill -9` it mid-session, restart it
/// over the same journal, and verify (a) a client reconnects with
/// capped exponential backoff and re-issues its subscription, and
/// (b) the replayed session answers the watched query byte-identically
/// (modulo timing stats) to the pre-crash one, with `health` reporting
/// a clean replay.
fn smoke_reconnect() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pid = std::process::id();
    let socket = std::env::temp_dir().join(format!("aalwinesd-reconnect-{pid}.sock"));
    let journal = std::env::temp_dir().join(format!("aalwinesd-reconnect-{pid}.journal"));
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&journal);

    let spawn = || {
        std::process::Command::new(&exe)
            .arg("--socket")
            .arg(&socket)
            .arg("--journal")
            .arg(&journal)
            .arg("--demo")
            .spawn()
            .map_err(|e| format!("spawn: {e}"))
    };
    let budget = Duration::from_secs(10);

    let mut child = spawn()?;
    let result = (|| {
        let mut updates = Vec::new();
        let q = "<ip> [.#v0] .* [v3#.] <ip> 0";
        let mut c = SmokeClient::connect_with_backoff(&socket, budget)?;
        c.roundtrip(
            &format!(r#"{{"verb":"subscribe","query":"{q}"}}"#),
            "subscribed",
            &mut updates,
        )?;
        for l in [0, 2] {
            c.roundtrip(
                &format!(r#"{{"verb":"delta","delta":{{"kind":"link-down","link":{l}}}}}"#),
                "delta-report",
                &mut updates,
            )?;
        }
        let before = strip_stats(c.roundtrip(
            &format!(r#"{{"verb":"query","query":"{q}"}}"#),
            "answer",
            &mut updates,
        )?);

        // The crash: SIGKILL, no warning, mid-stream.
        child.kill().map_err(|e| format!("kill: {e}"))?;
        child.wait().map_err(|e| format!("wait: {e}"))?;
        let _ = std::fs::remove_file(&socket); // the child never got to clean up
        child = spawn()?;

        // The client notices the dead connection and recovers: backoff
        // reconnect, then re-issue the subscription.
        if c.roundtrip(r#"{"verb":"stats"}"#, "session-stats", &mut updates)
            .is_ok()
        {
            return Err("request succeeded over a connection to a killed daemon".to_string());
        }
        let mut c = SmokeClient::connect_with_backoff(&socket, budget)?;
        c.roundtrip(
            &format!(r#"{{"verb":"subscribe","query":"{q}"}}"#),
            "subscribed",
            &mut updates,
        )?;

        let after = strip_stats(c.roundtrip(
            &format!(r#"{{"verb":"query","query":"{q}"}}"#),
            "answer",
            &mut updates,
        )?);
        if before.to_json() != after.to_json() {
            return Err(format!(
                "replayed answer differs:\n  before: {}\n  after:  {}",
                before.to_json(),
                after.to_json()
            ));
        }

        let health = c.roundtrip(r#"{"verb":"health"}"#, "health", &mut updates)?;
        let replay = health
            .get("replay")
            .ok_or("health payload lacks 'replay'")?;
        if replay.get("clean") != Some(&Value::Bool(true)) {
            return Err(format!("replay not clean: {}", health.to_json()));
        }
        if health.get("journal").and_then(|j| j.get("enabled")) != Some(&Value::Bool(true)) {
            return Err(format!("journal not enabled: {}", health.to_json()));
        }

        c.roundtrip(r#"{"verb":"shutdown"}"#, "bye", &mut updates)?;
        Ok(())
    })();

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&journal);
    result
}
