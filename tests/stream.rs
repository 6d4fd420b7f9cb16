//! End-to-end coverage of the streaming batch driver: the CLI `--stdin`
//! path (per-line error isolation, ordering, exit codes), the
//! bounded-window guarantee on a 100k-query synthetic stream, and a
//! streamed-vs-batch differential.

use aalwines::{Outcome, SessionBuilder, StreamEvent, StreamOptions, Witness};
use query::parse_query;
use std::io::Write;
use std::process::{Command, Stdio};

const DEMO_QUERIES: [&str; 6] = [
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
    "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
    "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
    "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
    "<ip> [.#v3] .* [v0#.] <ip> 2",
];

/// Run the `aalwines` binary with `args`, feeding `stdin`; returns
/// (exit code, stdout, stderr).
fn run_cli(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aalwines"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aalwines");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait aalwines");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_stdin_isolates_bad_lines_and_preserves_order() {
    let stdin = format!(
        "{}\nthis is garbage\n# a comment\n\n{}\nalso ] not a query\n{}\n",
        DEMO_QUERIES[0], DEMO_QUERIES[5], DEMO_QUERIES[2]
    );
    let (code, stdout, stderr) = run_cli(&["--demo", "--stdin", "--json"], &stdin);

    // Two bad lines: the whole run exits 1 (input error), but every
    // line — good and bad — still got its own answer, in input order.
    assert_eq!(code, 1, "parse errors must exit non-zero\nstderr: {stderr}");
    assert!(stderr.contains("2 queries failed to parse"), "{stderr}");

    let answers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"kind\":\"answer\""))
        .collect();
    assert_eq!(
        answers.len(),
        5,
        "one answer per non-comment line\n{stdout}"
    );
    let expect = [
        (DEMO_QUERIES[0], false),
        ("this is garbage", true),
        (DEMO_QUERIES[5], false),
        ("also ] not a query", true),
        (DEMO_QUERIES[2], false),
    ];
    for (line, (query, is_error)) in answers.iter().zip(expect) {
        assert!(
            line.contains(&format!("\"query\":\"{query}\"")),
            "order violated: expected {query} in {line}"
        );
        assert_eq!(
            line.contains("\"result\":\"error\""),
            is_error,
            "wrong error flag for {query}: {line}"
        );
    }
    let summary = stdout
        .lines()
        .find(|l| l.contains("\"kind\":\"stream-summary\""))
        .expect("stream summary envelope");
    assert!(summary.contains("\"parseErrors\":2"), "{summary}");
}

#[test]
fn cli_stdin_all_good_exits_by_conclusiveness() {
    let stdin = format!("{}\n{}\n", DEMO_QUERIES[0], DEMO_QUERIES[5]);
    let (code, stdout, _) = run_cli(&["--demo", "--stdin", "--json"], &stdin);
    assert_eq!(code, 0, "conclusive answers exit 0\n{stdout}");
}

#[test]
fn cli_cache_flags_conflict_is_usage_error() {
    // Both orders: the old behavior silently kept whichever flag came
    // last, so check the conflict is order-independent now.
    for args in [
        &["--demo", "--no-cache", "--cache-size", "4"][..],
        &["--demo", "--cache-size", "4", "--no-cache"][..],
    ] {
        let mut with_query = args.to_vec();
        with_query.extend(["--query", DEMO_QUERIES[0]]);
        let (code, _, stderr) = run_cli(&with_query, "");
        assert_eq!(code, 1, "conflict must be a usage error: {args:?}");
        assert!(
            stderr.contains("--no-cache conflicts with --cache-size"),
            "{stderr}"
        );
    }
}

#[test]
fn cli_unknown_flags_are_usage_errors() {
    // The removed `--sat-threads` and a misspelt flag must each fail
    // instead of silently running with defaults.
    for (args, flag) in [
        (&["--demo", "--sat-threads", "2"][..], "--sat-threads"),
        (&["--demo", "--stat"][..], "--stat"),
    ] {
        let mut with_query = args.to_vec();
        with_query.extend(["--query", DEMO_QUERIES[0]]);
        let (code, stdout, stderr) = run_cli(&with_query, "");
        assert_eq!(code, 1, "{args:?} must be a usage error\nstderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
        assert!(stderr.contains("usage: aalwines"), "{stderr}");
        assert!(stdout.is_empty(), "nothing may run: {stdout}");
    }
}

#[test]
fn bounded_window_on_100k_query_stream() {
    // 100k query texts cycling the demo suite: long enough that any
    // collect-the-stream implementation would be obvious, cheap enough
    // (construction-cache hits after the first six) to run in-tier.
    let net = aalwines::examples::paper_network();
    let session = SessionBuilder::new().threads(4).open(net);
    const N: usize = 100_000;
    const WINDOW: usize = 8;
    let lines = (0..N).map(|i| DEMO_QUERIES[i % DEMO_QUERIES.len()].to_string());

    let mut next = 0usize;
    let stream = StreamOptions::new().with_window(WINDOW);
    let summary = session.verify_stream(lines, &stream, &mut |ev| {
        if let StreamEvent::Answer { index, .. } = ev {
            assert_eq!(index, next, "answers must arrive in input order");
            next += 1;
        }
    });
    assert_eq!(next, N);
    assert_eq!(summary.batch.total, N);
    assert_eq!(summary.parse_errors, 0);
    assert!(
        summary.peak_in_flight <= WINDOW,
        "in-flight peak {} exceeded the configured window {WINDOW}",
        summary.peak_in_flight
    );
    assert!(summary.peak_in_flight >= 1);
}

/// Canonical answer rendering with timing stats stripped: outcome,
/// witness trace, sorted failed-link set, weight.
fn canonical(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Satisfied(w) => {
            let Witness {
                trace,
                failed_links,
                weight,
            } = w.as_ref();
            let mut links: Vec<usize> = failed_links.iter().map(|l| l.index()).collect();
            links.sort_unstable();
            format!("Satisfied(trace={trace:?}, failed={links:?}, weight={weight:?})")
        }
        other => format!("{other:?}"),
    }
}

#[test]
fn streamed_answers_match_batch_answers() {
    // 1k-query differential: the streaming driver must answer exactly
    // what the batch driver answers, query for query, modulo timing.
    let topo = topogen::zoo_like(&topogen::ZooConfig {
        routers: 24,
        avg_degree: 3.0,
        seed: 0xD1FF,
    });
    let dp = topogen::build_mpls_dataplane(
        topo,
        &topogen::LspConfig {
            edge_routers: 6,
            max_pairs: 30,
            protect: true,
            service_chains: 40,
            seed: 0xD1FE,
        },
    );
    let texts = topogen::queries::figure4_queries(&dp, 1000, 0xD1FD);
    let parsed: Vec<query::Query> = texts
        .iter()
        .map(|t| parse_query(t).expect("generated queries parse"))
        .collect();

    let batch_session = SessionBuilder::new().threads(2).open(dp.net.clone());
    let batch: Vec<String> = batch_session
        .verify_batch(&parsed)
        .iter()
        .map(|a| canonical(&a.outcome))
        .collect();

    let stream_session = SessionBuilder::new().threads(2).open(dp.net.clone());
    let mut streamed = Vec::with_capacity(texts.len());
    stream_session.verify_stream(
        texts.iter().cloned(),
        &StreamOptions::new().with_window(16),
        &mut |ev| {
            if let StreamEvent::Answer { answer, .. } = ev {
                streamed.push(canonical(&answer.outcome));
            }
        },
    );
    assert_eq!(streamed.len(), batch.len());
    for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
        assert_eq!(s, b, "query {i} ({})", texts[i]);
    }
}
