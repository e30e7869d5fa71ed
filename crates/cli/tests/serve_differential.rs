//! Differential test: server responses are byte-identical to the CLI.
//!
//! For every compute endpoint, the body answered by an in-process
//! `amped-serve` server must equal — byte for byte — the stdout of the
//! equivalent `amped` CLI invocation (minus the trailing newline
//! `println!` appends). Both front-ends are transports over one operation
//! layer, `amped_serve::ops`; these tests pin what the transports add on
//! top of it (flag vs query-parameter reading, `--config` vs request
//! body, error rendering) at any worker count and any cache warmth.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;

use amped_serve::{ServeConfig, Server};

/// The small fixture: quick to price, still exercises multi-node search.
const SMALL: &str = r#"{
    "model": { "preset": "mingpt-85m" },
    "accelerator": { "preset": "v100" },
    "system": { "nodes": 2, "accels_per_node": 4,
                "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
    "parallelism": { "dp": [4, 2] },
    "training": { "global_batch": 64, "num_batches": 10 },
    "resilience": { "node_mtbf_hours": 1000.0 }
}"#;

/// The paper's flagship scenario: megatron-145b on a real cluster shape,
/// with recomputation on (exercising the engine-options plumbing).
const MEGATRON: &str = r#"{
    "model": { "preset": "megatron-145b" },
    "accelerator": { "preset": "a100" },
    "system": { "nodes": 16, "accels_per_node": 8,
                "intra_gbps": 2400.0, "inter_gbps": 200.0, "nics_per_node": 8 },
    "parallelism": { "tp": [8, 1], "pp": [1, 8], "dp": [1, 2], "microbatches": 16 },
    "training": { "global_batch": 1024, "num_batches": 100 },
    "precision_bits": 16,
    "activation_recompute": true
}"#;

/// The correlated-failure fixture: a rack/pod tree plus spot preemption
/// over the SMALL-style base, exercising the `failure_domains` section
/// end to end (placement enumerator, elastic recovery, versioned
/// artifact) through both front-ends.
const DOMAINS: &str = r#"{
    "model": { "preset": "mingpt-85m" },
    "accelerator": { "preset": "v100" },
    "system": { "nodes": 8, "accels_per_node": 1,
                "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
    "parallelism": { "dp": [1, 4], "pp": [1, 2] },
    "training": { "global_batch": 64, "num_batches": 10 },
    "resilience": { "node_mtbf_hours": 1000.0 },
    "failure_domains": { "shape": [2, 2], "rack_mtbf_hours": 720.0,
                         "preemption_mtbf_hours": 168.0, "regrow_delay_s": 300.0 }
}"#;

/// The serving fixture: LLaMA-65B from one TP=8 node with a quantized KV
/// cache, exercising the `inference` section and `/v1/infer` end to end.
const INFER: &str = r#"{
    "model": { "preset": "llama-65b" },
    "accelerator": { "preset": "a100" },
    "system": { "nodes": 1, "accels_per_node": 8,
                "intra_gbps": 2400.0, "inter_gbps": 200.0, "nics_per_node": 8 },
    "parallelism": { "tp": [8, 1] },
    "training": { "global_batch": 8, "num_batches": 1 },
    "inference": { "prompt_tokens": 1024, "decode_tokens": 256,
                   "batch": 8, "kv_bits": 8 }
}"#;

fn write_scenario(name: &str, body: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("amped-serve-differential");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

/// Run the real `amped` binary and return its stdout (trailing newline
/// stripped — `main` prints the command output with `println!`).
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_amped"))
        .args(args)
        .output()
        .expect("amped binary runs");
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("CLI stdout is UTF-8");
    stdout
        .strip_suffix('\n')
        .map(String::from)
        .unwrap_or(stdout)
}

/// Run the real `amped` binary expecting failure; return the typed error
/// message (stderr minus the `error: ` prefix `main` prints) and assert
/// the usage exit code.
fn cli_failure(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_amped"))
        .args(args)
        .output()
        .expect("amped binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "amped {} should exit 2 (usage)",
        args.join(" ")
    );
    let stderr = String::from_utf8(out.stderr).expect("CLI stderr is UTF-8");
    stderr
        .strip_prefix("error: ")
        .expect("CLI errors start with `error: `")
        .trim_end_matches('\n')
        .to_string()
}

/// Send one request on a fresh connection that asks the server to close
/// after answering (so EOF frames the response); return `(status, payload)`.
fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, payload) = raw.split_once("\r\n\r\n").expect("response has body");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("response has a status line");
    (status, payload.to_string())
}

/// POST a scenario at a server and return the 200 body.
fn post(addr: SocketAddr, target: &str, body: &str) -> String {
    let (status, payload) = request(addr, "POST", target, body);
    assert_eq!(status, 200, "{target} did not answer 200:\n{payload}");
    payload
}

/// The `error` field of a JSON error response.
fn error_message(payload: &str) -> String {
    let doc: serde_json::Value = serde_json::from_str(payload).expect("error body is JSON");
    doc.get("error")
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no `error` field in {payload}"))
        .to_string()
}

/// Bind an in-process server on an ephemeral port.
fn start_server() -> (
    SocketAddr,
    amped_serve::ServerHandle,
    std::thread::JoinHandle<amped_core::Result<amped_serve::ServeSummary>>,
) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue_depth: 16,
        timeout_ms: 600_000,
        handle_sigint: false,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

#[test]
fn server_responses_are_byte_identical_to_the_cli() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 3, // deliberately not the CLI's default: identity must not depend on it
        queue_depth: 16,
        timeout_ms: 600_000,
        handle_sigint: false,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let small = write_scenario("small.json", SMALL);
    let megatron = write_scenario("megatron.json", MEGATRON);
    let domains = write_scenario("domains.json", DOMAINS);
    let infer = write_scenario("infer.json", INFER);
    let empty = write_scenario("empty.json", "{}");
    let cases: &[(&str, &str, &std::path::Path, &[&str])] = &[
        // (endpoint+query, body, config path, extra CLI flags)
        ("/v1/estimate", SMALL, &small, &["estimate", "--json"]),
        ("/v1/estimate", MEGATRON, &megatron, &["estimate", "--json"]),
        // The serving estimate, from a scenario file and with the
        // request shape overridden through the flag/parameter layer.
        ("/v1/infer", INFER, &infer, &["infer", "--json"]),
        (
            "/v1/infer?prompt=512&serve-batch=4&kv-bits=16",
            INFER,
            &infer,
            &[
                "infer",
                "--json",
                "--prompt",
                "512",
                "--serve-batch",
                "4",
                "--kv-bits",
                "16",
            ],
        ),
        // A serving estimate whose defaults come entirely from the
        // empty-section base both front-ends layer in.
        ("/v1/infer", SMALL, &small, &["infer", "--json"]),
        // The serving-mapping sweep, pruned and parallel — the ranking
        // contract says neither may change a byte.
        (
            "/v1/search?workload=infer&top=5&jobs=2&prune=true",
            INFER,
            &infer,
            &[
                "search",
                "--json",
                "--workload",
                "infer",
                "--top",
                "5",
                "--jobs",
                "2",
                "--prune",
            ],
        ),
        (
            "/v1/search?top=5&jobs=2",
            SMALL,
            &small,
            &["search", "--json", "--top", "5", "--jobs", "2"],
        ),
        (
            "/v1/search?top=3&prune=true&refine-sim=2",
            SMALL,
            &small,
            &["search", "--json", "--top", "3", "--prune", "--refine-sim", "2"],
        ),
        (
            "/v1/recommend?refine-sim=2",
            SMALL,
            &small,
            &["recommend", "--json", "--refine-sim", "2"],
        ),
        ("/v1/sweep?jobs=2", SMALL, &small, &["sweep", "--jobs", "2"]),
        (
            "/v1/sweep?jobs=2&json=true",
            SMALL,
            &small,
            &["sweep", "--jobs", "2", "--json"],
        ),
        ("/v1/resilience", SMALL, &small, &["resilience", "--json"]),
        // The correlated model: one scenario file, one `correlated`
        // artifact section, byte-identical across front-ends.
        ("/v1/resilience", DOMAINS, &domains, &["resilience", "--json"]),
        // Goodput ranking under failure domains, with the domain shape
        // arriving through the flag/parameter layer on both sides.
        (
            "/v1/search?top=4&jobs=2&goodput=1000&domains=2,2&rack-mtbf=500",
            SMALL,
            &small,
            &[
                "search",
                "--json",
                "--top",
                "4",
                "--jobs",
                "2",
                "--goodput",
                "1000",
                "--domains",
                "2,2",
                "--rack-mtbf",
                "500",
            ],
        ),
        // Recommend never prunes on either front-end, so the alternatives
        // and margin are the true runner-ups (on this shape a pruned
        // ranking drops one of them).
        (
            "/v1/recommend?model=mingpt-85m&accel=v100&nodes=4&per-node=2&batch=64&prune=true",
            "{}",
            &empty,
            &[
                "recommend",
                "--json",
                "--model",
                "mingpt-85m",
                "--accel",
                "v100",
                "--nodes",
                "4",
                "--per-node",
                "2",
                "--batch",
                "64",
                "--prune",
            ],
        ),
        (
            "/v1/recommend?goodput=1000&domains=2,2&rack-mtbf=500",
            SMALL,
            &small,
            &[
                "recommend",
                "--json",
                "--goodput",
                "1000",
                "--domains",
                "2,2",
                "--rack-mtbf",
                "500",
            ],
        ),
        // `goodput` given bare or as `=true` selects the default MTBF, as
        // the CLI's valueless `--goodput` does.
        (
            "/v1/search?goodput&top=3",
            SMALL,
            &small,
            &["search", "--json", "--goodput", "--top", "3"],
        ),
        (
            "/v1/search?goodput=true&top=3",
            SMALL,
            &small,
            &["search", "--json", "--goodput", "--top", "3"],
        ),
        (
            "/v1/search?memory-filter=true&top=5",
            SMALL,
            &small,
            &["search", "--json", "--memory-filter", "--top", "5"],
        ),
        (
            "/v1/estimate?backend=sim",
            SMALL,
            &small,
            &["estimate", "--json", "--backend", "sim"],
        ),
        (
            "/v1/sweep?backend=sim&jobs=2",
            SMALL,
            &small,
            &["sweep", "--backend", "sim", "--jobs", "2"],
        ),
    ];

    for (target, body, config, cli_args) in cases {
        // Twice: the second pass answers from a warm cache pool and must
        // not differ by a byte.
        let cold = post(addr, target, body);
        let warm = post(addr, target, body);
        assert_eq!(cold, warm, "{target}: warm cache changed the response");

        let mut args: Vec<&str> = cli_args.to_vec();
        let config = config.to_str().unwrap();
        args.extend_from_slice(&["--config", config]);
        let expected = cli(&args);
        assert_eq!(
            cold, expected,
            "{target} diverged from `amped {}`",
            args.join(" ")
        );
    }

    handle.shutdown();
    thread.join().unwrap().expect("clean shutdown");
}

#[test]
fn resolved_scenarios_and_schema_are_byte_identical_across_front_ends() {
    let (addr, handle, thread) = start_server();

    // Pure flags vs pure query parameters: one resolution pipeline, so
    // the provenance-annotated dumps must match byte for byte.
    let flags_dump = cli(&[
        "estimate",
        "--model",
        "gpt2-xl",
        "--accel",
        "h100",
        "--nodes",
        "4",
        "--per-node",
        "4",
        "--tp",
        "2,1",
        "--batch",
        "128",
        "--dump-resolved",
    ]);
    let params_dump = post(
        addr,
        "/v1/estimate?model=gpt2-xl&accel=h100&nodes=4&per-node=4&tp=2,1&batch=128&resolved=true",
        "{}",
    );
    assert_eq!(flags_dump, params_dump, "flags and query parameters resolved differently");

    // All four layers at once: defaults < preset < file/body < flags.
    let small = write_scenario("small-dump.json", SMALL);
    let layered_cli = cli(&[
        "resilience",
        "--preset",
        "dev-small",
        "--config",
        small.to_str().unwrap(),
        "--mtbf",
        "100",
        "--dump-resolved",
    ]);
    let layered_serve = post(addr, "/v1/resilience?preset=dev-small&mtbf=100&resolved=true", SMALL);
    assert_eq!(layered_cli, layered_serve, "layered resolution diverged");
    assert!(layered_cli.contains("\"schema_version\""));
    assert!(layered_cli.contains("\"provenance\""));

    // Every scenario endpoint honors the dump switch, even the
    // text-rendering sweep.
    let sweep_dump = post(addr, "/v1/sweep?resolved=true", SMALL);
    assert_eq!(
        sweep_dump,
        cli(&["sweep", "--config", small.to_str().unwrap(), "--dump-resolved"])
    );

    // The serving endpoint layers its empty-section base identically, so
    // the dump shows the `inference` defaults and flag overrides with the
    // same provenance either way.
    let infer = write_scenario("infer-dump.json", INFER);
    let infer_cli = cli(&[
        "infer",
        "--config",
        infer.to_str().unwrap(),
        "--decode",
        "64",
        "--dump-resolved",
    ]);
    let infer_serve = post(addr, "/v1/infer?decode=64&resolved=true", INFER);
    assert_eq!(infer_cli, infer_serve, "infer resolution diverged");
    assert!(infer_cli.contains("\"inference\""));
    assert!(infer_cli.contains("flags (--decode)"));

    // The self-describing schema is one document served twice, not two
    // documents.
    let (status, serve_schema) = request(addr, "GET", "/v1/schema", "");
    assert_eq!(status, 200);
    assert_eq!(cli(&["schema"]), serve_schema);

    handle.shutdown();
    thread.join().unwrap().expect("clean shutdown");
}

#[test]
fn histogram_tables_render_identically_across_front_ends() {
    let (addr, handle, thread) = start_server();

    // Warm the server with compute traffic so latency histograms exist,
    // then snapshot its run report.
    post(addr, "/v1/search?top=3&jobs=1", SMALL);
    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let serve_doc: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");

    // CLI side: the same run-report shape through `--metrics-out`.
    let small = write_scenario("hist-small.json", SMALL);
    let out = std::env::temp_dir()
        .join("amped-serve-differential")
        .join("hist-metrics.json");
    cli(&[
        "search",
        "--json",
        "--top",
        "3",
        "--jobs",
        "1",
        "--config",
        small.to_str().unwrap(),
        "--metrics-out",
        out.to_str().unwrap(),
    ]);
    let cli_doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).expect("run report JSON");

    // One shared renderer, one contract, both front-ends: rendering the
    // whole run report equals rendering its bare `histograms` section,
    // byte for byte.
    for doc in [&serve_doc, &cli_doc] {
        let whole = amped_report::histogram_table(doc).to_ascii();
        let section = amped_report::histogram_table(&doc["histograms"]).to_ascii();
        assert_eq!(whole, section, "wrapper changed the rendered bytes");
    }

    // The serve report carries real per-endpoint latency rows.
    let serve_table = amped_report::histogram_table(&serve_doc);
    assert!(
        serve_table.to_csv().contains("serve.http.search.us"),
        "{}",
        serve_table.to_csv()
    );

    // Identical summary content renders identical bytes no matter which
    // front end produced the surrounding document: graft the serve
    // section into a CLI-shaped wrapper and compare.
    let grafted = serde_json::json!({
        "command": "search",
        "histograms": serve_doc["histograms"].clone(),
    });
    assert_eq!(
        amped_report::histogram_table(&grafted).to_ascii(),
        serve_table.to_ascii()
    );

    handle.shutdown();
    thread.join().unwrap().expect("clean shutdown");
}

#[test]
fn validation_errors_are_byte_identical_across_front_ends() {
    let (addr, handle, thread) = start_server();
    let bad_field = r#"{ "system": { "nodez": 4 } }"#;
    let bad_file = write_scenario("bad-field.json", bad_field);
    let bad_file = bad_file.to_str().unwrap();

    let cases: &[(&[&str], &str, &str)] = &[
        // Unknown field in the file/body layer, attributed to its source.
        (&["estimate", "--config", bad_file], "/v1/estimate", bad_field),
        // Malformed value in the flag/parameter layer, naming the flag.
        (&["estimate", "--nodes", "lots"], "/v1/estimate?nodes=lots", "{}"),
        // Unknown scenario preset.
        (&["search", "--preset", "nope"], "/v1/search?preset=nope", "{}"),
        // Unknown model preset, caught at resolve time with provenance.
        (&["estimate", "--model", "nosuch"], "/v1/estimate?model=nosuch", "{}"),
        // Unknown search workload, rejected before any resolution.
        (
            &["search", "--workload", "batch"],
            "/v1/search?workload=batch",
            "{}",
        ),
        // A serving request shape the inference model refuses.
        (
            &["infer", "--prompt", "0"],
            "/v1/infer?prompt=0",
            "{}",
        ),
        // Execution parameters share one parser and one error spelling.
        (&["search", "--top", "lots"], "/v1/search?top=lots", "{}"),
        (&["search", "--goodput", "soon"], "/v1/search?goodput=soon", "{}"),
    ];
    for (cli_args, target, body) in cases {
        let expected = cli_failure(cli_args);
        let (status, payload) = request(addr, "POST", target, body);
        assert_eq!(status, 400, "{target}: expected 400, got {status}:\n{payload}");
        assert_eq!(
            error_message(&payload),
            expected,
            "{target} error diverged from `amped {}`",
            cli_args.join(" ")
        );
    }

    handle.shutdown();
    thread.join().unwrap().expect("clean shutdown");
}
