#!/usr/bin/env bash
# Full verification flow, in the order a reviewer should trust it:
# release build, lint wall, then the whole test suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> fault-injection smoke (seeded failures must not beat the fault-free time)"
# A seeded replay with stragglers + a tiny MTBF: it must inject real
# failures, and the wall time must never undercut the fault-free run.
smoke=$(./target/release/amped simulate --model mingpt-85m --accel v100 \
    --per-node 8 --pp 2 --dp 4 --batch 64 --batches 2000 \
    --seed 7 --stragglers 2x1.8 --mtbf 0.05)
total=$(printf '%s\n' "$smoke" | sed -n 's/^fault-injected run (seed 7): \([0-9.]*\) s.*/\1/p')
fault_free=$(printf '%s\n' "$smoke" | sed -n 's/.*fault-free: \([0-9.]*\) s.*/\1/p')
failures=$(printf '%s\n' "$smoke" | sed -n 's/.*failures: \([0-9]*\).*/\1/p')
awk -v t="$total" -v f="$fault_free" -v n="$failures" 'BEGIN {
    if (t == "" || f == "" || n + 0 < 1 || t + 0 < f + 0) {
        printf "sim smoke failed: total=%s fault_free=%s failures=%s\n", t, f, n; exit 1
    }
    printf "sim smoke ok: %d failures, %.1fs >= fault-free %.1fs\n", n, t, f
}'

# The analytical expectation obeys the same law.
report=$(./target/release/amped resilience --model mingpt-85m --accel v100 \
    --per-node 8 --pp 2 --dp 4 --batch 64 --batches 2000 --mtbf 100 --json)
fault_free=$(printf '%s' "$report" | tr ',{' '\n\n' | sed -n 's/.*"fault_free_s": *\([0-9.eE+-]*\).*/\1/p' | head -1)
expected=$(printf '%s' "$report" | tr ',{' '\n\n' | sed -n 's/.*"expected_s": *\([0-9.eE+-]*\).*/\1/p' | head -1)
awk -v e="$expected" -v f="$fault_free" 'BEGIN {
    if (e == "" || f == "" || e + 0 < f + 0) {
        printf "resilience smoke failed: expected_s=%s fault_free_s=%s\n", e, f; exit 1
    }
    printf "resilience smoke ok: expected %.1fs >= fault-free %.1fs\n", e, f
}'

echo "==> observability smoke (metrics + trace JSON must parse and reconcile)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
./target/release/amped search --model mingpt-85m --accel v100 \
    --nodes 2 --per-node 4 --batch 64 --top 3 \
    --trace-out "$obs_dir/trace.json" --metrics-out "$obs_dir/metrics.json" > /dev/null
cargo run -q --release --example validate_metrics -- \
    "$obs_dir/metrics.json" "$obs_dir/trace.json"

echo "==> training-search smoke (--prune --memory-filter: reproducible, same winner)"
# The pruned search is a function of its input: two runs render the same
# bytes, rejections included, and pruning keeps the unpruned winner.
train_search="./target/release/amped search --model mingpt-85m --accel v100 \
    --nodes 2 --per-node 4 --batch 64 --top 5 --memory-filter --json"
$train_search --prune > "$obs_dir/search_pruned_1.json"
$train_search --prune > "$obs_dir/search_pruned_2.json"
$train_search > "$obs_dir/search_full.json"
cmp "$obs_dir/search_pruned_1.json" "$obs_dir/search_pruned_2.json" \
    || { echo "search smoke failed: pruned output differs run to run"; exit 1; }
python3 - "$obs_dir/search_pruned_1.json" "$obs_dir/search_full.json" <<'EOF'
import json, sys
pruned, full = (json.load(open(p)) for p in sys.argv[1:])
assert pruned["rows"] and pruned["rows"][0] == full["rows"][0], "pruning changed the winner"
assert pruned["memory_rejected"] == full["memory_rejected"], "pruning changed the rejections"
EOF
echo "search smoke ok: pruned output reproducible, winner and rejections kept"

echo "==> serve smoke (daemon on an ephemeral port, one request per endpoint)"
# Start the daemon on port 0, parse the listening line for the real port,
# drive every endpoint through the raw-socket example client (no curl),
# re-parse each JSON response, then take it down with SIGINT and require a
# clean exit.
cargo build -q --release --example serve_client
serve_dir=$(mktemp -d)
cat > "$serve_dir/scenario.json" <<'EOF'
{
  "model": { "preset": "mingpt-85m" },
  "accelerator": { "preset": "v100" },
  "system": { "nodes": 2, "accels_per_node": 4,
              "intra_gbps": 2400.0, "inter_gbps": 100.0, "nics_per_node": 1 },
  "parallelism": { "dp": [4, 2] },
  "training": { "global_batch": 64, "num_batches": 10 },
  "resilience": { "node_mtbf_hours": 1000.0 }
}
EOF
./target/release/amped serve --port 0 --jobs 2 \
    --access-log "$serve_dir/access.log" > "$serve_dir/serve.log" &
serve_pid=$!
trap 'rm -rf "$obs_dir" "$serve_dir"; kill "$serve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^amped-serve listening on \(.*\)$/\1/p' "$serve_dir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.05
done
[ -n "$addr" ] || { echo "serve smoke failed: no listening line"; exit 1; }

client=./target/release/examples/serve_client
scenario="$serve_dir/scenario.json"
$client "$addr" GET  /v1/health                > "$serve_dir/health.json"
$client "$addr" POST /v1/estimate  "$scenario" > "$serve_dir/estimate.json"
$client "$addr" POST "/v1/search?top=3" "$scenario" > "$serve_dir/search.json"
$client "$addr" POST /v1/recommend "$scenario" > "$serve_dir/recommend.json"
$client "$addr" POST /v1/sweep "$scenario" > "$serve_dir/sweep.csv"
$client "$addr" POST /v1/resilience "$scenario" > "$serve_dir/resilience.json"
$client "$addr" GET  /v1/metrics               > "$serve_dir/metrics.json"
$client "$addr" GET  /v1/schema                > "$serve_dir/schema.json"

# HTTP/1.1 keep-alive: two requests over one connection, both answered
# 200, with no reconnect in between (an independent client: Python's
# http.client drops its socket whenever the server closes).
python3 - "$addr" "$scenario" <<'EOF'
import http.client, sys
host, port = sys.argv[1].rsplit(":", 1)
body = open(sys.argv[2]).read()
conn = http.client.HTTPConnection(host.strip("[]"), int(port), timeout=30)
socks = []
for method, path, payload in [("POST", "/v1/estimate", body), ("GET", "/v1/health", None)]:
    conn.request(method, path, body=payload)
    resp = conn.getresponse()
    data = resp.read()
    assert resp.status == 200, (path, resp.status, data[:200])
    assert conn.sock is not None, f"{path}: server closed the connection"
    socks.append(conn.sock)
assert socks[0] is socks[1], "client reconnected between requests"
conn.close()
print("keep-alive smoke ok: two 200s over one connection")
EOF

echo "==> chaos smoke (correlated-outage scenario: CLI and daemon answer identical bytes)"
# The spot-elastic fixture carries a failure_domains section (rack tree,
# preemption, elastic regrow); the versioned resilience artifact must come
# out of `amped resilience --json` and POST /v1/resilience byte-identical.
chaos=tests/fixtures/spot-elastic.json
chaos_cli=$(./target/release/amped resilience --json --config "$chaos")
chaos_serve=$($client "$addr" POST /v1/resilience "$chaos")
[ "$chaos_cli" = "$chaos_serve" ] \
    || { echo "chaos smoke failed: CLI and serve artifacts differ"; \
         printf '%s\n' "$chaos_cli" > "$serve_dir/chaos_cli.json"; \
         printf '%s\n' "$chaos_serve" > "$serve_dir/chaos_serve.json"; \
         diff "$serve_dir/chaos_cli.json" "$serve_dir/chaos_serve.json" | head -20; exit 1; }
printf '%s' "$chaos_serve" | grep -q '"correlated"' \
    || { echo "chaos smoke failed: no correlated section in the artifact"; exit 1; }
printf '%s\n' "$chaos_serve" | head -2 | grep -q '"schema_version"' \
    || { echo "chaos smoke failed: artifact does not lead with schema_version"; exit 1; }
echo "chaos smoke ok: correlated artifact byte-identical across front-ends"

echo "==> infer smoke (serving fixture: CLI and daemon answer identical bytes)"
# Both shipped inference fixtures must price through `amped infer --json`
# and POST /v1/infer byte-identically, lead with schema_version, and keep
# the serving-mapping search bit-identical with pruning on or off.
for fixture in tests/fixtures/infer-dev-small.json tests/fixtures/infer-llama-serve.json; do
    infer_cli=$(./target/release/amped infer --json --config "$fixture")
    infer_serve=$($client "$addr" POST /v1/infer "$fixture")
    [ "$infer_cli" = "$infer_serve" ] \
        || { echo "infer smoke failed: CLI and serve artifacts differ for $fixture"; \
             printf '%s\n' "$infer_cli" > "$serve_dir/infer_cli.json"; \
             printf '%s\n' "$infer_serve" > "$serve_dir/infer_serve.json"; \
             diff "$serve_dir/infer_cli.json" "$serve_dir/infer_serve.json" | head -20; exit 1; }
    printf '%s\n' "$infer_serve" | head -2 | grep -q '"schema_version"' \
        || { echo "infer smoke failed: artifact does not lead with schema_version"; exit 1; }
    printf '%s' "$infer_serve" | grep -q '"kv_cache_bytes"' \
        || { echo "infer smoke failed: no KV-cache accounting in the artifact"; exit 1; }
done
serve_fixture=tests/fixtures/infer-llama-serve.json
./target/release/amped search --workload infer --json --top 5 \
    --config "$serve_fixture" > "$serve_dir/serving_full.json"
./target/release/amped search --workload infer --json --top 5 --prune \
    --config "$serve_fixture" > "$serve_dir/serving_pruned.json"
cmp "$serve_dir/serving_full.json" "$serve_dir/serving_pruned.json" \
    || { echo "infer smoke failed: serving search depends on pruning"; exit 1; }
for query in "workload=infer&top=5" "workload=infer&top=5&prune=true"; do
    serving_serve=$($client "$addr" POST "/v1/search?$query" "$serve_fixture")
    [ "$serving_serve" = "$(cat "$serve_dir/serving_full.json")" ] \
        || { echo "infer smoke failed: /v1/search?$query differs from the CLI"; exit 1; }
done
echo "infer smoke ok: serving artifacts byte-identical across front-ends and pruning"

# Every JSON response must re-parse; the sweep is CSV with a winners line.
python3 - "$serve_dir" <<'EOF'
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
for name in ["health", "estimate", "search", "recommend", "resilience", "metrics"]:
    doc = json.loads((d / f"{name}.json").read_text())
    assert doc, f"{name}: empty document"
assert json.loads((d / "health.json").read_text())["status"] == "ok"
search = json.loads((d / "search.json").read_text())
assert "days" in search["rows"][0]
assert set(search["memory_rejected"]) == {
    "total", "weights", "gradients", "optimizer", "activations"
}, search["memory_rejected"]
counters = json.loads((d / "metrics.json").read_text())["counters"]
assert counters["serve.requests.received"] >= 5, counters
sweep = (d / "sweep.csv").read_text()
assert sweep.startswith("batch,") and "winners:" in sweep, sweep
print("serve smoke responses ok")
EOF

echo "==> schema smoke (every shipped scenario file validates against /v1/schema)"
# The live daemon's schema document must accept every scenario JSON the
# repo ships: the example scenario and every test fixture. The validator
# below is deliberately independent of the Rust one — same tables, second
# implementation — so a schema/validator drift fails CI from either side.
python3 - "$serve_dir/schema.json" examples/scenario.json tests/fixtures/*.json <<'EOF'
import json, sys

schema = json.load(open(sys.argv[1]))
assert schema["schema_version"], "schema has no version"
sections = schema["scenario"]

CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "pair": lambda v: isinstance(v, list) and len(v) == 2,
    "object": lambda v: isinstance(v, dict),
}

def check_fields(path, body, fields):
    specs = {f["name"]: f for f in fields}
    for key, value in body.items():
        spec = specs.get(key)
        assert spec is not None, f"{path}.{key}: unknown field"
        if value is None:
            assert spec["nullable"], f"{path}.{key}: not nullable"
            continue
        if spec["type"] == "object" and "fields" in spec:
            assert isinstance(value, dict), f"{path}.{key}: expected object"
            check_fields(f"{path}.{key}", value, spec["fields"])
        else:
            assert CHECKS[spec["type"]](value), f"{path}.{key}: bad {spec['type']}: {value!r}"

for path in sys.argv[2:]:
    doc = json.load(open(path))
    assert isinstance(doc, dict), f"{path}: root must be an object"
    for name, body in doc.items():
        spec = sections.get(name)
        assert spec is not None, f"{path}: unknown section `{name}`"
        if body is None:
            assert not spec["required"], f"{path}.{name}: required section is null"
            continue
        if "type" in spec:  # scalar section
            assert CHECKS[spec["type"]](body), f"{path}.{name}: bad {spec['type']}: {body!r}"
        elif isinstance(body, dict) and set(body) == {"preset"}:
            assert body["preset"] in spec.get("presets", []), \
                f"{path}.{name}: unknown preset {body['preset']!r}"
        else:
            assert isinstance(body, dict), f"{path}.{name}: expected object"
            check_fields(f"{path}.{name}", body, spec["fields"])
print(f"schema smoke ok: {len(sys.argv) - 2} scenario file(s) validate")
EOF

echo "==> telemetry smoke (loadtest report, Prometheus exposition, access log)"
# A small load test against the live daemon must produce a valid
# BENCH_serve.json (schema_version stamped first, per-endpoint p50/p99,
# request rate, cache hit rate from real counter deltas).
./target/release/amped loadtest --addr "$addr" --clients 3 --requests 4 \
    --out "$serve_dir/BENCH_serve.json" > "$serve_dir/loadtest.log"
grep -q 'serve.loadtest' "$serve_dir/BENCH_serve.json" \
    || { echo "telemetry smoke failed: no loadtest report"; exit 1; }
python3 - "$serve_dir/BENCH_serve.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert list(doc)[0] == "schema_version", "schema_version must be the first key"
assert doc["benchmark"] == "serve.loadtest", doc["benchmark"]
assert doc["requests"] == doc["clients"] * doc["requests_per_client"] == 12, doc
assert doc["req_per_sec"] > 0 and doc["duration_s"] > 0, doc
assert doc["error_rate"] == 0.0, f"loadtest saw errors: {doc['status']}"
assert 0.0 <= doc["cache"]["hit_rate"] <= 1.0, doc["cache"]
endpoints = doc["endpoints"]
assert set(endpoints) == {"estimate", "search", "sweep", "resilience"}, set(endpoints)
for name, h in endpoints.items():
    assert h["count"] == 3, f"{name}: {h}"
    assert h["min"] <= h["p50"] <= h["p99"] <= h["max"], f"{name}: {h}"
    assert h["sum"] >= h["count"] * h["min"], f"{name}: {h}"
print("telemetry smoke: BENCH_serve.json ok "
      f"({doc['req_per_sec']:.1f} req/s, cache hit rate {doc['cache']['hit_rate']:.2f})")
EOF

# The Prometheus exposition must satisfy the text-format contract. The
# checker below is deliberately independent of the Rust renderer: names,
# TYPE lines, and for every histogram le-monotonicity, cumulative
# non-decreasing counts, and +Inf == _count.
$client "$addr" GET "/v1/metrics?format=prometheus" > "$serve_dir/metrics.prom"
python3 - "$serve_dir/metrics.prom" <<'EOF'
import re, sys
NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? (\S+)$')
types, samples, buckets = {}, [], {}
for line in open(sys.argv[1]).read().splitlines():
    if not line:
        continue
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ")
        assert NAME.match(name), f"bad metric name: {name}"
        assert kind in {"counter", "gauge", "histogram"}, line
        assert name not in types, f"duplicate TYPE for {name}"
        types[name] = kind
        continue
    assert not line.startswith("#"), f"unexpected comment: {line}"
    m = LINE.match(line)
    assert m, f"unparseable sample line: {line!r}"
    name, _, le, value = m.groups()
    value = float(value)
    samples.append(name)
    if le is not None:
        assert name.endswith("_bucket"), line
        buckets.setdefault(name[: -len("_bucket")], []).append((le, value))
for base, rows in buckets.items():
    assert types.get(base) == "histogram", f"{base}: buckets without histogram TYPE"
    les = [le for le, _ in rows]
    assert les[-1] == "+Inf", f"{base}: last bucket must be +Inf"
    bounds = [float(le) for le in les[:-1]]
    assert bounds == sorted(bounds), f"{base}: le bounds not sorted"
    counts = [v for _, v in rows]
    assert counts == sorted(counts), f"{base}: cumulative counts decrease"
for base, kind in types.items():
    if kind != "histogram":
        continue
    assert base in buckets, f"{base}: histogram with no buckets"
    assert f"{base}_sum" in samples and f"{base}_count" in samples, base
hist = [b for b, k in types.items() if k == "histogram"]
assert any(b.startswith("serve_http_") for b in hist), hist
print(f"telemetry smoke: prometheus ok ({len(types)} series, {len(hist)} histograms)")
EOF

# +Inf == _count cross-check needs the actual values; do it with a second
# pass keyed on names.
python3 - "$serve_dir/metrics.prom" <<'EOF'
import sys
values = {}
inf = {}
for line in open(sys.argv[1]).read().splitlines():
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    if 'le="+Inf"' in name:
        inf[name.split("{")[0][: -len("_bucket")]] = float(value)
    elif "{" not in name:
        values[name] = float(value)
for base, total in inf.items():
    assert values.get(f"{base}_count") == total, \
        f"{base}: +Inf bucket {total} != _count {values.get(base + '_count')}"
print(f"telemetry smoke: +Inf == _count for {len(inf)} histograms")
EOF

# Every access-log line is one JSON object naming the request.
python3 - "$serve_dir/access.log" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert len(lines) >= 12, f"expected at least the loadtest's requests, got {len(lines)}"
for line in lines:
    entry = json.loads(line)
    assert set(entry) == {"method", "endpoint", "status", "bytes",
                          "queue_us", "handler_us"}, entry
    assert entry["status"] in range(100, 600), entry
print(f"telemetry smoke: access log ok ({len(lines)} entries)")
EOF

# SIGINT wakes the blocked accept through the signal watcher; the daemon
# must print its summary and exit within 2 s.
sigint_start=$(date +%s%N)
kill -INT "$serve_pid"
wait "$serve_pid" || { echo "serve smoke failed: non-zero exit on SIGINT"; exit 1; }
sigint_ms=$(( ($(date +%s%N) - sigint_start) / 1000000 ))
grep -q 'amped-serve: served' "$serve_dir/serve.log" \
    || { echo "serve smoke failed: no shutdown summary"; cat "$serve_dir/serve.log"; exit 1; }
[ "$sigint_ms" -le 2000 ] \
    || { echo "serve smoke failed: SIGINT shutdown took ${sigint_ms} ms (limit 2000)"; exit 1; }
echo "serve smoke ok: $(sed -n 's/^amped-serve: //p' "$serve_dir/serve.log") (SIGINT to exit: ${sigint_ms} ms)"

echo "ci: all green"
