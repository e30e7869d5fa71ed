//! Seeded workload inputs. The seed drives every generator here; the
//! program under test only ever sees the scenario documents and HTTP
//! requests these functions produce.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per use by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Salts keeping each generator's stream independent of the others.
const SALT_TRAIN: u64 = 1;
const SALT_SERVING: u64 = 2;
const SALT_SCHEDULE: u64 = 3;
const SALT_MIXED_FRESH: u64 = 4;
/// Warm-up inputs come from a fixed stream, so set-up cost does not vary
/// with the workload seed.
const WARMUP_SEED: u64 = 0x5eed;

/// One search operation's input: a scenario document plus the execution
/// switches the CLI would take as flags.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchInput {
    /// `search --json` over a training scenario.
    Train {
        body: String,
        prune: bool,
        memory_filter: bool,
    },
    /// `search --workload infer --json` over a serving scenario.
    Serving {
        body: String,
        prune: bool,
        max_batch: usize,
    },
}

const TRAIN_MODELS: [&str; 7] = [
    "gpt3-175b",
    "megatron-145b",
    "megatron-310b",
    "megatron-530b",
    "megatron-1t",
    "llama-65b",
    "glam-64e",
];
const TRAIN_NODES: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// Distinct training scenarios per workload seed. Every (model, nodes)
/// stratum appears equally often, so a run's latency quantiles depend on
/// the seed only through the per-input draws, not through which models
/// happened to be picked.
pub const TRAIN_INPUTS: usize = TRAIN_MODELS.len() * TRAIN_NODES.len() * 24;

fn train_input(rng: &mut Rng, model: &str, nodes: usize) -> SearchInput {
    let batch = rng.pick(&[1024usize, 2048, 4096]);
    let recompute = rng.chance(0.5);
    SearchInput::Train {
        body: format!(
            r#"{{"model": {{"preset": "{model}"}}, "accelerator": {{"preset": "a100"}}, "system": {{"nodes": {nodes}, "accels_per_node": 8}}, "training": {{"global_batch": {batch}}}, "activation_recompute": {recompute}}}"#
        ),
        memory_filter: rng.chance(0.5),
        prune: rng.chance(0.25),
    }
}

/// The search-train inputs for `seed`, in the order the run visits them.
pub fn train_inputs(seed: u64) -> Vec<SearchInput> {
    stratified(
        Rng::new(seed, SALT_TRAIN),
        TRAIN_INPUTS,
        &TRAIN_MODELS,
        &TRAIN_NODES,
        train_input,
    )
}

const SERVING_MODELS: [&str; 5] = [
    "llama-65b",
    "gpt3-175b",
    "megatron-145b",
    "megatron-310b",
    "megatron-530b",
];
const SERVING_NODES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Distinct serving scenarios per workload seed, stratified like
/// [`TRAIN_INPUTS`].
pub const SERVING_INPUTS: usize = SERVING_MODELS.len() * SERVING_NODES.len() * 48;

fn serving_input(rng: &mut Rng, model: &str, nodes: usize) -> SearchInput {
    let prompt = rng.pick(&[128usize, 256, 512, 1024, 2048, 4096]);
    let decode = rng.pick(&[32usize, 64, 128, 256, 512]);
    let kv_bits = rng.pick(&[8usize, 16]);
    SearchInput::Serving {
        body: format!(
            r#"{{"model": {{"preset": "{model}"}}, "accelerator": {{"preset": "a100"}}, "system": {{"nodes": {nodes}, "accels_per_node": 8}}, "inference": {{"prompt_tokens": {prompt}, "decode_tokens": {decode}, "kv_bits": {kv_bits}}}}}"#
        ),
        max_batch: rng.pick(&[64usize, 128, 256, 512, 1024]),
        prune: rng.chance(0.5),
    }
}

/// The search-serving inputs for `seed`, in visiting order.
pub fn serving_inputs(seed: u64) -> Vec<SearchInput> {
    stratified(
        Rng::new(seed, SALT_SERVING),
        SERVING_INPUTS,
        &SERVING_MODELS,
        &SERVING_NODES,
        serving_input,
    )
}

/// `n` inputs cycling through every (model, nodes) stratum, drawn per
/// stratum by `make`, then shuffled so that visiting order (and the
/// traced/untraced alternation of a traced run) is independent of the
/// stratum.
fn stratified(
    mut rng: Rng,
    n: usize,
    models: &[&str],
    nodes: &[usize],
    make: fn(&mut Rng, &str, usize) -> SearchInput,
) -> Vec<SearchInput> {
    let mut out: Vec<SearchInput> = (0..n)
        .map(|i| {
            let stratum = i % (models.len() * nodes.len());
            make(
                &mut rng,
                models[stratum / nodes.len()],
                nodes[stratum % nodes.len()],
            )
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// Untimed warm-up operations before the first timed one.
pub const WARMUP_OPS: usize = 32;

/// The warm-up inputs of a search workload: a fixed-seed sample of its
/// own input family.
pub fn warmup_inputs(serving: bool) -> Vec<SearchInput> {
    let mut all = if serving {
        serving_inputs(WARMUP_SEED)
    } else {
        train_inputs(WARMUP_SEED)
    };
    all.truncate(WARMUP_OPS);
    all
}

/// One HTTP request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Request path, e.g. `/v1/estimate`.
    pub path: &'static str,
    /// Query parameters, in order.
    pub query: Vec<(String, String)>,
    /// The JSON scenario body.
    pub body: String,
}

impl HttpRequest {
    fn new(path: &'static str, query: &[(&str, String)], body: String) -> HttpRequest {
        HttpRequest {
            path,
            query: query
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
            body,
        }
    }

    /// The request target: path plus query string.
    pub fn target(&self) -> String {
        let mut out = self.path.to_string();
        for (i, (k, v)) in self.query.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            out.push_str(k);
            if !v.is_empty() {
                out.push('=');
                out.push_str(v);
            }
        }
        out
    }

    /// The full HTTP/1.1 request bytes. No `Connection` header: HTTP/1.1
    /// defaults to keep-alive, and the server decides.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.target(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }

    /// The same request as the service's parsed form, for in-process
    /// re-answering.
    pub fn to_service(&self) -> amped_serve::Request {
        amped_serve::Request {
            method: "POST".to_string(),
            path: self.path.to_string(),
            query: self.query.clone(),
            body: self.body.clone(),
        }
    }
}

/// The training presets the HTTP templates start from, with their own
/// global batch.
const TRAIN_PRESETS: [(&str, usize); 3] = [
    ("dev-small", 64),
    ("flagship-a100", 1024),
    ("llama-65b-32x8", 1024),
];

/// The 12 repeated `POST /v1/estimate` templates: each training preset at
/// its own and twice its batch, with and without recomputation.
pub fn estimate_templates() -> Vec<HttpRequest> {
    let mut out = Vec::new();
    for (preset, batch) in TRAIN_PRESETS {
        for mult in [1, 2] {
            for recompute in [false, true] {
                out.push(HttpRequest::new(
                    "/v1/estimate",
                    &[("preset", preset.to_string())],
                    format!(
                        r#"{{"training": {{"global_batch": {}}}, "activation_recompute": {recompute}}}"#,
                        batch * mult
                    ),
                ));
            }
        }
    }
    out
}

/// The http-mixed endpoint mix in percent. Sums to 100.
const MIX: [(Kind, u32); 7] = [
    (Kind::Estimate, 35),
    (Kind::Search, 20),
    (Kind::Sweep, 10),
    (Kind::Resilience, 10),
    (Kind::Infer, 10),
    (Kind::SearchInfer, 10),
    (Kind::Recommend, 5),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Estimate,
    Search,
    Sweep,
    Resilience,
    Infer,
    SearchInfer,
    Recommend,
}

fn pick_kind(rng: &mut Rng) -> Kind {
    let mut roll = rng.below(100) as u32;
    for (kind, pct) in MIX {
        if roll < pct {
            return kind;
        }
        roll -= pct;
    }
    unreachable!("the mix sums to 100")
}

const SERVE_PRESETS: [&str; 2] = ["llama-65b-serve", "dev-small-infer"];

/// One http-mixed request of `kind`. `fresh` requests get a distinct
/// inter-node bandwidth, so they open a new cache-pool context (pool
/// writes); template requests reuse a handful of contexts (pool reads).
fn mixed_request(rng: &mut Rng, kind: Kind, fresh: bool) -> HttpRequest {
    let gbps = if fresh {
        100.0 + rng.below(30_001) as f64 / 100.0
    } else {
        rng.pick(&[100.0, 200.0])
    };
    let train_preset = rng.pick(&TRAIN_PRESETS).0.to_string();
    let serve_preset = rng.pick(&SERVE_PRESETS).to_string();
    let system = format!(r#""system": {{"inter_gbps": {gbps:?}}}"#);
    let inference = format!(
        r#""inference": {{"prompt_tokens": {}, "decode_tokens": {}, "batch": {}}}"#,
        rng.pick(&[128usize, 512, 1024, 2048]),
        rng.pick(&[32usize, 128, 256]),
        rng.pick(&[1usize, 4, 8]),
    );
    match kind {
        Kind::Estimate => HttpRequest::new(
            "/v1/estimate",
            &[("preset", train_preset)],
            format!(
                r#"{{{system}, "activation_recompute": {}}}"#,
                rng.chance(0.5)
            ),
        ),
        Kind::Search => {
            let mut query = vec![("preset", train_preset), ("top", "5".to_string())];
            // Pruning and the memory filter are never combined: with both
            // on, which candidates reach the filter depends on thread
            // timing, and so would the response's rejection counts.
            match rng.below(3) {
                0 => query.push(("prune", String::new())),
                1 => query.push(("memory-filter", String::new())),
                _ => {}
            }
            if rng.below(4) == 0 {
                query.push(("refine-sim", "8".to_string()));
            }
            HttpRequest::new("/v1/search", &query, format!("{{{system}}}"))
        }
        Kind::Sweep => HttpRequest::new(
            "/v1/sweep",
            &[("preset", train_preset), ("json", "true".to_string())],
            format!("{{{system}}}"),
        ),
        Kind::Resilience => HttpRequest::new(
            "/v1/resilience",
            &[("preset", train_preset)],
            format!(
                r#"{{{system}, "resilience": {{"node_mtbf_hours": {:?}}}}}"#,
                rng.pick(&[2190.0, 4380.0, 8760.0])
            ),
        ),
        Kind::Infer => HttpRequest::new(
            "/v1/infer",
            &[("preset", serve_preset)],
            format!("{{{system}, {inference}}}"),
        ),
        Kind::SearchInfer => {
            let mut query = vec![
                ("preset", serve_preset),
                ("workload", "infer".to_string()),
                ("max-serve-batch", rng.pick(&[16usize, 32, 64]).to_string()),
            ];
            if rng.chance(0.5) {
                query.push(("prune", String::new()));
            }
            HttpRequest::new("/v1/search", &query, format!("{{{system}, {inference}}}"))
        }
        Kind::Recommend => HttpRequest::new(
            "/v1/recommend",
            &[("preset", train_preset)],
            format!("{{{system}}}"),
        ),
    }
}

/// The 16 repeated http-mixed templates (seed-independent: set-up warms
/// exactly these).
pub fn mixed_templates() -> Vec<HttpRequest> {
    let mut rng = Rng::new(WARMUP_SEED, SALT_MIXED_FRESH);
    // Every endpoint kind appears at least once; the rest follow the mix.
    let mut kinds: Vec<Kind> = MIX.iter().map(|(k, _)| *k).collect();
    while kinds.len() < 16 {
        kinds.push(pick_kind(&mut rng));
    }
    kinds
        .into_iter()
        .map(|kind| mixed_request(&mut rng, kind, false))
        .collect()
}

/// One scheduled request: when it is due (seconds from the start of the
/// measured window) and what it sends.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub request: HttpRequest,
}

/// The open-loop schedule of an HTTP workload: Poisson arrivals at
/// `rate_per_s`, until `seconds` have passed or `max_requests` are due,
/// whichever comes first. http-estimate draws from the 12 estimate
/// templates; http-mixed sends a template half the time and a fresh
/// scenario otherwise.
pub fn schedule(
    seed: u64,
    mixed: bool,
    rate_per_s: f64,
    seconds: f64,
    max_requests: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, SALT_SCHEDULE);
    let templates = if mixed {
        mixed_templates()
    } else {
        estimate_templates()
    };
    let mut out = Vec::new();
    let mut t = 0.0;
    while out.len() < max_requests {
        // Exponential inter-arrival gap; 1 - u is in (0, 1].
        t += -(1.0 - rng.unit()).ln() / rate_per_s;
        if t >= seconds {
            break;
        }
        let request = if mixed && rng.chance(0.5) {
            let kind = pick_kind(&mut rng);
            mixed_request(&mut rng, kind, true)
        } else {
            templates[rng.below(templates.len())].clone()
        };
        out.push(Arrival { due_s: t, request });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(train_inputs(1), train_inputs(1));
        assert_ne!(train_inputs(1), train_inputs(2));
        assert_eq!(serving_inputs(7), serving_inputs(7));
        assert_ne!(serving_inputs(7), serving_inputs(8));
        assert_eq!(
            schedule(3, true, 50.0, 5.0, 1000),
            schedule(3, true, 50.0, 5.0, 1000)
        );
        assert_ne!(
            schedule(3, true, 50.0, 5.0, 1000),
            schedule(4, true, 50.0, 5.0, 1000)
        );
        assert_eq!(train_inputs(1).len(), TRAIN_INPUTS);
        assert_eq!(serving_inputs(1).len(), SERVING_INPUTS);
    }

    #[test]
    fn search_inputs_cover_every_stratum_equally() {
        let inputs = train_inputs(5);
        for model in TRAIN_MODELS {
            let n = inputs
                .iter()
                .filter(|i| matches!(i, SearchInput::Train { body, .. } if body.contains(&format!("\"{model}\""))))
                .count();
            assert_eq!(n, TRAIN_INPUTS / TRAIN_MODELS.len(), "{model}");
        }
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate_and_caps() {
        let s = schedule(9, false, 200.0, 10.0, usize::MAX);
        let rate = s.len() as f64 / 10.0;
        assert!((rate - 200.0).abs() < 20.0, "rate {rate}");
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert_eq!(schedule(9, false, 200.0, 10.0, 25).len(), 25);
        let mixed = schedule(9, true, 200.0, 10.0, usize::MAX);
        let fresh = mixed
            .iter()
            .filter(|a| !mixed_templates().contains(&a.request))
            .count() as f64;
        assert!((fresh / mixed.len() as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn targets_render_query_strings() {
        let req = HttpRequest::new(
            "/v1/search",
            &[
                ("preset", "dev-small".to_string()),
                ("prune", String::new()),
            ],
            "{}".to_string(),
        );
        assert_eq!(req.target(), "/v1/search?preset=dev-small&prune");
        let text = String::from_utf8(req.to_bytes()).unwrap();
        assert!(text.starts_with("POST /v1/search?preset=dev-small&prune HTTP/1.1\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
