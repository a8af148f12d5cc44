//! `serve_mixed`: one closed-loop client of the scenario service.
//!
//! Request lines go one at a time through `serve_lines` to a persistent
//! single-worker `Fleet`; the next line is sent only after the previous
//! response arrived. Popularity is Zipf-skewed over a seeded universe of
//! base specs whose kinds repeat in a fixed pattern by rank (so the kind
//! mix does not depend on the seed): parametric (event engine),
//! heterogeneous (analytic), image and motion (lockstep, small training),
//! topology and fault-knob specs. Each request is sent flat, field-
//! permuted or nested under `"scenario"`. Every round of
//! [`ROUND_LINES`] lines also carries [`MALFORMED_PER_ROUND`] malformed
//! lines and the [`OUT_OF_RANGE`] lines, then a `stats` op.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use ncpu_obs::json::{self, Json};
use ncpu_obs::Counters;
use ncpu_serve::{
    serve_lines, Fleet, FleetAccess, RunOutcome, ScenarioSpec, ServeConfig, WorkloadSpec,
};
use ncpu_soc::{fnv1a_64, Engine, EventDriven, Lockstep};
use ncpu_testkit::rng::Rng;

use crate::stats::{repeated_setup, rounds};
use crate::trace::{self, mean_ns};
use crate::{Outcome, Settings, Tally};

/// Result-cache capacity passed to `Fleet::new`.
const CACHE_CAP: usize = 128;
/// Distinct base specs: four times the cache capacity.
const UNIVERSE: usize = 4 * CACHE_CAP;
/// Zipf exponent of the popularity over base-spec ranks.
const ZIPF_S: f64 = 1.0;
/// Lines per round, including the malformed and out-of-range ones.
const ROUND_LINES: usize = 100;
const MALFORMED_PER_ROUND: usize = 2;
/// Rounds served (unchecked, untimed) while setting up.
const WARMUP_ROUNDS: usize = 4;
/// Every this many lockstep/event misses, the built scenario is also run
/// on the other twin engine and its report compared byte for byte.
const TWIN_EVERY: u64 = 8;

/// Out-of-range values whose correct answer is an error line. Today
/// `ScenarioSpec::parse` clamps them and serves the clamped scenario, so
/// each of these fails on every round; they are the only lines that may.
const OUT_OF_RANGE: [&str; 3] = [
    r#"{"workload":"parametric","cpu_fraction":0.33,"batch":4,"cores":0}"#,
    r#"{"workload":"parametric","cpu_fraction":0.33,"batch":4,"cores":65}"#,
    r#"{"workload":"parametric","cpu_fraction":0.33,"batch":0,"cores":2}"#,
];

/// Lines whose correct answer is an error line (and that get one).
const MALFORMED: [&str; 4] = [
    r#"{"workload":"parametric","batch":"#,
    r#"{"wrokload":"image","batch":2}"#,
    r#"{"cpu_fraction":1.5,"batch":2}"#,
    r#"{"scenario":{"batch":3},"engine":"lockstep"}"#,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Parametric,
    Hetero,
    Image,
    Motion,
    Topology,
    Fault,
}

/// Kind of the base spec at each popularity rank, repeating.
///
/// The hottest ranks are untrained, so the median request is a hit on
/// an untrained spec; image specs hold 3 slots in 16, so the misses that
/// train an image model fill the top 2–3% of latencies and the p99 lies
/// inside that plateau rather than on its edge.
const PATTERN: [Kind; 16] = [
    Kind::Parametric,
    Kind::Hetero,
    Kind::Parametric,
    Kind::Topology,
    Kind::Parametric,
    Kind::Fault,
    Kind::Parametric,
    Kind::Image,
    Kind::Hetero,
    Kind::Motion,
    Kind::Parametric,
    Kind::Image,
    Kind::Fault,
    Kind::Topology,
    Kind::Parametric,
    Kind::Image,
];

impl Kind {
    fn trained(self) -> bool {
        matches!(self, Kind::Image | Kind::Motion)
    }

    /// The engine the service's router must pick.
    fn engine(self) -> &'static str {
        match self {
            Kind::Hetero => "analytic",
            Kind::Image | Kind::Motion => "lockstep",
            Kind::Parametric | Kind::Topology | Kind::Fault => "event",
        }
    }
}

struct Base {
    kind: Kind,
    /// `(field, JSON value)` in canonical order.
    fields: Vec<(&'static str, String)>,
    /// Known up front for untrained specs (built in set-up); learned
    /// from the first response for trained ones.
    key: Option<u64>,
}

fn fraction(rng: &mut Rng) -> String {
    format!("{:.2}", 0.20 + 0.05 * rng.gen_range(0..15) as f64)
}

fn pick<T: Copy>(rng: &mut Rng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

fn topology_json(rng: &mut Rng) -> String {
    let cores = rng.gen_range(2..=4usize);
    let specs: Vec<String> = (0..cores)
        .map(|c| {
            let role = if c == 0 {
                "reconfigurable"
            } else {
                pick(rng, &["reconfigurable", "cpu", "bnn"])
            };
            match pick(rng, &[None, Some("0.7"), Some("0.9")]) {
                None => format!(r#"{{"role":"{role}"}}"#),
                Some(v) => format!(r#"{{"role":"{role}","operating_point":{v}}}"#),
            }
        })
        .collect();
    let scheduler = pick(rng, &["static", "work_stealing"]);
    format!(
        r#"{{"cores":[{}],"scheduler":"{scheduler}"}}"#,
        specs.join(",")
    )
}

/// Draws one base spec of `kind`. `serial` makes trained specs distinct
/// (through `dma_setup_cycles`, which enters the cache key and the
/// construction memo key but not the training).
fn draw_base(kind: Kind, serial: usize, rng: &mut Rng) -> Vec<(&'static str, String)> {
    let s = |v: &str| format!("\"{v}\"");
    match kind {
        Kind::Parametric => vec![
            ("workload", s("parametric")),
            ("cpu_fraction", fraction(rng)),
            ("batch", pick(rng, &[2, 4, 6, 8]).to_string()),
            ("model_input", pick(rng, &[64, 128]).to_string()),
            ("cores", pick(rng, &[1, 2, 4]).to_string()),
        ],
        Kind::Hetero => vec![
            ("workload", s("parametric")),
            ("cpu_fraction", fraction(rng)),
            ("batch", pick(rng, &[2, 4, 6, 8]).to_string()),
            ("model_input", pick(rng, &[64, 128]).to_string()),
            ("system", s("hetero")),
        ],
        Kind::Image | Kind::Motion => vec![
            (
                "workload",
                s(if kind == Kind::Image {
                    "image"
                } else {
                    "motion"
                }),
            ),
            ("batch", "2".to_string()),
            ("train_per_class", "1".to_string()),
            ("epochs", "1".to_string()),
            ("cores", pick(rng, &[1, 2]).to_string()),
            ("dma_setup_cycles", (8 + serial).to_string()),
        ],
        Kind::Topology => vec![
            ("workload", s("parametric")),
            ("cpu_fraction", fraction(rng)),
            ("batch", pick(rng, &[2, 4, 6, 8]).to_string()),
            ("topology", topology_json(rng)),
        ],
        Kind::Fault => vec![
            ("workload", s("parametric")),
            ("cpu_fraction", fraction(rng)),
            ("batch", pick(rng, &[4, 8]).to_string()),
            ("cores", pick(rng, &[2, 4]).to_string()),
            ("fault_seed", rng.gen_range(1..1_000_000u64).to_string()),
            (
                "fault_core_hang_ppm",
                pick(rng, &[20_000, 50_000]).to_string(),
            ),
            ("fault_watchdog_cycles", "200000".to_string()),
            ("fault_max_retries", "2".to_string()),
        ],
    }
}

fn parse_spec(line: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::parse(&json::parse(line)?)
}

/// The seeded universe, ranked by popularity. Untrained specs are built
/// here so that canonical duplicates are redrawn and their keys known.
fn universe(rng: &mut Rng) -> Vec<Base> {
    let mut seen = std::collections::HashSet::new();
    let mut bases = Vec::with_capacity(UNIVERSE);
    for rank in 0..UNIVERSE {
        let kind = PATTERN[rank % PATTERN.len()];
        loop {
            let fields = draw_base(kind, rank, rng);
            if kind.trained() {
                bases.push(Base {
                    kind,
                    fields,
                    key: None,
                });
                break;
            }
            let spec = parse_spec(&render(&fields, 0, rng)).expect("universe specs are valid");
            let key = spec.build().cache_key();
            if seen.insert(key) {
                bases.push(Base {
                    kind,
                    fields,
                    key: Some(key),
                });
                break;
            }
        }
    }
    bases
}

/// Renders a request: `variant` 0 is flat in canonical order, 1 flat
/// with the fields shuffled, 2 nested under `"scenario"`, 3 nested and
/// shuffled beside `"op":"run"`.
fn render(fields: &[(&'static str, String)], variant: u32, rng: &mut Rng) -> String {
    let mut order: Vec<usize> = (0..fields.len()).collect();
    if variant % 2 == 1 {
        rng.shuffle(&mut order);
    }
    let body: Vec<String> = order
        .iter()
        .map(|&i| format!("\"{}\":{}", fields[i].0, fields[i].1))
        .collect();
    let body = format!("{{{}}}", body.join(","));
    match variant {
        0 | 1 => body,
        2 => format!(r#"{{"scenario":{body}}}"#),
        _ => format!(r#"{{"op":"run","scenario":{body}}}"#),
    }
}

enum LineKind {
    Run(usize),
    Malformed,
    OutOfRange,
}

struct Stream {
    rng: Rng,
    cumulative: Vec<f64>,
    malformed_next: usize,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut total = 0.0;
        let cumulative = (0..UNIVERSE)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Stream {
            rng: Rng::seed_from_u64(seed),
            cumulative,
            malformed_next: 0,
        }
    }

    fn draw_rank(&mut self) -> usize {
        let total = *self.cumulative.last().expect("non-empty universe");
        let u = self.rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(UNIVERSE - 1)
    }

    /// One round: the same line kinds at the same positions every time.
    fn round(&mut self, bases: &[Base]) -> Vec<(String, LineKind)> {
        let step = ROUND_LINES / (OUT_OF_RANGE.len() + MALFORMED_PER_ROUND);
        (0..ROUND_LINES)
            .map(|i| {
                let slot = i / step;
                if i % step == step / 2 && slot < OUT_OF_RANGE.len() {
                    (OUT_OF_RANGE[slot].to_string(), LineKind::OutOfRange)
                } else if i % step == step / 2 && slot < OUT_OF_RANGE.len() + MALFORMED_PER_ROUND {
                    let line = MALFORMED[self.malformed_next % MALFORMED.len()];
                    self.malformed_next += 1;
                    (line.to_string(), LineKind::Malformed)
                } else {
                    let rank = self.draw_rank();
                    let variant = match self.rng.gen_range(0..20u32) {
                        0..=9 => 0,
                        10..=13 => 1,
                        14..=16 => 2,
                        _ => 3,
                    };
                    (
                        render(&bases[rank].fields, variant, &mut self.rng),
                        LineKind::Run(rank),
                    )
                }
            })
            .collect()
    }
}

/// The fleet behind `serve_lines`, with each batch wrapped in a span
/// named by its outcome.
struct Traced<'a>(&'a mut Fleet);

impl FleetAccess for Traced<'_> {
    fn assign_id(&mut self) -> String {
        self.0.assign_id()
    }

    fn run_batch(
        &mut self,
        requests: Vec<(String, Result<ScenarioSpec, String>)>,
    ) -> Vec<Result<RunOutcome, (String, String)>> {
        if requests.is_empty() {
            return self.0.run_batch(requests);
        }
        let trained = requests.iter().any(|(_, r)| {
            matches!(r, Ok(spec) if !matches!(spec.workload, WorkloadSpec::Parametric { .. }))
        });
        let span = trace::span("serve.batch");
        let out = self.0.run_batch(requests);
        span.rename(match out.first() {
            Some(Ok(o)) if o.cache == "hit" && trained => "serve.trained_hit",
            Some(Ok(o)) if o.cache == "hit" => "serve.hit",
            Some(Ok(_)) => "serve.miss",
            _ => "serve.error",
        });
        out
    }

    fn counters(&mut self) -> Counters {
        self.0.counters()
    }
}

/// One response line, split by the fixed protocol shape.
struct Response<'a> {
    id: &'a str,
    /// `(key, cache, engine, report)` of a run; `None` for an error line.
    run: Option<(u64, &'a str, &'a str, &'a str)>,
}

fn split_response(line: &str) -> Option<Response<'_>> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let (id, rest) = rest.split_once('"')?;
    if rest.starts_with(",\"error\":") {
        return Some(Response { id, run: None });
    }
    let rest = rest.strip_prefix(",\"key\":\"")?;
    let (key, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"cache\":\"")?;
    let (cache, rest) = rest.split_once('"')?;
    let rest = rest.strip_prefix(",\"engine\":\"")?;
    let (engine, rest) = rest.split_once('"')?;
    let report = rest.strip_prefix(",\"report\":")?.strip_suffix('}')?;
    Some(Response {
        id,
        run: Some((u64::from_str_radix(key, 16).ok()?, cache, engine, report)),
    })
}

/// The client: the fleet, what it has answered so far, and the checks.
struct Client {
    fleet: Fleet,
    cfg: ServeConfig,
    bases: Vec<Base>,
    /// Run lines sent (every one takes a request id).
    sent: u64,
    hits: u64,
    misses: u64,
    errors: u64,
    twin_misses: u64,
    /// Canonical key → (base rank, hash of the report bytes).
    by_key: HashMap<u64, (usize, u64)>,
}

impl Client {
    fn new(bases: Vec<Base>) -> Client {
        Client {
            // One worker: each closed-loop request is a batch of one.
            fleet: Fleet::new(1, CACHE_CAP),
            cfg: ServeConfig::default(),
            bases,
            sent: 0,
            hits: 0,
            misses: 0,
            errors: 0,
            twin_misses: 0,
            by_key: HashMap::new(),
        }
    }

    /// Sends one line and returns the response lines with the latency.
    fn exchange(&mut self, line: &str) -> (Vec<String>, f64) {
        let mut out: Vec<u8> = Vec::new();
        let t = Instant::now();
        {
            let _span = trace::span("serve.request");
            serve_lines(
                Traced(&mut self.fleet),
                line.as_bytes(),
                &mut out,
                &self.cfg,
            )
            .expect("in-memory I/O cannot fail");
        }
        let secs = t.elapsed().as_secs_f64();
        let text = String::from_utf8(out).expect("responses are UTF-8");
        (text.lines().map(str::to_string).collect(), secs)
    }

    /// Client-side probes of the layers a request crosses: parse, and
    /// for untrained specs build and canonical key. Returns the key.
    fn probe(&self, line: &str, kind: Kind) -> Option<u64> {
        let spec = {
            let _span = trace::span("serve.parse");
            parse_spec(line).ok()?
        };
        if kind.trained() {
            return None;
        }
        let scenario = {
            let _span = trace::span("serve.build");
            spec.build()
        };
        let _span = trace::span("soc.cache_key");
        Some(scenario.cache_key())
    }

    /// Re-runs a served miss on the other twin engine and encodes its
    /// report as each miss does.
    fn twin_report(&self, line: &str, kind: Kind, engine: &str, key: u64) -> Option<String> {
        let spec = parse_spec(line).ok()?;
        let scenario = if kind.trained() {
            let _span = trace::span("soc.usecase_build");
            spec.build()
        } else {
            spec.build()
        };
        let (mut report, rec) = match engine {
            "lockstep" => {
                let _span = trace::span("soc.event.run");
                EventDriven.run(&scenario)
            }
            _ => {
                let _span = trace::span("soc.lockstep.run");
                Lockstep.run(&scenario)
            }
        };
        report.config = report
            .config
            .replace(" (lockstep)", "")
            .replace(" (event)", "");
        let _span = trace::span("obs.report_encode");
        let artifact = report
            .artifact(&format!("serve_{key:016x}"), &rec)
            .to_json();
        Some(json::render_compact(&json::parse(&artifact).ok()?))
    }

    /// Serves one line; returns the latency and whether every check on
    /// its response held. Warm-up lines (`checked` false) skip the twin
    /// re-run.
    fn serve(&mut self, line: &str, kind: &LineKind, checked: bool) -> (f64, bool) {
        let probe_key = match kind {
            LineKind::Run(rank) => self.probe(line, self.bases[*rank].kind),
            _ => None,
        };
        let (responses, secs) = self.exchange(line);
        self.sent += 1;
        let expected_id = format!("r{:06}", self.sent);
        let Some(resp) = (responses.len() == 1)
            .then(|| split_response(&responses[0]))
            .flatten()
        else {
            return (secs, false);
        };
        let mut ok = resp.id == expected_id;
        match (kind, resp.run) {
            (_, None) => {
                self.errors += 1;
                ok &= !matches!(kind, LineKind::Run(_));
            }
            (LineKind::Run(rank), Some((key, cache, engine, report))) => {
                if cache == "hit" {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                let base_kind = self.bases[*rank].kind;
                let expected_key = *self.bases[*rank].key.get_or_insert(key);
                ok &= key == expected_key && probe_key.is_none_or(|k| k == key);
                ok &= engine == base_kind.engine();
                let hash = fnv1a_64(report.as_bytes());
                let first = *self.by_key.entry(key).or_insert((*rank, hash));
                ok &= first == (*rank, hash);
                if checked && cache == "miss" && engine != "analytic" {
                    self.twin_misses += 1;
                    if self.twin_misses.is_multiple_of(TWIN_EVERY) {
                        let twin = self.twin_report(line, base_kind, engine, key);
                        ok &= twin.as_deref() == Some(report);
                    }
                }
            }
            (_, Some((_, cache, ..))) => {
                // An out-of-range or malformed line that was served.
                if cache == "hit" {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                ok = false;
            }
        }
        (secs, ok)
    }

    /// Sends a `stats` op; true when the counters add up to what this
    /// client sent and saw.
    fn stats(&mut self) -> bool {
        let (responses, _) = self.exchange(r#"{"op":"stats"}"#);
        let reported = responses
            .first()
            .and_then(|l| json::parse(l).ok())
            .and_then(|doc| doc.get("counters").cloned());
        let get = |name: &str| -> Option<u64> {
            match reported.as_ref()?.get(name)? {
                Json::Num(n) => Some(*n as u64),
                _ => None,
            }
        };
        responses.len() == 1
            && get("serve.requests") == Some(self.sent)
            && get("serve.cache.hits") == Some(self.hits)
            && get("serve.cache.misses") == Some(self.misses)
            && get("serve.errors") == Some(self.errors)
            && self.hits + self.misses + self.errors == self.sent
    }
}

pub fn run(s: &Settings) -> Outcome {
    std::env::set_var(ncpu_par::THREADS_ENV, "1");
    let ((mut client, mut stream), setup_s) = repeated_setup(3, || {
        let mut rng = Rng::seed_from_u64(s.seed);
        let mut client = Client::new(universe(&mut rng));
        let mut stream = Stream::new(rng.next_u64());
        for _ in 0..WARMUP_ROUNDS {
            for (line, kind) in stream.round(&client.bases) {
                client.serve(&line, &kind, false);
            }
        }
        (client, stream)
    });
    let before = client.fleet.counters();
    // The per-layer figures cover the timed phase only, not the warm-up.
    let first_span = trace::mark();

    let mut tally = Tally::default();
    let mut op_ms = Vec::new();
    // At least ten rounds, so that at least ten requests lie beyond the p99.
    let mut round_rates = Vec::new();
    let rounds = rounds(s.seconds, 10, |_| {
        let first = op_ms.len();
        for (line, kind) in stream.round(&client.bases) {
            trace::set_request(client.sent + 1);
            let (secs, ok) = client.serve(&line, &kind, true);
            op_ms.push(secs * 1e3);
            match kind {
                LineKind::OutOfRange => tally.known_fault(ok),
                _ => tally.check(ok, format_args!("response to {line}")),
            }
        }
        let round_ms: f64 = op_ms[first..].iter().sum();
        round_rates.push(ROUND_LINES as f64 / (round_ms / 1e3));
        trace::set_request(0);
        let ok = client.stats();
        tally.check(ok, "stats counters do not add up");
    });
    let after = client.fleet.counters();
    let delta = |name: &str| after.get(name) - before.get(name);
    eprintln!(
        "{rounds} rounds: hits {} misses {} errors {} evictions {}",
        delta("serve.cache.hits"),
        delta("serve.cache.misses"),
        delta("serve.errors"),
        delta("serve.cache.evictions")
    );

    let summary = trace::summary_since(first_span);
    let mut layers = BTreeMap::new();
    for (metric, span, scale) in [
        ("serve.parse_us", "serve.parse", 1e3),
        ("serve.build_us", "serve.build", 1e3),
        ("soc.cache_key_us", "soc.cache_key", 1e3),
        ("serve.hit_us", "serve.hit", 1e3),
        ("serve.trained_hit_ms", "serve.trained_hit", 1e6),
        ("serve.miss_ms", "serve.miss", 1e6),
        ("obs.report_encode_us", "obs.report_encode", 1e3),
        ("soc.usecase_build_ms", "soc.usecase_build", 1e6),
    ] {
        let (ns, calls) = mean_ns(&summary, span);
        layers.insert(metric, (ns / scale, calls));
    }
    if s.trace {
        let runs = delta("serve.cache.hits") + delta("serve.cache.misses");
        layers.insert(
            "serve.cache.hit_ratio",
            (delta("serve.cache.hits") as f64 / runs as f64, runs),
        );
        layers.insert(
            "serve.cache.evictions",
            (delta("serve.cache.evictions") as f64, rounds),
        );
    }
    Outcome {
        tally,
        setup_s,
        round_rates,
        op_ms,
        layers,
    }
}
