//! End-to-end benchmark of the NCPU reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_digits|sim_usecases|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (each with its `.calls` count) with
//! `--trace 1`. The traced run also writes every span and a per-layer
//! summary to `perfbench/traces/`. See `perfbench/README.md`.

mod serve;
mod sim;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `(name, unit, better)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p99_ms", "ms", "lower"),
];

/// `(name, unit, better)` of every per-layer metric. Each is printed
/// together with a `<name>.calls` count (unit `count`).
pub const PER_LAYER: [(&str, &str, &str); 21] = [
    ("bnn.train_call_s", "s", "lower"),
    ("bnn.dataset_ms", "ms", "lower"),
    ("bnn.test_accuracy", "fraction", "higher"),
    ("par.train_speedup", "ratio", "higher"),
    ("pipeline.instr_per_s", "instr/s", "higher"),
    ("accel.infer_us", "us", "lower"),
    ("soc.lockstep.cycles_per_s", "cycles/s", "higher"),
    ("soc.event.cycles_per_s", "cycles/s", "higher"),
    ("soc.analytic.cycles_per_s", "cycles/s", "higher"),
    ("soc.deep.cycles_per_s", "cycles/s", "higher"),
    ("soc.usecase_build_ms", "ms", "lower"),
    ("soc.cache_key_us", "us", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.build_us", "us", "lower"),
    ("serve.hit_us", "us", "lower"),
    ("serve.trained_hit_ms", "ms", "lower"),
    ("serve.miss_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("obs.report_encode_us", "us", "lower"),
    ("trace.spans", "count", "higher"),
];

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

const WORKLOADS: [&str; 3] = ["train_digits", "sim_usecases", "serve_mixed"];

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub setup_s: f64,
    /// Work per host second inside the timed operations of each round
    /// (samples × epochs, busy core-cycles, or requests).
    pub round_rates: Vec<f64>,
    /// Latency of each timed operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Per-layer metrics the workload derived: name → (value, calls).
    pub layers: BTreeMap<&'static str, (f64, u64)>,
}

/// Settings every workload receives.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Records an operation's check: counted as failed when it does not hold.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations that are not the known fault.
    pub unexpected: u64,
}

impl Tally {
    /// One operation whose correct outcome is `ok`.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.unexpected += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// One operation that hits the known fault this benchmark keeps
    /// visible: it fails without making the run incorrect.
    pub fn known_fault(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ncpu-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         ncpu-perfbench --list",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Prints every metric with its unit and checks the list against
/// `BENCHMARK.json` in the working directory.
fn list() -> ExitCode {
    let mut ours: Vec<(String, String, String)> = Vec::new();
    for (name, unit, better) in END_TO_END {
        println!("end_to_end {name} {unit} {better}");
        ours.push((name.into(), unit.into(), better.into()));
    }
    let mut layer: Vec<(String, String, String)> = Vec::new();
    for (name, unit, better) in PER_LAYER {
        println!("per_layer {name} {unit} {better}");
        println!("per_layer {name}.calls count higher");
        layer.push((name.into(), unit.into(), better.into()));
        layer.push((format!("{name}.calls"), "count".into(), "higher".into()));
    }
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read BENCHMARK.json: {e}");
            return ExitCode::from(1);
        }
    };
    let doc = match ncpu_obs::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(1);
        }
    };
    let declared = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(|v| v.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    let mut ok = true;
    if declared("end_to_end") != ours {
        eprintln!("end_to_end metrics in BENCHMARK.json disagree with this list");
        ok = false;
    }
    if declared("per_layer") != layer {
        eprintln!("per_layer metrics in BENCHMARK.json disagree with this list");
        ok = false;
    }
    if workloads != WORKLOADS {
        eprintln!("workloads in BENCHMARK.json disagree with {WORKLOADS:?}");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        return list();
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                opts.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload").copied(),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0),
        opts.get("trace").and_then(|s| match *s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    if trace {
        trace::enable();
    }
    let settings = Settings {
        seed,
        seconds,
        trace,
    };
    let outcome = match workload {
        "train_digits" => train::run(&settings),
        "sim_usecases" => sim::run(&settings),
        "serve_mixed" => serve::run(&settings),
        _ => return usage(),
    };
    let peak_heap_mb = stats::peak_heap_mb();

    let mut metrics: Vec<String> = Vec::new();
    let e2e = [
        outcome.setup_s,
        peak_heap_mb,
        stats::median(&outcome.round_rates),
        stats::median(&outcome.op_ms),
        stats::tail(&outcome.op_ms),
    ];
    for ((name, unit, _), value) in END_TO_END.iter().zip(e2e) {
        if trace {
            eprintln!("traced run end-to-end: {name} = {value} {unit}");
        } else {
            metrics.push(metric_json(name, value, unit));
        }
    }
    eprintln!("timed operations: {}", outcome.op_ms.len());
    if trace {
        let spans = trace::take();
        let summary = trace::summarize(&spans, 0);
        let mut layers = outcome.layers;
        layers.insert("trace.spans", (spans.len() as f64, spans.len() as u64));
        for (name, unit, _) in PER_LAYER {
            let (value, calls) = layers.get(name).copied().unwrap_or((0.0, 0));
            metrics.push(metric_json(name, value, unit));
            metrics.push(metric_json(&format!("{name}.calls"), calls as f64, "count"));
        }
        let dir = std::path::Path::new("perfbench").join("traces");
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans, &summary)));
        match written {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
        for (name, s) in &summary {
            eprintln!(
                "layer {name:<28} calls {:>7} busy {:>10.3} ms self {:>10.3} ms",
                s.calls,
                s.busy_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.unexpected == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
