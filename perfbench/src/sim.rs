//! `sim_usecases`: the paper's use cases on the cycle-level engines, one
//! worker.
//!
//! A round steps image and motion batches on `Lockstep`, `EventDriven`
//! and `Analytic` at 1, 2 and 4 cores; the Fig. 13/14 parametric sweep on
//! both twins with its heterogeneous baseline on `Analytic`; one
//! big.LITTLE and one fault-injected case on the twins; `Deep` in rolled
//! and series modes; Table I's software BNN and the MiBench-class
//! kernels on the bare pipeline; and the same items through the bare
//! accelerator. Models are trained on a small budget during set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use ncpu_accel::{AccelConfig, Accelerator};
use ncpu_bnn::data::{digits, motion};
use ncpu_bnn::{BitVec, BnnModel};
use ncpu_fault::FaultPlan;
use ncpu_obs::Recorder;
use ncpu_pipeline::{FlatMem, Pipeline};
use ncpu_soc::topology::{CoreSpec, SchedulerKind, Topology};
use ncpu_soc::{
    pseudo_deep_model, pseudo_model, Analytic, Deep, Engine, EventDriven, Lockstep, RunReport,
    Scenario, SystemConfig, UseCase, L2_BYTES,
};
use ncpu_testkit::rng::Rng;
use ncpu_workloads::{kernels, softbnn};

use crate::stats::{repeated_setup, rounds};
use crate::trace::{self, mean_ns};
use crate::{Outcome, Settings, Tally};

const IMAGE_BATCH: usize = 8;
const MOTION_BATCH: usize = 8;
const DEEP_BATCH: usize = 16;
/// Seeded motion windows run through the software BNN each round.
const SOFT_BNN_WINDOWS: usize = 2;
/// Seeded raw frames added to the image items on the bare accelerator.
const ACCEL_FRAMES: usize = 8;

/// Everything a round needs, built once in set-up.
struct Inputs {
    image: UseCase,
    motion: UseCase,
    /// Host mirror of each image item's CPU pre-processing.
    image_mirror: Vec<BitVec>,
    /// Fig. 13 points `(cpu_fraction, batch)` then Fig. 14's batches.
    sweep: Vec<UseCase>,
    biglittle: Scenario,
    faulted: Scenario,
    deep: UseCase,
    deep_inputs: Vec<BitVec>,
    soft: softbnn::SoftBnn,
    soft_inputs: Vec<BitVec>,
    kernels: Vec<kernels::Kernel>,
    accel_inputs: Vec<BitVec>,
}

fn build_usecase(build: impl FnOnce() -> UseCase) -> UseCase {
    let _span = trace::span("soc.usecase_build");
    build()
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::seed_from_u64(seed);
    let image = build_usecase(|| UseCase::image(IMAGE_BATCH, 2, 1));
    let motion = build_usecase(|| UseCase::motion(MOTION_BATCH, 4, 2));
    let image_mirror = image
        .items()
        .iter()
        .map(|item| {
            digits::normalize(&digits::blur3(&digits::grayscale(&digits::resize(
                &item.staged,
            ))))
        })
        .collect();

    // The paper's sweep points. They, the image and motion batches and
    // the fault plan stay fixed across seeds, so that the seed changes
    // the data a round processes but not how much work it does.
    let pseudo = pseudo_model(digits::PIXELS, 100, digits::CLASSES);
    let mut sweep: Vec<UseCase> = [0.4, 0.7]
        .map(|f| UseCase::parametric(f, 2, pseudo.clone()))
        .to_vec();
    sweep.extend([2usize, 6, 10, 20, 50, 100].map(|b| UseCase::parametric(0.7, b, pseudo.clone())));

    // One nominal big core on a wide L2 bank, three 0.7 V littles on a
    // narrow one.
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    for spec in specs.iter_mut().skip(1) {
        spec.operating_point = Some(0.7);
        spec.bank = 1;
    }
    let topo = Topology::from_specs(
        specs,
        vec![3 * L2_BYTES / 4, L2_BYTES / 4],
        SchedulerKind::Static,
    )
    .expect("big.LITTLE topology is structural");
    let biglittle =
        Scenario::new(image.clone(), SystemConfig::Ncpu { cores: 4 }).with_topology(topo);
    let plan = FaultPlan {
        seed: 11,
        sram_flip_ppm: 20_000,
        dma_stall_ppm: 30_000,
        dma_stall_cycles: 48,
        dma_truncate_ppm: 20_000,
        core_hang_ppm: 10_000,
        watchdog_cycles: 20_000_000,
        max_retries: 2,
        backoff_cycles: 32,
        quarantine_after: 4,
    };
    let faulted = Scenario::new(image.clone(), SystemConfig::Ncpu { cores: 4 })
        .with_operating_point(0.8)
        .with_faults(plan);

    let deep_model = pseudo_deep_model(digits::PIXELS, 100, digits::CLASSES, 8);
    let deep_inputs: Vec<BitVec> = (0..DEEP_BATCH)
        .map(|_| BitVec::from_bools((0..digits::PIXELS).map(|_| rng.gen_bool(0.5))))
        .collect();
    let deep = UseCase::deep(deep_model, &deep_inputs);

    let noise = motion::MotionConfig::default().noise;
    let soft = softbnn::build(motion.model());
    let soft_inputs = (0..SOFT_BNN_WINDOWS)
        .map(|_| {
            let label = rng.gen_range(0..motion::CLASSES);
            motion::window_to_input(&motion::generate_window(label, noise, &mut rng))
        })
        .collect();

    let mut accel_inputs = Vec::new();
    for _ in 0..ACCEL_FRAMES {
        let raw = digits::render_raw(rng.gen_range(0..digits::CLASSES), 0.15, &mut rng);
        accel_inputs.push(digits::preprocess(&raw));
    }
    Inputs {
        image,
        motion,
        image_mirror,
        sweep,
        biglittle,
        faulted,
        deep,
        deep_inputs,
        soft,
        soft_inputs,
        kernels: kernels::all(),
        accel_inputs,
    }
}

/// Timed layer calls of one run, with the work they simulated.
struct Meter {
    busy_s: f64,
    cycles: u64,
    /// Busy core-cycles per engine name, for the per-layer rates.
    engine_cycles: BTreeMap<&'static str, u64>,
    retired: u64,
}

impl Meter {
    fn time<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = {
            let _span = trace::span(span);
            f()
        };
        self.busy_s += t.elapsed().as_secs_f64();
        out
    }

    /// Runs `scenario` on `engine` and returns the report with its
    /// artifact JSON (engine tag normalized, as the service does).
    fn run<E: Engine>(
        &mut self,
        engine: E,
        span: &'static str,
        scenario: &Scenario,
    ) -> (RunReport, String) {
        let (mut report, rec): (RunReport, Recorder) = self.time(span, || engine.run(scenario));
        let busy: u64 = report.cores.iter().map(|c| c.busy_cycles).sum();
        self.cycles += busy;
        *self.engine_cycles.entry(engine.name()).or_default() += busy;
        report.config = report
            .config
            .replace(" (lockstep)", "")
            .replace(" (event)", "");
        let artifact = report.artifact("perfbench", &rec).to_json();
        (report, artifact)
    }

    fn pipeline(&mut self, run: impl FnOnce() -> (u32, ncpu_pipeline::PipeStats)) -> u32 {
        let (a0, stats) = self.time("pipeline.run", run);
        self.cycles += stats.cycles;
        self.retired += stats.retired;
        a0
    }
}

/// The twins on `scenario`: byte-identical artifacts.
fn twins(m: &mut Meter, tally: &mut Tally, scenario: &Scenario, what: &str) -> RunReport {
    let (lock, lock_json) = m.run(Lockstep, "soc.lockstep.run", scenario);
    let (_, event_json) = m.run(EventDriven, "soc.event.run", scenario);
    tally.check(
        lock_json == event_json,
        format_args!("{what}: lockstep and event artifacts differ"),
    );
    lock
}

fn round(inp: &Inputs, accel: &mut Accelerator, m: &mut Meter, tally: &mut Tally) {
    for cores in [1usize, 2, 4] {
        for (name, uc) in [("image", &inp.image), ("motion", &inp.motion)] {
            let scenario = Scenario::new(uc.clone(), SystemConfig::Ncpu { cores });
            let what = format!("{name} on {cores} cores");
            let lock = twins(m, tally, &scenario, &what);
            let (analytic, _) = m.run(Analytic, "soc.analytic.run", &scenario);
            tally.check(
                analytic.makespan == lock.makespan && analytic.predictions == lock.predictions,
                format_args!("{what}: analytic disagrees with the twins"),
            );
            if name == "image" {
                let mirror: Vec<usize> = inp
                    .image_mirror
                    .iter()
                    .map(|x| uc.model().classify(x))
                    .collect();
                tally.check(
                    lock.predictions == mirror,
                    format_args!("{what}: not the host mirror"),
                );
            }
        }
    }

    for (i, uc) in inp.sweep.iter().enumerate() {
        let dual = Scenario::new(uc.clone(), SystemConfig::Ncpu { cores: 2 });
        let ncpu = twins(m, tally, &dual, &format!("sweep point {i}"));
        let baseline = Scenario::new(uc.clone(), SystemConfig::Heterogeneous);
        let (base, _) = m.run(Analytic, "soc.analytic.run", &baseline);
        tally.check(
            ncpu.makespan < base.makespan,
            format_args!("sweep point {i}: 2×NCPU not faster than the heterogeneous baseline"),
        );
    }
    twins(m, tally, &inp.biglittle, "big.LITTLE");
    twins(m, tally, &inp.faulted, "fault-injected");

    let expected: Vec<usize> = inp
        .deep_inputs
        .iter()
        .map(|x| inp.deep.model().classify(x))
        .collect();
    for cores in [1usize, 2] {
        let scenario = Scenario::new(inp.deep.clone(), SystemConfig::Ncpu { cores });
        let (report, _) = m.run(Deep, "soc.deep.run", &scenario);
        tally.check(
            report.predictions == expected,
            format_args!("deep on {cores} cores"),
        );
    }

    let model = inp.motion.model();
    for input in &inp.soft_inputs {
        let a0 = m.pipeline(|| {
            let soft = &inp.soft;
            let mut cpu = Pipeline::new(soft.program.clone(), FlatMem::new(32 * 1024));
            cpu.mem_mut().local_mut()[..soft.data.len()].copy_from_slice(&soft.data);
            let staged = softbnn::stage_input(input);
            let at = soft.layout.input as usize;
            cpu.mem_mut().local_mut()[at..at + staged.len()].copy_from_slice(&staged);
            cpu.run(500_000_000).expect("software BNN halts");
            (cpu.reg(ncpu_isa::Reg::A0), cpu.stats().clone())
        });
        tally.check(
            a0 as usize == model.classify(input),
            "software BNN disagrees with the host",
        );
    }
    for kernel in &inp.kernels {
        let a0 = m.pipeline(|| kernel.run());
        tally.check(
            a0 == kernel.expected_a0,
            format_args!("kernel {}", kernel.name),
        );
    }

    let inputs: Vec<&BitVec> = inp.image_mirror.iter().chain(&inp.accel_inputs).collect();
    let classes = m.time("accel.batch", || {
        inputs
            .iter()
            .map(|x| {
                let _span = trace::span("accel.infer");
                accel.infer(x).0
            })
            .collect::<Vec<usize>>()
    });
    let host: Vec<usize> = inputs
        .iter()
        .map(|x| inp.image.model().classify(x))
        .collect();
    tally.check(
        classes == host,
        "accelerator disagrees with the host classification",
    );
}

fn rate(cycles: u64, (mean_ns, calls): (f64, u64)) -> (f64, u64) {
    if calls == 0 {
        return (0.0, 0);
    }
    (cycles as f64 / (mean_ns * calls as f64 / 1e9), calls)
}

pub fn run(s: &Settings) -> Outcome {
    std::env::set_var(ncpu_par::THREADS_ENV, "1");
    let (inputs, setup_s) = repeated_setup(5, || setup(s.seed));
    let image_model: BnnModel = inputs.image.model().clone();
    let mut accel = Accelerator::new(image_model, AccelConfig::default());
    let mut m = Meter {
        busy_s: 0.0,
        cycles: 0,
        engine_cycles: BTreeMap::new(),
        retired: 0,
    };
    let mut tally = Tally::default();
    let mut round_rates = Vec::new();
    // The operation is a round: its layer calls range from microseconds
    // to a tenth of a second, so the median call falls in a gap between
    // them and moved by a quarter with the host's speed.
    let mut op_ms = Vec::new();
    let rounds = rounds(s.seconds, 1, |_| {
        let (cycles, busy_s) = (m.cycles, m.busy_s);
        round(&inputs, &mut accel, &mut m, &mut tally);
        let secs = m.busy_s - busy_s;
        op_ms.push(secs * 1e3);
        round_rates.push((m.cycles - cycles) as f64 / secs);
    });
    eprintln!("{rounds} rounds, {} simulated cycles", m.cycles);

    let summary = trace::summary_since(0);
    let mut layers = BTreeMap::new();
    for (engine, metric) in [
        ("lockstep", "soc.lockstep.cycles_per_s"),
        ("event", "soc.event.cycles_per_s"),
        ("analytic", "soc.analytic.cycles_per_s"),
        ("deep", "soc.deep.cycles_per_s"),
    ] {
        let cycles = m.engine_cycles.get(engine).copied().unwrap_or(0);
        layers.insert(
            metric,
            rate(cycles, mean_ns(&summary, &format!("soc.{engine}.run"))),
        );
    }
    layers.insert(
        "pipeline.instr_per_s",
        rate(m.retired, mean_ns(&summary, "pipeline.run")),
    );
    let (infer_ns, infers) = mean_ns(&summary, "accel.infer");
    layers.insert("accel.infer_us", (infer_ns / 1e3, infers));
    let (build_ns, builds) = mean_ns(&summary, "soc.usecase_build");
    layers.insert("soc.usecase_build_ms", (build_ns / 1e6, builds));
    Outcome {
        tally,
        setup_s,
        round_rates,
        op_ms,
        layers,
    }
}
