//! `train_digits`: the digits classifier behind Table III and Fig. 18.
//!
//! 784 → 4×100 → 10 on 1500 synthetic training digits, 40 epochs, timed
//! on one worker and scored on 500 held-out digits; each round also
//! repeats a short training on a slice of the data at one and at two
//! `ncpu-par` workers (the only setting where the trainer's parallel
//! path runs).

use std::collections::BTreeMap;
use std::time::Instant;

use ncpu_bnn::data::{digits, Dataset};
use ncpu_bnn::train::{train, TrainConfig};
use ncpu_bnn::{io, BitVec, BnnModel, Topology};
use ncpu_testkit::rng::Rng;

use crate::stats::{repeated_setup, rounds};
use crate::trace::{self, mean_ns};
use crate::{Outcome, Settings, Tally};

const EPOCHS: usize = 40;
/// Epochs of the short 1- vs 2-worker comparison training.
const SHORT_EPOCHS: usize = 2;
/// Table III's accuracy band (the paper reports 94.8% on MNIST).
const MIN_ACCURACY: f64 = 0.90;

fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    // The trainer sizes its pool from NCPU_THREADS on every call; the
    // benchmark sets it itself so the host never chooses the count.
    std::env::set_var(ncpu_par::THREADS_ENV, workers.to_string());
    f()
}

/// Every third training sample: all ten classes, a third of the work.
fn slice(data: &Dataset) -> Dataset {
    let picked: Vec<usize> = (0..data.len()).step_by(3).collect();
    Dataset::new(
        picked.iter().map(|&i| data.inputs()[i].clone()).collect(),
        picked.iter().map(|&i| data.labels()[i]).collect(),
        data.classes(),
    )
}

/// The exported model is what the accelerator stores: it survives the
/// artifact round trip, and every neuron's pre-activation minus its
/// integer bias is a sum of `n_in` terms of ±1 (same parity as `n_in`,
/// magnitude at most `n_in`).
fn export_is_binary(model: &BnnModel, rng: &mut Rng) -> bool {
    let Ok(back) = io::from_bytes(&io::to_bytes(model)) else {
        return false;
    };
    if &back != model {
        return false;
    }
    model.layers().iter().all(|layer| {
        let n_in = layer.input_len() as i64;
        let probe = BitVec::from_bools((0..layer.input_len()).map(|_| rng.gen_bool(0.5)));
        layer
            .preactivations(&probe)
            .iter()
            .enumerate()
            .all(|(j, &z)| {
                let sum = i64::from(z) - i64::from(layer.bias(j));
                sum.abs() <= n_in && (sum - n_in) % 2 == 0
            })
    })
}

pub fn run(s: &Settings) -> Outcome {
    let cfg = digits::DigitsConfig {
        train_per_class: 150,
        test_per_class: 50,
        noise: 0.15,
        seed: s.seed,
    };
    let ((train_set, test_set), setup_s) = repeated_setup(9, || {
        let _span = trace::span("bnn.dataset");
        digits::generate(&cfg)
    });
    let short_set = slice(&train_set);
    let topo = Topology::paper(digits::PIXELS, 100, digits::CLASSES);
    let mut rng = Rng::seed_from_u64(s.seed ^ 0x5eed);
    let mut tally = Tally::default();
    let mut op_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut accuracies = Vec::new();

    // A round is one timed 40-epoch training plus the 1- vs 2-worker
    // comparison; every run makes at least two. The timed training runs
    // on one worker: on a 2-vCPU host the two-worker trainer's wall time
    // swung threefold with the host's contention (2.0 to 5.9 s for one
    // 4-epoch call within two minutes) while the one-worker call's swung
    // by less than twofold. The parallel path is checked and timed in the
    // comparison.
    rounds(s.seconds, 2, |round| {
        let seed = s.seed.wrapping_add(round);
        let config = TrainConfig {
            epochs: EPOCHS,
            seed,
            ..TrainConfig::default()
        };
        let t = Instant::now();
        let model = with_workers(1, || {
            let _span = trace::span("bnn.train");
            train(&topo, &train_set, &config)
        });
        let secs = t.elapsed().as_secs_f64();
        op_ms.push(secs * 1e3);
        round_rates.push((train_set.len() * EPOCHS) as f64 / secs);

        let accuracy = {
            let _span = trace::span("bnn.accuracy");
            ncpu_bnn::metrics::accuracy(&model, &test_set)
        };
        accuracies.push(accuracy);
        eprintln!("round {round}: {secs:.2} s, held-out accuracy {accuracy:.3}");
        tally.check(
            accuracy >= MIN_ACCURACY && export_is_binary(&model, &mut rng),
            "trained model below the accuracy band or not binary",
        );

        let short = TrainConfig {
            epochs: SHORT_EPOCHS,
            seed,
            ..TrainConfig::default()
        };
        let one = with_workers(1, || {
            let _span = trace::span("par.train_1w");
            train(&topo, &short_set, &short)
        });
        let two = with_workers(2, || {
            let _span = trace::span("par.train_2w");
            train(&topo, &short_set, &short)
        });
        tally.check(
            io::to_bytes(&one) == io::to_bytes(&two),
            "1- and 2-worker models differ",
        );
    });

    let summary = trace::summary_since(0);
    let mut layers = BTreeMap::new();
    let (train_ns, train_calls) = mean_ns(&summary, "bnn.train");
    layers.insert("bnn.train_call_s", (train_ns / 1e9, train_calls));
    let (data_ns, data_calls) = mean_ns(&summary, "bnn.dataset");
    layers.insert("bnn.dataset_ms", (data_ns / 1e6, data_calls));
    if s.trace {
        let mean = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
        layers.insert("bnn.test_accuracy", (mean, accuracies.len() as u64));
    }
    let (one_ns, pairs) = mean_ns(&summary, "par.train_1w");
    let (two_ns, _) = mean_ns(&summary, "par.train_2w");
    if pairs > 0 {
        layers.insert("par.train_speedup", (one_ns / two_ns, pairs));
    }
    Outcome {
        tally,
        setup_s,
        round_rates,
        op_ms,
        layers,
    }
}
