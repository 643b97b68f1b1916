//! Regenerates **Fig. 3**: accuracy vs memory requirement (KB) for MEMHD
//! and the four baselines on the three (synthetic stand-in) datasets.
//!
//! MEMHD sweeps square AM sizes (`DxC`) for MNIST/FMNIST and fixed-128-
//! column sizes for ISOLET; baselines sweep dimensionality. Each point is
//! averaged over trials (5 with `--full`, matching the paper's protocol).
//!
//! Usage: `cargo run --release -p memhd_bench --bin fig3 [--quick|--full]`

use hd_baselines::{
    BasicHdc, HdcClassifier, LeHdc, LeHdcConfig, QuantHd, QuantHdConfig, SearcHd, SearcHdConfig,
};
use hd_linalg::rng::derive_seed;
use hd_linalg::stats::Welford;
use hdc::{encode_dataset, IdLevelEncoder};
use memhd::{MemhdConfig, MemhdModel};
use memhd_bench::datasets::Corpus;
use memhd_bench::runconfig::{RunConfig, RunMode};
use memhd_bench::table::Table;

const LEVELS: usize = 64; // ID-Level quantization levels for baselines
const SEARCHD_N: usize = 16; // scaled from the paper's 64 to keep runtime sane

struct Point {
    model: String,
    config: String,
    memory_kb: f64,
    accuracy: Welford,
}

fn main() {
    let rc = RunConfig::from_env();
    let (memhd_square, isolet_dims, basic_dims, idlevel_dims, epochs) = match rc.mode {
        RunMode::Quick => (
            vec![64usize, 128, 256],
            vec![128usize, 256, 512],
            vec![256usize, 512, 2048],
            vec![256usize, 512, 1024],
            10usize,
        ),
        RunMode::Full => (
            vec![64, 128, 256, 512, 1024],
            vec![128, 256, 512, 1024],
            vec![256, 512, 2048, 10240],
            vec![256, 512, 1024, 2048],
            30,
        ),
    };

    println!(
        "Fig. 3: accuracy vs memory (KB); mode {:?}, {} trial(s), seed {}\n",
        rc.mode, rc.trials, rc.seed
    );

    for corpus in Corpus::ALL {
        let k = corpus.num_classes();
        let mut points: Vec<Point> = Vec::new();

        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);
            let f = ds.feature_dim();
            let mut idx = 0usize;
            let mut push =
                |points: &mut Vec<Point>, model: &str, config: String, kb: f64, acc: f64| {
                    if trial == 0 {
                        points.push(Point {
                            model: model.into(),
                            config,
                            memory_kb: kb,
                            accuracy: Welford::new(),
                        });
                    }
                    points[idx].accuracy.push(acc);
                    idx += 1;
                };

            // --- MEMHD sweep ---
            let memhd_shapes: Vec<(usize, usize)> = match corpus {
                Corpus::Isolet => isolet_dims.iter().map(|&d| (d, 128)).collect(),
                _ => memhd_square.iter().map(|&d| (d, d)).collect(),
            };
            for &(dim, cols) in &memhd_shapes {
                let cfg = MemhdConfig::new(dim, cols, k)
                    .expect("valid shape")
                    .with_epochs(epochs)
                    .with_seed(seed);
                let model =
                    MemhdModel::fit(&cfg, &ds.train_features, &ds.train_labels).expect("fit");
                let acc = model.evaluate(&ds.test_features, &ds.test_labels).expect("eval");
                push(
                    &mut points,
                    "MEMHD",
                    format!("{dim}x{cols}"),
                    model.memory_report().total_kb(),
                    acc * 100.0,
                );
            }

            // --- BasicHDC sweep (projection encoding) ---
            for &dim in &basic_dims {
                let model =
                    BasicHdc::fit(dim, &ds.train_features, &ds.train_labels, k, seed).expect("fit");
                let acc = model.evaluate(&ds.test_features, &ds.test_labels).expect("eval");
                push(
                    &mut points,
                    "BasicHDC",
                    format!("{dim}D"),
                    model.memory_report().total_kb(),
                    acc * 100.0,
                );
            }

            // --- ID-Level baselines (share one encoder + encoding per D) ---
            for &dim in &idlevel_dims {
                let encoder = IdLevelEncoder::new(f, dim, LEVELS, seed);
                let train = encode_dataset(&encoder, &ds.train_features).expect("encode");

                let q_cfg =
                    QuantHdConfig { levels: LEVELS, epochs, seed, ..QuantHdConfig::new(dim) };
                let quant =
                    QuantHd::fit_encoded(&q_cfg, encoder.clone(), &train, &ds.train_labels, k)
                        .expect("fit");
                let acc = quant.evaluate(&ds.test_features, &ds.test_labels).expect("eval");
                push(
                    &mut points,
                    "QuantHD",
                    format!("{dim}D"),
                    quant.memory_report().total_kb(),
                    acc * 100.0,
                );

                let l_cfg = LeHdcConfig { levels: LEVELS, epochs, seed, ..LeHdcConfig::new(dim) };
                let lehdc =
                    LeHdc::fit_encoded(&l_cfg, encoder.clone(), &train, &ds.train_labels, k)
                        .expect("fit");
                let acc = lehdc.evaluate(&ds.test_features, &ds.test_labels).expect("eval");
                push(
                    &mut points,
                    "LeHDC",
                    format!("{dim}D"),
                    lehdc.memory_report().total_kb(),
                    acc * 100.0,
                );

                let s_cfg = SearcHdConfig {
                    levels: LEVELS,
                    models_per_class: SEARCHD_N,
                    epochs: epochs.min(10),
                    seed,
                    ..SearcHdConfig::new(dim)
                };
                let searchd = SearcHd::fit_encoded(&s_cfg, encoder, &train, &ds.train_labels, k)
                    .expect("fit");
                let acc = searchd.evaluate(&ds.test_features, &ds.test_labels).expect("eval");
                push(
                    &mut points,
                    "SearcHD",
                    format!("{dim}D N={SEARCHD_N}"),
                    searchd.memory_report().total_kb(),
                    acc * 100.0,
                );
            }
        }

        println!("== {} ==", corpus.name());
        let mut t = Table::new(&["model", "config", "memory KB", "accuracy %", "±sd"]);
        for p in &points {
            t.row(&[
                p.model.clone(),
                p.config.clone(),
                format!("{:.1}", p.memory_kb),
                format!("{:.2}", p.accuracy.mean()),
                format!("{:.2}", p.accuracy.sample_std_dev()),
            ]);
        }
        t.print();

        // Headline comparison: best MEMHD vs best baseline at >= its memory.
        let best_memhd = points
            .iter()
            .filter(|p| p.model == "MEMHD")
            .max_by(|a, b| a.accuracy.mean().total_cmp(&b.accuracy.mean()));
        let best_baseline = points
            .iter()
            .filter(|p| p.model != "MEMHD")
            .max_by(|a, b| a.accuracy.mean().total_cmp(&b.accuracy.mean()));
        if let (Some(m), Some(b)) = (best_memhd, best_baseline) {
            println!(
                "best MEMHD {} : {:.2}% at {:.1} KB  |  best baseline {} {} : {:.2}% at {:.1} KB \
                 ({:.1}x memory ratio)\n",
                m.config,
                m.accuracy.mean(),
                m.memory_kb,
                b.model,
                b.config,
                b.accuracy.mean(),
                b.memory_kb,
                b.memory_kb / m.memory_kb
            );
        }
    }
}
