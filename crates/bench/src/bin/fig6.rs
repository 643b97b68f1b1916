//! Regenerates **Fig. 6**: accuracy as a function of the initial cluster
//! ratio `R` (0.1 … 1.0).
//!
//! The paper's observations: `R` barely matters for wide AMs (512x512),
//! matters at narrow ones (512x64) with an optimum around 0.8–0.9, and
//! ISOLET prefers `R = 1.0`.
//!
//! Usage: `cargo run --release -p memhd_bench --bin fig6 [--quick|--full]`

use hd_linalg::rng::derive_seed;
use hd_linalg::stats::Welford;
use hdc::{encode_dataset, RandomProjectionEncoder};
use memhd::{MemhdConfig, MemhdModel};
use memhd_bench::datasets::Corpus;
use memhd_bench::runconfig::{RunConfig, RunMode};
use memhd_bench::table::Table;

fn main() {
    let rc = RunConfig::from_env();
    // (corpus, D, list of C) — paper: FMNIST and ISOLET at 512x512 / 512x64.
    type Scenario = (Corpus, usize, Vec<usize>);
    let (scenarios, ratios, epochs): (Vec<Scenario>, Vec<f32>, usize) = match rc.mode {
        RunMode::Quick => (
            vec![(Corpus::Fmnist, 256, vec![128, 64]), (Corpus::Isolet, 256, vec![128, 64])],
            vec![0.2, 0.4, 0.6, 0.8, 1.0],
            8,
        ),
        RunMode::Full => (
            vec![(Corpus::Fmnist, 512, vec![512, 64]), (Corpus::Isolet, 512, vec![512, 64])],
            (1..=10).map(|i| i as f32 / 10.0).collect(),
            25,
        ),
    };

    println!(
        "Fig. 6: accuracy vs initial cluster ratio R; mode {:?}, {} trial(s)\n",
        rc.mode, rc.trials
    );

    for (corpus, dim, col_list) in scenarios {
        let k = corpus.num_classes();
        for &cols in &col_list {
            let mut series: Vec<Welford> = vec![Welford::new(); ratios.len()];

            for trial in 0..rc.trials {
                let seed = derive_seed(rc.seed, trial as u64);
                let ds = corpus.generate(rc.mode, seed);
                let encoder = RandomProjectionEncoder::new(
                    ds.feature_dim(),
                    dim,
                    derive_seed(seed, 0x656e63),
                );
                let train = encode_dataset(&encoder, &ds.train_features).expect("encode train");
                let test = encode_dataset(&encoder, &ds.test_features).expect("encode test");

                // Sweep R in parallel over the shared encoding.
                let accs: Vec<(usize, f64)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = ratios
                        .iter()
                        .enumerate()
                        .map(|(ri, &r)| {
                            let encoder = encoder.clone();
                            let train = &train;
                            let test = &test;
                            let ds = &ds;
                            scope.spawn(move || {
                                let cfg = MemhdConfig::new(dim, cols, k)
                                    .expect("valid shape")
                                    .with_initial_cluster_ratio(r)
                                    .expect("valid ratio")
                                    .with_epochs(epochs)
                                    .with_seed(seed);
                                let model =
                                    MemhdModel::fit_encoded(&cfg, encoder, train, &ds.train_labels)
                                        .expect("fit");
                                let acc = model
                                    .evaluate_encoded(&test.bin, &ds.test_labels)
                                    .expect("eval");
                                (ri, acc * 100.0)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("sweep thread")).collect()
                });
                for (ri, acc) in accs {
                    series[ri].push(acc);
                }
            }

            println!("== {} {}x{} ==", corpus.name(), dim, cols);
            let mut t = Table::new(&["R", "accuracy %", "±sd"]);
            for (ri, &r) in ratios.iter().enumerate() {
                t.row(&[
                    format!("{r:.1}"),
                    format!("{:.2}", series[ri].mean()),
                    format!("{:.2}", series[ri].sample_std_dev()),
                ]);
            }
            t.print();
            let best = (0..ratios.len())
                .max_by(|&a, &b| series[a].mean().total_cmp(&series[b].mean()))
                .expect("non-empty");
            let spread = series.iter().map(|w| w.mean()).fold(f64::NEG_INFINITY, f64::max)
                - series.iter().map(|w| w.mean()).fold(f64::INFINITY, f64::min);
            println!("best R = {:.1}; spread across R = {spread:.2}%\n", ratios[best]);
        }
    }
}
