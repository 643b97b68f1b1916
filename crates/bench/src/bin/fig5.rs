//! Regenerates **Fig. 5**: clustering-based vs random-sampling
//! initialization — test accuracy per training epoch.
//!
//! The paper's claims to check: clustering starts substantially higher
//! (+8.69% on MNIST 512x512, +19.95% on ISOLET 1024x256), converges in
//! fewer epochs, and ends slightly ahead.
//!
//! Usage: `cargo run --release -p memhd_bench --bin fig5 [--quick|--full]`

use hd_linalg::rng::derive_seed;
use hd_linalg::stats::Welford;
use hdc::{encode_dataset, RandomProjectionEncoder};
use memhd::{InitMethod, MemhdConfig, MemhdModel};
use memhd_bench::datasets::Corpus;
use memhd_bench::runconfig::{RunConfig, RunMode};
use memhd_bench::table::Table;

fn main() {
    let rc = RunConfig::from_env();
    // (corpus, D, C, epochs) — paper uses MNIST 512x512 and ISOLET 1024x256
    // over ~50 epochs; quick mode shrinks the shapes and horizon.
    let scenarios: Vec<(Corpus, usize, usize, usize)> = match rc.mode {
        RunMode::Quick => {
            vec![(Corpus::Mnist, 256, 128, 15), (Corpus::Isolet, 512, 128, 15)]
        }
        RunMode::Full => {
            vec![(Corpus::Mnist, 512, 512, 50), (Corpus::Isolet, 1024, 256, 50)]
        }
    };

    println!(
        "Fig. 5: clustering vs random-sampling initialization; mode {:?}, {} trial(s)\n",
        rc.mode, rc.trials
    );

    for (corpus, dim, cols, epochs) in scenarios {
        let k = corpus.num_classes();
        // curves[init][epoch] accumulated over trials.
        let mut curves: Vec<Vec<Welford>> = vec![vec![Welford::new(); epochs + 1]; 2];

        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);
            let encoder =
                RandomProjectionEncoder::new(ds.feature_dim(), dim, derive_seed(seed, 0x656e63));
            let train = encode_dataset(&encoder, &ds.train_features).expect("encode train");
            let test = encode_dataset(&encoder, &ds.test_features).expect("encode test");

            for (mi, method) in
                [InitMethod::Clustering, InitMethod::RandomSampling].into_iter().enumerate()
            {
                let cfg = MemhdConfig::new(dim, cols, k)
                    .expect("valid shape")
                    .with_epochs(epochs)
                    .with_init_method(method)
                    .with_seed(seed);
                let model = MemhdModel::fit_encoded_with_eval(
                    &cfg,
                    encoder.clone(),
                    &train,
                    &ds.train_labels,
                    Some((&test.bin, &ds.test_labels)),
                )
                .expect("fit");
                let records = model.history().records();
                // Early-stopped runs hold their last value to the horizon.
                let mut last = 0.0;
                for (e, bucket) in curves[mi].iter_mut().enumerate() {
                    if let Some(r) = records.get(e) {
                        last = r.eval_accuracy.expect("eval recorded") * 100.0;
                    }
                    bucket.push(last);
                }
            }
        }

        println!("== {} {}x{} ({} epochs) ==", corpus.name(), dim, cols, epochs);
        let mut t = Table::new(&["epoch", "clustering %", "random %", "gap"]);
        let step = (epochs / 10).max(1);
        for e in (0..=epochs).step_by(step) {
            let c = curves[0][e].mean();
            let r = curves[1][e].mean();
            t.row(&[e.to_string(), format!("{c:.2}"), format!("{r:.2}"), format!("{:+.2}", c - r)]);
        }
        t.print();
        let init_gap = curves[0][0].mean() - curves[1][0].mean();
        let final_gap = curves[0][epochs].mean() - curves[1][epochs].mean();
        println!(
            "initial-accuracy gap {init_gap:+.2}% (paper: +8.69% MNIST / +19.95% ISOLET); \
             final gap {final_gap:+.2}%\n"
        );
    }
}
