//! Ablation benches for the design choices DESIGN.md calls out, plus an
//! extension experiment the paper motivates but does not measure: accuracy
//! under IMC cell faults.
//!
//! Sweeps:
//! 1. **Allocation rounds** — how much does batching the §III-A-2
//!    validate-allocate-recluster loop matter?
//! 2. **Learning rate** — the paper prescribes 0.01–0.1; where does this
//!    pipeline sit?
//! 3. **Initial cluster ratio extremes** vs the default 0.8 (cheap echo of
//!    Fig. 6).
//! 4. **Bit-error-rate robustness** — MEMHD 128x128 vs BasicHDC 1024D
//!    accuracy as programmed cells flip, exercising the HDC noise-
//!    robustness claim from the paper's introduction on mapped arrays.
//!
//! Usage: `cargo run --release -p memhd_bench --bin ablation [--quick|--full]`

use hd_baselines::BasicHdc;
use hd_linalg::rng::derive_seed;
use hd_linalg::stats::Welford;
use hdc::{Encoder, RandomProjectionEncoder};
use imc_sim::{AmMapping, ArraySpec, FaultModel, FaultyAmMapping, MappingStrategy};
use memhd::{MemhdConfig, MemhdModel};
use memhd_bench::datasets::Corpus;
use memhd_bench::runconfig::{RunConfig, RunMode};
use memhd_bench::table::Table;

fn main() {
    let rc = RunConfig::from_env();
    let epochs = match rc.mode {
        RunMode::Quick => 8,
        RunMode::Full => 25,
    };
    println!("Ablations; mode {:?}, {} trial(s), seed {}\n", rc.mode, rc.trials, rc.seed);

    // Shared per-trial setup: FMNIST-like data encoded at D=128.
    let corpus = Corpus::Fmnist;
    let k = corpus.num_classes();

    // --- 1. allocation rounds ---
    let mut t = Table::new(&["allocation rounds", "accuracy %", "±sd"]);
    for rounds in [1usize, 2, 4, 8] {
        let mut w = Welford::new();
        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);
            let cfg = MemhdConfig::new(128, 128, k)
                .expect("config")
                .with_allocation_rounds(rounds)
                .expect("rounds")
                .with_initial_cluster_ratio(0.5)
                .expect("ratio")
                .with_epochs(epochs)
                .with_seed(seed);
            let model = MemhdModel::fit(&cfg, &ds.train_features, &ds.train_labels).expect("fit");
            w.push(model.evaluate(&ds.test_features, &ds.test_labels).expect("eval") * 100.0);
        }
        t.row(&[
            rounds.to_string(),
            format!("{:.2}", w.mean()),
            format!("{:.2}", w.sample_std_dev()),
        ]);
    }
    println!("1) allocation rounds (R = 0.5 so half the columns go through allocation):");
    t.print();

    // --- 2. learning rate ---
    let mut t = Table::new(&["learning rate", "accuracy %", "±sd"]);
    for lr in [0.002f32, 0.01, 0.05, 0.1] {
        let mut w = Welford::new();
        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);
            let cfg = MemhdConfig::new(128, 128, k)
                .expect("config")
                .with_learning_rate(lr)
                .expect("lr")
                .with_epochs(epochs)
                .with_seed(seed);
            let model = MemhdModel::fit(&cfg, &ds.train_features, &ds.train_labels).expect("fit");
            w.push(model.evaluate(&ds.test_features, &ds.test_labels).expect("eval") * 100.0);
        }
        t.row(&[format!("{lr}"), format!("{:.2}", w.mean()), format!("{:.2}", w.sample_std_dev())]);
    }
    println!("\n2) learning rate (paper range 0.01-0.1):");
    t.print();

    // --- 3. initial cluster ratio extremes ---
    let mut t = Table::new(&["R", "accuracy %", "±sd"]);
    for r in [0.1f32, 0.5, 0.8, 1.0] {
        let mut w = Welford::new();
        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);
            let cfg = MemhdConfig::new(128, 64, k)
                .expect("config")
                .with_initial_cluster_ratio(r)
                .expect("ratio")
                .with_epochs(epochs)
                .with_seed(seed);
            let model = MemhdModel::fit(&cfg, &ds.train_features, &ds.train_labels).expect("fit");
            w.push(model.evaluate(&ds.test_features, &ds.test_labels).expect("eval") * 100.0);
        }
        t.row(&[format!("{r}"), format!("{:.2}", w.mean()), format!("{:.2}", w.sample_std_dev())]);
    }
    println!("\n3) initial cluster ratio at a narrow AM (128x64):");
    t.print();

    // --- 4. bit-error-rate robustness on mapped arrays ---
    println!("\n4) accuracy vs array bit-error rate (MEMHD 128x128 vs BasicHDC 1024D):");
    let mut t = Table::new(&["BER", "MEMHD %", "BasicHDC %"]);
    let bers = [0.0f64, 0.01, 0.02, 0.05, 0.10, 0.20];
    let mut memhd_acc = vec![Welford::new(); bers.len()];
    let mut basic_acc = vec![Welford::new(); bers.len()];
    for trial in 0..rc.trials {
        let seed = derive_seed(rc.seed, trial as u64);
        let ds = corpus.generate(rc.mode, seed);
        let cfg =
            MemhdConfig::new(128, 128, k).expect("config").with_epochs(epochs).with_seed(seed);
        let memhd = MemhdModel::fit(&cfg, &ds.train_features, &ds.train_labels).expect("memhd fit");
        let basic =
            BasicHdc::fit(1024, &ds.train_features, &ds.train_labels, k, seed).expect("basic fit");

        // Pre-encode the test queries once per model, packed for the
        // batched mapped search.
        let memhd_batch = memhd.encoder().encode_binary_batch(&ds.test_features).expect("enc");
        let basic_batch = RandomProjectionEncoder::new(ds.feature_dim(), 1024, seed)
            .encode_binary_batch(&ds.test_features)
            .expect("enc");

        let spec = ArraySpec::default();
        let memhd_map =
            AmMapping::new(memhd.binary_am(), spec, MappingStrategy::Basic).expect("map");
        let basic_map =
            AmMapping::new(basic.binary_am(), spec, MappingStrategy::Basic).expect("map");

        for (bi, &ber) in bers.iter().enumerate() {
            let fm = FaultyAmMapping::program(&memhd_map, FaultModel::bit_flip(ber), seed)
                .expect("faulty");
            let fb = FaultyAmMapping::program(&basic_map, FaultModel::bit_flip(ber), seed)
                .expect("faulty");
            let preds_m =
                fm.as_mapping().search_batch(&memhd_batch).expect("search").predicted_classes;
            let preds_b =
                fb.as_mapping().search_batch(&basic_batch).expect("search").predicted_classes;
            let correct_m = preds_m.iter().zip(&ds.test_labels).filter(|(p, l)| p == l).count();
            let correct_b = preds_b.iter().zip(&ds.test_labels).filter(|(p, l)| p == l).count();
            memhd_acc[bi].push(correct_m as f64 / ds.test_len() as f64 * 100.0);
            basic_acc[bi].push(correct_b as f64 / ds.test_len() as f64 * 100.0);
        }
    }
    for (bi, &ber) in bers.iter().enumerate() {
        t.row(&[
            format!("{ber:.2}"),
            format!("{:.2}", memhd_acc[bi].mean()),
            format!("{:.2}", basic_acc[bi].mean()),
        ]);
    }
    t.print();
}
