//! Regenerates **Fig. 4**: MEMHD accuracy heatmap over hypervector
//! dimensions `D` and memory columns `C`.
//!
//! For each dataset the encoding is computed once per `D` and the column
//! sweep runs in parallel, mirroring how the AM shape can be retargeted to
//! different arrays without re-encoding. The paper's observations to look
//! for: MNIST/FMNIST accuracy grows with both `D` and `C`; ISOLET (few
//! samples per class) peaks at moderate column counts and *degrades* when
//! columns over-fragment the classes.
//!
//! Usage: `cargo run --release -p memhd_bench --bin fig4 [--quick|--full]`

use hd_linalg::rng::derive_seed;
use hd_linalg::stats::Welford;
use hdc::{encode_dataset, RandomProjectionEncoder};
use memhd::{MemhdConfig, MemhdModel};
use memhd_bench::datasets::Corpus;
use memhd_bench::runconfig::{RunConfig, RunMode};
use memhd_bench::table::Table;

fn main() {
    let rc = RunConfig::from_env();
    let (dims, cols, epochs) = match rc.mode {
        RunMode::Quick => (vec![64usize, 128, 256], vec![64usize, 128, 256], 8usize),
        RunMode::Full => (vec![64, 128, 256, 512, 1024], vec![64, 128, 256, 512, 1024], 25),
    };

    println!(
        "Fig. 4: MEMHD accuracy heatmap (D x C); mode {:?}, {} trial(s), seed {}\n",
        rc.mode, rc.trials, rc.seed
    );

    for corpus in Corpus::ALL {
        let k = corpus.num_classes();
        // ISOLET's ~240-sample classes cannot seed very wide AMs; the paper
        // accordingly explores it at modest column counts.
        let corpus_cols: Vec<usize> = match corpus {
            Corpus::Isolet => cols.iter().copied().filter(|&c| c <= 512).collect(),
            _ => cols.clone(),
        };

        // cell[(di, ci)] accumulates over trials.
        let mut cells: Vec<Vec<Welford>> =
            vec![vec![Welford::new(); corpus_cols.len()]; dims.len()];

        for trial in 0..rc.trials {
            let seed = derive_seed(rc.seed, trial as u64);
            let ds = corpus.generate(rc.mode, seed);

            for (di, &dim) in dims.iter().enumerate() {
                let encoder = RandomProjectionEncoder::new(
                    ds.feature_dim(),
                    dim,
                    derive_seed(seed, 0x656e63),
                );
                let train = encode_dataset(&encoder, &ds.train_features).expect("encode train");
                let test = encode_dataset(&encoder, &ds.test_features).expect("encode test");

                // Sweep columns in parallel over one shared encoding.
                let accs: Vec<(usize, f64)> = std::thread::scope(|scope| {
                    let handles: Vec<_> = corpus_cols
                        .iter()
                        .enumerate()
                        .map(|(ci, &c)| {
                            let encoder = encoder.clone();
                            let train = &train;
                            let test = &test;
                            let ds = &ds;
                            scope.spawn(move || {
                                let cfg = MemhdConfig::new(dim, c, k)
                                    .expect("valid shape")
                                    .with_epochs(epochs)
                                    .with_seed(seed);
                                let model =
                                    MemhdModel::fit_encoded(&cfg, encoder, train, &ds.train_labels)
                                        .expect("fit");
                                let acc = model
                                    .evaluate_encoded(&test.bin, &ds.test_labels)
                                    .expect("eval");
                                (ci, acc * 100.0)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().expect("sweep thread")).collect()
                });
                for (ci, acc) in accs {
                    cells[di][ci].push(acc);
                }
            }
        }

        println!("== {} (accuracy %, rows = D, cols = C) ==", corpus.name());
        let mut headers: Vec<String> = vec!["D \\ C".into()];
        headers.extend(corpus_cols.iter().map(|c| c.to_string()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(&header_refs);
        for (di, &dim) in dims.iter().enumerate() {
            let mut row = vec![dim.to_string()];
            row.extend(cells[di].iter().map(|w| format!("{:.2}", w.mean())));
            t.row(&row);
        }
        t.print();

        // Shape check the paper highlights for ISOLET: the best column
        // count is not the largest one.
        if corpus == Corpus::Isolet {
            let last_d = dims.len() - 1;
            let best_ci = (0..corpus_cols.len())
                .max_by(|&a, &b| cells[last_d][a].mean().total_cmp(&cells[last_d][b].mean()))
                .expect("non-empty");
            println!(
                "ISOLET peak at C = {} for D = {} (paper: peak at 128-256 columns)",
                corpus_cols[best_ci], dims[last_d]
            );
        }
        println!();
    }
}
