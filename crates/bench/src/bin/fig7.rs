//! Regenerates **Fig. 7**: normalized AM energy consumption and cycles
//! against array usage, for the FMNIST-equivalent-accuracy configurations.
//!
//! The paper compares, at matched FMNIST accuracy: BasicHDC 10240×10 (and
//! its P=10 partitioning), SearcHD 8000×10 (and P=10), QuantHD 1600×10
//! (and P=10), LeHDC 400×10 (and P=4), and MEMHD 128×128. All models use
//! MVM-based associative search, so their AMs map with the same machinery.
//!
//! Usage: `cargo run -p memhd_bench --bin fig7 [--quick|--full]` (the
//! output is deterministic and the same in both modes)

use hd_linalg::rng::seeded;
use hd_linalg::BitVector;
use hdc::BinaryAm;
use imc_sim::{AmMapping, ArraySpec, EnergyModel, MappingStrategy};
use memhd_bench::runconfig::RunConfig;
use memhd_bench::table::Table;
use rand::Rng;

fn random_am(k: usize, vectors: usize, dim: usize, seed: u64) -> BinaryAm {
    let mut rng = seeded(seed);
    let centroids: Vec<(usize, BitVector)> = (0..vectors)
        .map(|v| {
            let bits: Vec<bool> = (0..dim).map(|_| rng.gen()).collect();
            (v % k, BitVector::from_bools(&bits))
        })
        .collect();
    BinaryAm::from_centroids(k, centroids).expect("valid AM")
}

struct Config {
    label: &'static str,
    dim: usize,
    vectors: usize,
    k: usize,
    strategy: MappingStrategy,
}

fn main() {
    // Only validates the flags: an unknown one exits 2.
    RunConfig::from_env();
    let spec = ArraySpec::default();
    let energy = EnergyModel::default();
    // SearcHD's multi-model AM is k*N columns wide; the paper's Fig. 7
    // labels the *logical* class-vector count (10) because its N models
    // are searched as one MVM; we model the k-column equivalent the figure
    // reports for the AM structure, i.e. the quantized class vectors that
    // participate in one search cycle group.
    let configs = [
        Config {
            label: "BasicHDC 10240x10",
            dim: 10240,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Basic,
        },
        Config {
            label: "BasicHDC 1024x100 (P=10)",
            dim: 10240,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Partitioned { partitions: 10 },
        },
        Config {
            label: "SearcHD 8000x10",
            dim: 8000,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Basic,
        },
        Config {
            label: "SearcHD 800x100 (P=10)",
            dim: 8000,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Partitioned { partitions: 10 },
        },
        Config {
            label: "QuantHD 1600x10",
            dim: 1600,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Basic,
        },
        Config {
            label: "QuantHD 160x100 (P=10)",
            dim: 1600,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Partitioned { partitions: 10 },
        },
        Config {
            label: "LeHDC 400x10",
            dim: 400,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Basic,
        },
        Config {
            label: "LeHDC 100x40 (P=4)",
            dim: 400,
            vectors: 10,
            k: 10,
            strategy: MappingStrategy::Partitioned { partitions: 4 },
        },
        Config {
            label: "MEMHD 128x128",
            dim: 128,
            vectors: 128,
            k: 10,
            strategy: MappingStrategy::Basic,
        },
    ];

    println!(
        "Fig. 7: normalized AM energy and cycles vs array usage (FMNIST-equivalent accuracy)\n"
    );
    let mut rows = Vec::new();
    for c in &configs {
        let am = random_am(c.k, c.vectors, c.dim, 7);
        let mapping = AmMapping::new(&am, spec, c.strategy).expect("valid mapping");
        let stats = mapping.stats();
        let e = mapping.inference_energy_pj(&energy);
        rows.push((c.label, stats.arrays, stats.cycles, e));
    }
    let min_energy = rows.iter().map(|r| r.3).fold(f64::INFINITY, f64::min);

    let mut t = Table::new(&["config", "AM arrays", "AM cycles", "energy pJ", "energy (norm)"]);
    for (label, arrays, cycles, e) in &rows {
        t.row(&[
            label.to_string(),
            arrays.to_string(),
            cycles.to_string(),
            format!("{e:.1}"),
            format!("{:.1}", e / min_energy),
        ]);
    }
    t.print();

    let basic = rows[0].3;
    let lehdc = rows[6].3;
    let memhd = rows.last().expect("non-empty").3;
    println!(
        "\nMEMHD vs BasicHDC energy: {:.0}x more efficient; vs LeHDC: {:.0}x\n\
         (paper: 80x and 4x). Partitioned variants keep the same energy as\n\
         their unpartitioned bases — fewer arrays, proportionally more cycles.",
        basic / memhd,
        lehdc / memhd
    );
}
