//! Regenerates **Table II**: computation cycles, arrays, and AM
//! utilization for MNIST/FMNIST and ISOLET on 128×128 IMC arrays.
//!
//! Builds real binary AMs of each structure, maps them with the three
//! strategies (Basic, Partitioning P, MEMHD's fully-utilized mapping), and
//! prints per-mapping cycles / arrays / utilization plus the improvement
//! factors the paper headlines (80× cycles, 71× arrays on MNIST).
//!
//! Usage: `cargo run -p memhd_bench --bin table2 [--quick|--full]` (the
//! output is deterministic and the same in both modes)

use hd_linalg::rng::seeded;
use hd_linalg::BitVector;
use hdc::BinaryAm;
use imc_sim::{system_report, AmMapping, ArraySpec, MappingStrategy, SystemReport};
use memhd_bench::runconfig::RunConfig;
use memhd_bench::table::Table;
use rand::Rng;

/// Builds a random binary AM with `vectors` class vectors spread over `k`
/// classes (contents don't affect cycle/array/utilization accounting).
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

struct RowSpec {
    label: &'static str,
    dim: usize,
    strategy: MappingStrategy,
    /// MEMHD rows use their own (smaller) D and a fully-utilized AM.
    memhd: bool,
}

fn report(features: usize, k: usize, spec: ArraySpec, row: &RowSpec) -> SystemReport {
    let vectors = if row.memhd { spec.cols() } else { k };
    let am = random_am(k, vectors, row.dim, 1);
    let mapping = AmMapping::new(&am, spec, row.strategy).expect("valid mapping");
    system_report(features, &mapping)
}

fn print_dataset(title: &str, features: usize, k: usize, rows: &[RowSpec], spec: ArraySpec) {
    println!("== {title} (f = {features}, k = {k}, arrays {spec}) ==");
    let mut t = Table::new(&[
        "mapping",
        "AM structure",
        "EM cyc",
        "AM cyc",
        "total cyc",
        "EM arr",
        "AM arr",
        "total arr",
        "AM util",
    ]);
    let mut reports = Vec::new();
    for row in rows {
        let r = report(features, k, spec, row);
        let vectors = if row.memhd { spec.cols() } else { k };
        let p = match row.strategy {
            MappingStrategy::Partitioned { partitions } => partitions,
            MappingStrategy::Basic => 1,
        };
        let structure = format!("{}x{}", row.dim / p, vectors * p);
        t.row(&[
            row.label.to_string(),
            structure,
            r.em_cycles.to_string(),
            r.am_cycles.to_string(),
            r.total_cycles().to_string(),
            r.em_arrays.to_string(),
            r.am_arrays.to_string(),
            r.total_arrays().to_string(),
            format!("{:.2}%", r.am_utilization * 100.0),
        ]);
        reports.push(r);
    }
    t.print();

    let basic = &reports[0];
    let memhd = reports.last().expect("rows non-empty");
    let best_partition_arrays =
        reports[1..reports.len() - 1].iter().map(SystemReport::total_arrays).min();
    println!(
        "Improvement vs Basic: cycles {:.0}x, arrays {:.0}x (vs best partitioning: {:.1}x), \
         utilization {:.2}% -> {:.2}%\n",
        basic.total_cycles() as f64 / memhd.total_cycles() as f64,
        basic.total_arrays() as f64 / memhd.total_arrays() as f64,
        best_partition_arrays.unwrap_or(basic.total_arrays()) as f64 / memhd.total_arrays() as f64,
        basic.am_utilization * 100.0,
        memhd.am_utilization * 100.0,
    );
}

fn main() {
    // Only validates the flags: an unknown one exits 2.
    RunConfig::from_env();
    let spec = ArraySpec::default();
    println!("Table II: computation cycles, arrays and AM utilization (128x128 IMC array)\n");

    print_dataset(
        "(a) MNIST, FMNIST",
        784,
        10,
        &[
            RowSpec { label: "Basic", dim: 10240, strategy: MappingStrategy::Basic, memhd: false },
            RowSpec {
                label: "Partitioning P=5",
                dim: 10240,
                strategy: MappingStrategy::Partitioned { partitions: 5 },
                memhd: false,
            },
            RowSpec {
                label: "Partitioning P=10",
                dim: 10240,
                strategy: MappingStrategy::Partitioned { partitions: 10 },
                memhd: false,
            },
            RowSpec {
                label: "MEMHD 128x128",
                dim: 128,
                strategy: MappingStrategy::Basic,
                memhd: true,
            },
        ],
        spec,
    );

    print_dataset(
        "(b) ISOLET",
        617,
        26,
        &[
            RowSpec { label: "Basic", dim: 10240, strategy: MappingStrategy::Basic, memhd: false },
            RowSpec {
                label: "Partitioning P=2",
                dim: 10240,
                strategy: MappingStrategy::Partitioned { partitions: 2 },
                memhd: false,
            },
            RowSpec {
                label: "Partitioning P=4",
                dim: 10240,
                strategy: MappingStrategy::Partitioned { partitions: 4 },
                memhd: false,
            },
            RowSpec {
                label: "MEMHD 512x128",
                dim: 512,
                strategy: MappingStrategy::Basic,
                memhd: true,
            },
        ],
        spec,
    );
}
