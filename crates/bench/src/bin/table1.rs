//! Regenerates **Table I**: memory requirements of baseline HDC models.
//!
//! Prints the symbolic formulas instantiated for each dataset's feature
//! width at representative dimensionalities, matching the paper's setup:
//! `L = 256`, `N = 64`.
//!
//! Usage: `cargo run -p memhd_bench --bin table1 [--quick|--full]` (the
//! output is deterministic and the same in both modes)

use hd_baselines::{baseline_memory, BaselineKind};
use memhd_bench::runconfig::RunConfig;
use memhd_bench::table::Table;

const LEVELS: usize = 256;
const SEARCHD_N: usize = 64;

fn main() {
    // Only validates the flags: an unknown one exits 2.
    RunConfig::from_env();
    println!("Table I: memory requirements of baseline HDC models");
    println!("(L = {LEVELS} levels, SearcHD N = {SEARCHD_N}; sizes in KB)\n");

    for (dataset, f, k) in [("MNIST/FMNIST", 784usize, 10usize), ("ISOLET", 617, 26)] {
        println!("== {dataset} (f = {f}, k = {k}) ==");
        let mut t = Table::new(&[
            "model",
            "encoding",
            "D",
            "EM formula",
            "AM formula",
            "EM KB",
            "AM KB",
            "total KB",
        ]);
        let entries: Vec<(BaselineKind, usize, &str, String, String)> = vec![
            (
                BaselineKind::SearcHd { n: SEARCHD_N },
                10240,
                "ID-Level",
                "(f+L)*D".into(),
                format!("k*D*{SEARCHD_N}"),
            ),
            (BaselineKind::QuantHd, 10240, "ID-Level", "(f+L)*D".into(), "k*D".into()),
            (BaselineKind::LeHdc, 10240, "ID-Level", "(f+L)*D".into(), "k*D".into()),
            (BaselineKind::BasicHdc, 10240, "Projection", "f*D".into(), "k*D".into()),
            (BaselineKind::Memhd { columns: 128 }, 128, "Projection", "f*D".into(), "C*D".into()),
        ];
        for (kind, dim, encoding, em_formula, am_formula) in entries {
            let r = baseline_memory(kind, f, LEVELS, dim, k);
            t.row(&[
                kind.name().to_string(),
                encoding.to_string(),
                dim.to_string(),
                em_formula,
                am_formula,
                format!("{:.1}", r.em_kb()),
                format!("{:.1}", r.am_kb()),
                format!("{:.1}", r.total_kb()),
            ]);
        }
        t.print();
        println!();
    }

    println!(
        "Note: only BasicHDC and MEMHD use MVM-compatible projection encoding,\n\
         so only they map the encoding module directly onto IMC arrays."
    );
}
