//! Perf-regression gate over the committed `BENCH_search.json` baseline.
//!
//! Re-runs (or reads) the criterion ids recorded in the baseline file and
//! exits non-zero if any of them regressed by more than the threshold —
//! run it manually after kernel changes, on hardware and a kernel backend
//! comparable to the baseline's recorded environment (CI only compiles
//! benches; shared runners are too noisy to gate on wall-clock).
//!
//! ```text
//! # One-shot: re-run the baseline benches and compare.
//! cargo run --release -p memhd_bench --bin bench_check -- --run
//!
//! # Two-step: benchmark into a file, then compare.
//! CRITERION_JSON=/tmp/new.json cargo bench -p memhd_bench --bench associative_search
//! CRITERION_JSON=/tmp/new.json cargo bench -p memhd_bench --bench serve_throughput
//! cargo run -p memhd_bench --bin bench_check -- --current /tmp/new.json
//!
//! # CI smoke: run the pipeline end to end, fail only if it breaks
//! # (ids missing / benches erroring), never on noisy-runner ratios.
//! cargo run --release -p memhd_bench --bin bench_check -- --smoke
//! ```
//!
//! Flags: `--baseline <path>` (default `BENCH_search.json`),
//! `--current <path>` (a `CRITERION_JSON` lines file), `--run` (invoke
//! `cargo bench` itself; default every bench in `BENCHES`; repeat
//! `--bench <name>` to pick some, which also scopes the gate to the ids
//! they produce),
//! `--smoke` (CI mode: like `--run` but only id presence is checked),
//! `--threshold <pct>` (default 10). Numbers are only comparable
//! like-for-like: same machine class and same kernel backend
//! (`HD_LINALG_BACKEND`) as the baseline's recorded environment.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The benches `--run` knows, in their default order, each with the
/// criterion group prefixes of the ids it produces. `fault_tolerance`
/// records deterministic accuracy percentages, not times, so its ratios
/// are always 1.00x.
const BENCHES: &[(&str, &[&str])] = &[
    (
        "associative_search",
        &[
            "associative_search/",
            "associative_search_batched/",
            "cascade_search/",
            "cascade_repeat/",
            "cascade_calibrated/",
        ],
    ),
    ("serve_throughput", &["serve_throughput/"]),
    ("wire_throughput", &["wire_throughput/"]),
    ("topk_search", &["topk_search/"]),
    ("fault_tolerance", &["fault_tolerance/"]),
    ("encoding", &["encode/"]),
];

/// Keeps the baseline ids that the named benches produce, so running
/// some benches does not report the others' ids as MISSING.
fn scope_to_benches(
    baseline: &mut BTreeMap<String, f64>,
    benches: &[String],
) -> Result<(), String> {
    let mut prefixes = Vec::new();
    for bench in benches {
        let Some((_, groups)) = BENCHES.iter().find(|(name, _)| name == bench) else {
            let known: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
            return Err(format!("unknown --bench `{bench}` (known: {})", known.join(", ")));
        };
        prefixes.extend_from_slice(groups);
    }
    baseline.retain(|id, _| prefixes.iter().any(|p| id.starts_with(p)));
    if baseline.is_empty() {
        return Err("no baseline ids match the selected --bench set".into());
    }
    Ok(())
}

/// Extracts every `"id": "...", ... "ns_per_iter": <num>` pair from a
/// JSON document or a criterion-shim JSON-lines file. A full JSON parser
/// is overkill for the two fixed schemas this tool reads.
fn parse_results(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rest = text;
    while let Some(idx) = rest.find("\"id\"") {
        rest = &rest[idx + 4..];
        let Some(open) = rest.find('"') else { break };
        let Some(close) = rest[open + 1..].find('"') else { break };
        let id = rest[open + 1..open + 1 + close].to_string();
        rest = &rest[open + 1 + close..];
        let Some(nidx) = rest.find("\"ns_per_iter\"") else { continue };
        // Pair only within this record: an id whose record lacks a
        // ns_per_iter (e.g. a truncated line) must not steal the next
        // record's timing.
        if let Some(next_id) = rest.find("\"id\"") {
            if next_id < nidx {
                continue;
            }
        }
        let after = &rest[nidx + 13..];
        let num: String = after
            .chars()
            .skip_while(|c| *c == ':' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == 'e' || *c == '-' || *c == '+')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            // First occurrence wins: the baseline file's primary `results`
            // section precedes any archived (e.g. pre-SIMD) sections.
            out.entry(id).or_insert(v);
        }
        rest = after;
    }
    out
}

fn read_results(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let results = parse_results(&text);
    if results.is_empty() {
        return Err(format!("{path}: no (id, ns_per_iter) records found"));
    }
    Ok(results)
}

/// The backend name recorded in a baseline's `environment.kernel_backend`
/// field (first word of the value, e.g. `"avx512 (auto-detected; ...)"`
/// → `avx512`), if present.
fn baseline_backend(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let idx = text.find("\"kernel_backend\"")?;
    let rest = &text[idx + 16..];
    let open = rest.find('"')?;
    let close = rest[open + 1..].find('"')?;
    let value = &rest[open + 1..open + 1 + close];
    Some(value.split_whitespace().next()?.to_string())
}

/// Runs the named benches with `CRITERION_JSON` pointed at one shared
/// scratch file and returns the merged parsed results.
fn run_benches(benches: &[String]) -> Result<BTreeMap<String, f64>, String> {
    let out_path = std::env::temp_dir().join(format!("bench_check_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out_path);
    for bench in benches {
        eprintln!("bench_check: running `cargo bench -p memhd_bench --bench {bench}` ...");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["bench", "-p", "memhd_bench", "--bench", bench])
            .env("CRITERION_JSON", &out_path)
            .status()
            .map_err(|e| format!("failed to spawn cargo bench: {e}"))?;
        if !status.success() {
            return Err(format!("cargo bench --bench {bench} exited with {status}"));
        }
    }
    let results = read_results(out_path.to_str().expect("utf-8 temp path"));
    let _ = std::fs::remove_file(&out_path);
    results
}

/// Parses a `--threshold` percentage. NaN, infinite and negative values
/// are rejected: a NaN threshold makes every ratio compare false, so the
/// gate would pass every id silently.
fn parse_threshold(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(t) if t.is_finite() && t >= 0.0 => Ok(t),
        Ok(_) => Err(format!("--threshold must be a finite percentage >= 0, got {v}")),
        Err(e) => Err(format!("--threshold: {e}")),
    }
}

fn usage() -> String {
    "usage: bench_check [--baseline <json>] [--current <json> | --run | --smoke] \
     [--bench <name>]... [--threshold <pct>] [--allow-backend-mismatch]"
        .to_string()
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_search.json".to_string();
    let mut current_path: Option<String> = None;
    let mut benches: Vec<String> = Vec::new();
    let mut threshold = 10.0f64;
    let mut run = false;
    let mut smoke = false;
    let mut allow_backend_mismatch = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let r = match a.as_str() {
            "--baseline" => take("--baseline").map(|v| baseline_path = v),
            "--current" => take("--current").map(|v| current_path = Some(v)),
            "--bench" => take("--bench").map(|v| benches.push(v)),
            "--threshold" => {
                take("--threshold").and_then(|v| parse_threshold(&v)).map(|t| threshold = t)
            }
            "--run" => {
                run = true;
                Ok(())
            }
            "--smoke" => {
                // CI mode: run the full bench pipeline and verify it
                // produces results, but never gate on wall-clock (shared
                // runners are too noisy) or on the recorded backend.
                smoke = true;
                run = true;
                Ok(())
            }
            "--allow-backend-mismatch" => {
                allow_backend_mismatch = true;
                Ok(())
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument `{other}`\n{}", usage())),
        };
        if let Err(e) = r {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    }

    let benches_explicit = !benches.is_empty();
    if benches.is_empty() {
        benches = BENCHES.iter().map(|(name, _)| name.to_string()).collect();
    }

    let mut baseline = match read_results(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    if benches_explicit {
        if let Err(e) = scope_to_benches(&mut baseline, &benches) {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    }

    // Numbers are only comparable like-for-like: refuse to diff against a
    // baseline recorded on a different kernel backend (an AVX2-only or
    // aarch64 host would otherwise see nothing but false REGRESSED rows).
    let active = hd_linalg::kernel::active().name();
    if let Some(recorded) = baseline_backend(&baseline_path) {
        if recorded != active && !allow_backend_mismatch && !smoke {
            eprintln!(
                "bench_check: baseline was recorded on the `{recorded}` kernel backend but \
                 this host resolves `{active}` — numbers are not comparable. Re-record the \
                 baseline on this host, force the backend with HD_LINALG_BACKEND={recorded}, \
                 or pass --allow-backend-mismatch to compare anyway."
            );
            return ExitCode::from(2);
        }
    }
    let current = match (run, current_path) {
        (true, _) => run_benches(&benches),
        (false, Some(p)) => read_results(&p),
        (false, None) => Err(format!("need --current <json>, --run, or --smoke\n{}", usage())),
    };
    let current = match current {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0usize;
    let mut missing = 0usize;
    println!("{:<52} {:>12} {:>12} {:>8}", "id", "baseline", "current", "ratio");
    for (id, &base) in &baseline {
        match current.get(id) {
            Some(&now) => {
                let ratio = now / base;
                let flag = if ratio > 1.0 + threshold / 100.0 {
                    regressions += 1;
                    "  REGRESSED"
                } else if ratio < 1.0 - threshold / 100.0 {
                    "  improved"
                } else {
                    ""
                };
                println!("{id:<52} {base:>10.1}ns {now:>10.1}ns {ratio:>7.2}x{flag}");
            }
            None => {
                missing += 1;
                println!("{id:<52} {base:>10.1}ns {:>12} {:>8}", "-", "MISSING");
            }
        }
    }

    if smoke {
        // The pipeline ran and produced results; wall-clock ratios on a
        // shared runner are informational only. Missing ids still fail:
        // they mean a bench or the baseline file is broken.
        if missing > 0 {
            eprintln!("bench_check: {missing} baseline id(s) missing from the smoke run");
            return ExitCode::FAILURE;
        }
        println!(
            "bench_check: smoke check passed ({} ids produced; ratios not gated)",
            baseline.len()
        );
        return ExitCode::SUCCESS;
    }
    if missing > 0 {
        eprintln!("bench_check: {missing} baseline id(s) missing from the current run");
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!("bench_check: {regressions} regression(s) beyond {threshold}%");
        return ExitCode::FAILURE;
    }
    println!("bench_check: all {} ids within {threshold}% of baseline", baseline.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_results, parse_threshold, scope_to_benches};

    /// The committed baseline's ids, scoped to one bench.
    fn baseline_ids_of(bench: &str) -> Vec<String> {
        let mut baseline = parse_results(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_search.json"
        )));
        scope_to_benches(&mut baseline, &[bench.to_string()]).unwrap();
        baseline.into_keys().collect()
    }

    #[test]
    fn bench_scope_follows_criterion_group_names() {
        let encoding = baseline_ids_of("encoding");
        assert_eq!(encoding.len(), 7, "{encoding:?}");
        assert!(encoding.iter().all(|id| id.starts_with("encode/")), "{encoding:?}");
        let search = baseline_ids_of("associative_search");
        let cascade = search.iter().filter(|id| id.starts_with("cascade_")).count();
        assert_eq!(cascade, 9, "{search:?}");
        assert!(search.iter().all(|id| !id.starts_with("serve_throughput/")), "{search:?}");
        let mut unknown = parse_results("{\"id\": \"a/b\", \"ns_per_iter\": 1.0}");
        assert!(scope_to_benches(&mut unknown, &["training".to_string()]).is_err());
    }

    #[test]
    fn parses_baseline_schema() {
        let doc = r#"{
            "results": [
                { "id": "a/b", "ns_per_iter": 565.1 },
                { "id": "c/d/10", "ns_per_iter": 2443287.9 }
            ]
        }"#;
        let r = parse_results(doc);
        assert_eq!(r.len(), 2);
        assert_eq!(r["a/b"], 565.1);
        assert_eq!(r["c/d/10"], 2443287.9);
    }

    #[test]
    fn parses_criterion_lines_schema() {
        let doc = "{\"id\": \"x/y\", \"ns_per_iter\": 12.5, \"samples\": 10}\n\
                   {\"id\": \"x/z\", \"ns_per_iter\": 1e3, \"samples\": 10}\n";
        let r = parse_results(doc);
        assert_eq!(r["x/y"], 12.5);
        assert_eq!(r["x/z"], 1000.0);
    }

    #[test]
    fn tolerates_garbage() {
        assert!(parse_results("not json at all").is_empty());
        assert!(parse_results("{\"id\": \"trunc").is_empty());
    }

    #[test]
    fn id_without_timing_does_not_steal_next_record() {
        let doc = "{\"id\": \"broken\"}\n{\"id\": \"ok\", \"ns_per_iter\": 7.0}\n";
        let r = parse_results(doc);
        assert_eq!(r.len(), 1);
        assert_eq!(r["ok"], 7.0);
        assert!(!r.contains_key("broken"));
    }

    #[test]
    fn threshold_must_be_a_finite_non_negative_percentage() {
        assert_eq!(parse_threshold("10"), Ok(10.0));
        assert_eq!(parse_threshold("0"), Ok(0.0));
        for bad in ["nan", "NaN", "inf", "-inf", "-5", "ten"] {
            assert!(parse_threshold(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
