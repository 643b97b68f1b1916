//! The serving benchmark: one closed-loop workload per run, measured end
//! to end (untraced) or layer by layer (traced).
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload wire_flagship_burst --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `servebench/README.md` for the workloads and metrics.

mod lane;
mod measure;
mod oracle;
mod trace;
mod workloads;

use measure::{median, peak_rss_mib, quantile};
use std::sync::Arc;
use trace::FlushLog;
use workloads::{Kind, Phase, SliceStat, Workload};

/// Set-ups per untraced run: at least `SETUP_MIN`, and more (up to
/// `SETUP_MAX`) while they have taken less than `SETUP_BUDGET` in all;
/// `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET: std::time::Duration = std::time::Duration::from_secs(2);
/// Length of one slice of an untraced timed phase.
const SLICE_SECONDS: f64 = 0.25;
/// Timings are the slice at this quantile on the favourable side (the
/// 90th percentile of throughput, the 10th of latency and CPU). Load
/// from elsewhere on a shared host only ever slows a slice, and it comes
/// in spells of seconds; the favourable tenth reads the program as long
/// as a tenth of the run is left alone, where a median jumps whenever a
/// spell covers about half of it.
const FAVOURABLE: f64 = 0.1;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?} (expected one of {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn per_query(total: f64, queries: u64) -> f64 {
    if queries == 0 {
        0.0
    } else {
        total / queries as f64
    }
}

fn accuracy(p: &Phase) -> f64 {
    per_query(p.tally.top1_correct as f64, p.tally.answered)
}

fn throughput(p: &Phase) -> f64 {
    p.tally.answered as f64 / p.wall.as_secs_f64()
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Context printed with the result: (key, JSON value).
    provenance: Vec<(&'static str, String)>,
}

/// Untraced run: a set-up, one timed phase, then further set-ups that
/// only time themselves (so torn-down set-ups do not inflate the
/// phase's peak memory).
fn end_to_end(args: &Args) -> Outcome {
    let timed_setup = || {
        let t = std::time::Instant::now();
        let w = Workload::setup(args.kind, args.seed);
        (t.elapsed().as_secs_f64() - w.setup.oracle_s, w)
    };
    let (first_setup, mut w) = timed_setup();
    let slices = (args.seconds / SLICE_SECONDS).round().max(1.0) as usize;
    let p = w.phase(args.seconds, slices, None);
    let peak_rss = peak_rss_mib().unwrap_or(0.0);
    let mut outcome = finish(&w, &p, args);
    w.teardown();
    let mut setup_s = vec![first_setup];
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        let (s, w) = timed_setup();
        outcome.correct &= w.warmup_failed == 0;
        setup_s.push(s);
        w.teardown();
    }
    let over_slices =
        |f: fn(&SliceStat) -> f64, q: f64| quantile(&p.slices.iter().map(f).collect::<Vec<_>>(), q);
    let (higher, lower) = (1.0 - FAVOURABLE, FAVOURABLE);
    outcome.metrics = vec![
        ("throughput_qps", over_slices(SliceStat::qps, higher), "1/s"),
        ("latency_p50_us", over_slices(SliceStat::p50_us, lower), "us"),
        ("latency_p99_us", over_slices(SliceStat::tail_us, lower), "us"),
        ("cpu_us_per_query", over_slices(SliceStat::cpu_us_per_query, lower), "us"),
        ("accuracy", accuracy(&p), "fraction"),
        ("setup_s", median(&setup_s), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    outcome.provenance.push(("setup_runs_s", format!("{setup_s:?}")));
    outcome
}

/// Traced run: one set-up, an untraced half phase, a traced half phase,
/// then direct calls into each layer.
fn traced(args: &Args) -> Outcome {
    let mut w = Workload::setup(args.kind, args.seed);
    let setup = w.setup;
    let untraced = w.phase(args.seconds / 2.0, 1, None);
    let log = Arc::new(FlushLog::default());
    let p = w.phase(args.seconds / 2.0, 1, Some(&log));
    let direct = w.direct();

    let (flushed, busy_ns) = log.totals();
    let durations = trace::flush_durations(&log);
    let samples: Vec<_> = p.logs.iter().flat_map(|l| l.samples.iter().copied()).collect();
    let split = trace::split_latency(&samples, &log);
    let p50_us = |mut v: Vec<u64>| {
        v.sort_unstable();
        measure::percentile(&v, 50.0).map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let wire = args.kind != Kind::Wide;
    let sum = |f: fn(&trace::ClientLog) -> u64| p.logs.iter().map(f).sum::<u64>();
    let (sent, answers) = (sum(|l| l.queries_sent), sum(|l| l.answers));
    let bytes_per_query = if wire {
        // Mean over connections of each one's bytes per answer, so the
        // figure does not depend on how answers split between them.
        p.logs.iter().map(|l| l.bytes_per_answer()).sum::<f64>() / p.logs.len() as f64
    } else {
        0.0
    };
    let publish_us: Vec<u64> = p.publishes.iter().map(|s| s.end_ns - s.start_ns).collect();
    let imc = direct.counters.imc;
    let failed = untraced.tally.failed() + p.tally.failed();
    let attempted = untraced.tally.attempted + p.tally.attempted;
    let metrics = vec![
        ("net.send_ns_per_query", per_query(sum(|l| l.send_ns) as f64, sent), "ns"),
        ("net.recv_ns_per_query", per_query(sum(|l| l.recv_ns) as f64, answers), "ns"),
        ("net.bytes_per_query", bytes_per_query, "bytes"),
        ("net.error_frames", sum(|l| l.error_frames) as f64, "count"),
        ("server.batch_mean", per_query(p.queries as f64, p.batches), "queries"),
        ("server.full_flush_frac", per_query(p.full_flushes as f64, p.batches), "fraction"),
        ("server.shed", p.shed as f64, "count"),
        ("server.queue_wait_us_p50", p50_us(split.iter().map(|s| s.0).collect()), "us"),
        ("server.flush_us_p50", p50_us(durations), "us"),
        ("server.search_ns_per_query", per_query(busy_ns as f64, flushed), "ns"),
        ("server.post_flush_us_p50", p50_us(split.iter().map(|s| s.1).collect()), "us"),
        ("shard.fanout_us_per_flush", direct.fanout_us_per_flush, "us"),
        ("cascade.activation_frac", direct.counters.cascade_activation, "fraction"),
        ("cascade.topk_ns_per_query", direct.cascade_topk_ns, "ns"),
        ("kernel.topk_ns_per_query", direct.kernel_topk_ns, "ns"),
        ("kernel.winners_ns_per_query", direct.kernel_winners_ns, "ns"),
        ("kernel.words_per_query", direct.counters.words_per_query, "words"),
        ("imc.search_ns_per_query", direct.imc_search_ns, "ns"),
        ("imc.cycles_per_query", imc.map_or(0.0, |s| s.cycles as f64), "cycles"),
        ("imc.arrays", imc.map_or(0.0, |s| s.arrays as f64), "count"),
        ("imc.utilization", imc.map_or(0.0, |s| s.utilization), "fraction"),
        ("registry.publish_us_p50", p50_us(publish_us), "us"),
        ("registry.publishes", p.publishes.len() as f64, "count"),
        ("setup.train_s", setup.train_s, "s"),
        ("setup.encode_us_per_query", setup.encode_us_per_query, "us"),
        ("setup.tune_ms", setup.tune_ms, "ms"),
        ("trace.overhead_frac", 1.0 - throughput(&p) / throughput(&untraced), "fraction"),
        ("client.latency_samples", p.tally.latency.seen() as f64, "count"),
        ("failed_frac", per_query(failed as f64, attempted), "fraction"),
    ];
    if let Some(path) = trace_path(args) {
        match trace::write_spans(&path, &p.logs, &log, &p.publishes) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let mut outcome = finish(&w, &p, args);
    outcome.metrics = metrics;
    outcome.failed = failed;
    outcome.attempted = attempted;
    outcome.correct &= untraced.tally.failed() == 0;
    w.teardown();
    outcome
}

/// Spans go next to the benchmark binary, inside the build directory.
fn trace_path(args: &Args) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("servebench-trace-{}-seed{}.jsonl", args.kind.name(), args.seed);
    Some(exe.parent()?.join(name))
}

/// Checks the run's invariants and records its provenance.
fn finish(w: &Workload, p: &Phase, args: &Args) -> Outcome {
    let mut correct = p.tally.failed() == 0 && w.warmup_failed == 0 && p.tally.answered > 0;
    if let Some(s) = w.mapping_stats() {
        // The paper's Table II anchors for a 128x128 MEMHD AM on one
        // 128x128 array: one cycle, one array, every column used.
        if (s.cycles, s.arrays, s.utilization) != (1, 1, 1.0) {
            eprintln!("mapping left the one-array configuration: {s:?}");
            correct = false;
        }
    }
    let tail = p.slices.iter().filter_map(|s| s.latency).map(|l| l.tail_pct).fold(100.0, f64::min);
    let per_slice = |f: fn(&SliceStat) -> f64| {
        let v: Vec<f64> = p.slices.iter().map(|s| (f(s) * 10.0).round() / 10.0).collect();
        format!("{v:?}")
    };
    let provenance = vec![
        ("workload", format!("{:?}", args.kind.name())),
        ("seed", args.seed.to_string()),
        ("model_seed", workloads::MODEL_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("kernel", format!("{:?}", hd_linalg::kernel::active().name())),
        ("features", r#""default""#.into()),
        ("cost_model", format!("\"{}\"", hd_linalg::CostModel::active())),
        ("plan_ends", format!("{:?}", w.plan_ends().unwrap_or_default())),
        ("latency_samples", p.tally.latency.seen().to_string()),
        ("slices", p.slices.len().to_string()),
        ("tail_percentile", tail.to_string()),
        ("slice_qps", per_slice(SliceStat::qps)),
        ("slice_p50_us", per_slice(SliceStat::p50_us)),
        ("slice_tail_us", per_slice(SliceStat::tail_us)),
        ("slice_cpu_us", per_slice(SliceStat::cpu_us_per_query)),
        ("warmup_failed", w.warmup_failed.to_string()),
    ];
    Outcome {
        correct,
        attempted: p.tally.attempted,
        failed: p.tally.failed(),
        metrics: Vec::new(),
        provenance,
    }
}

/// The provenance line and the result line.
fn render(o: &Outcome) -> (String, String) {
    let fields: Vec<String> = o.provenance.iter().map(|(k, v)| format!(r#""{k}":{v}"#)).collect();
    let mut correct = o.correct;
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            if !value.is_finite() {
                eprintln!("metric {name} is not finite");
                correct = false;
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
        })
        .collect();
    (
        format!("provenance {{{}}}", fields.join(",")),
        format!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            o.attempted,
            o.failed,
            metrics.join(", ")
        ),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Pin the cascade tuner's cost model before anything resolves it, so
    // the tuned plan and set-up time do not depend on a per-host cache.
    std::env::set_var("HD_LINALG_CALIBRATION", "fallback");
    // Every thread of the run shares one core (see `pin_to_one_cpu`);
    // the host's count is recorded first.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = measure::pin_to_one_cpu();
    if cpu.is_none() {
        eprintln!("servebench: could not pin to one CPU; figures may depend on host load");
    }
    // Lives until the process exits; its CPU time is left out of
    // `cpu_us_per_query`.
    let spinner = measure::IdleSpinner::start();
    match &spinner {
        Some(s) => measure::exclude_from_workload_cpu(s),
        None => eprintln!("servebench: no SCHED_IDLE spinner; wake-ups may halt the core"),
    }
    let mut outcome = if args.trace { traced(&args) } else { end_to_end(&args) };
    outcome.provenance.push(("nproc", nproc.to_string()));
    outcome.provenance.push(("pinned_cpu", cpu.map_or("null".into(), |c| c.to_string())));
    outcome.provenance.push(("idle_spinner", spinner.is_some().to_string()));
    let (provenance, result) = render(&outcome);
    println!("{provenance}");
    println!("{result}");
}
