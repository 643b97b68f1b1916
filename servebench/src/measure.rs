//! Measurement primitives: a fixed-size latency reservoir, the
//! tail-percentile rule, and process CPU / peak-memory readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Percentiles the tail metric may fall back to, highest first, in
/// thousandths.
const TAIL_LADDER: [usize; 3] = [990, 900, 500];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank sample
/// has at least [`MIN_BEYOND`] of the `n` samples beyond it, or `None`
/// when even the median is unsupported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= rank(n, p) + MIN_BEYOND).map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), (p * 10.0).round() as usize) - 1])
}

/// Median of a small set of measurements (mean of the middle pair).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of a small set of
/// measurements.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Latency samples in nanoseconds, held in a reservoir whose size does
/// not depend on run length (uniform sampling, Vitter's algorithm R).
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<u64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// Default capacity: 1 MiB of samples.
    pub const CAP: usize = 1 << 17;

    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { samples: Vec::with_capacity(cap), cap, seen: 0, rng: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: plenty for choosing reservoir slots.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(ns);
        } else {
            let slot = self.next_rand() % self.seen;
            if (slot as usize) < self.cap {
                self.samples[slot as usize] = ns;
            }
        }
    }

    /// Samples offered (not only those held).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Folds `other` in. When both fit, every sample is kept; otherwise
    /// each side contributes in proportion to the samples it saw.
    pub fn merge(&mut self, mut other: Reservoir) {
        let total = self.seen + other.seen;
        if self.samples.len() + other.samples.len() <= self.cap {
            self.samples.append(&mut other.samples);
        } else {
            let take_other = ((self.cap as u128 * other.seen as u128) / total.max(1) as u128)
                .min(other.samples.len() as u128) as usize;
            let keep_self = (self.cap - take_other).min(self.samples.len());
            self.shuffle_prefix(keep_self);
            self.samples.truncate(keep_self);
            other.shuffle_prefix(take_other);
            self.samples.extend_from_slice(&other.samples[..take_other]);
        }
        self.seen = total;
    }

    /// Moves a uniform random subset of `n` samples to the front.
    fn shuffle_prefix(&mut self, n: usize) {
        for i in 0..n.min(self.samples.len()) {
            let j = i + (self.next_rand() % (self.samples.len() - i) as u64) as usize;
            self.samples.swap(i, j);
        }
    }

    /// Held samples, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }
}

/// Median and tail of one latency sample, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50_us: f64,
    /// The percentile reported as the tail (see [`tail_percentile`]).
    pub tail_pct: f64,
    pub tail_us: f64,
}

pub fn summarize(r: &Reservoir) -> Option<LatencySummary> {
    let sorted = r.sorted();
    let tail_pct = tail_percentile(sorted.len())?;
    Some(LatencySummary {
        p50_us: percentile(&sorted, 50.0)? as f64 / 1e3,
        tail_pct,
        tail_us: percentile(&sorted, tail_pct)? as f64 / 1e3,
    })
}

mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: std::ffi::c_long,
        pub tv_nsec: std::ffi::c_long,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` in Linux's `<time.h>`.
    pub const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    /// `CLOCK_THREAD_CPUTIME_ID` in Linux's `<time.h>`.
    #[cfg(test)]
    pub const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;

    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    pub const CPU_SET_WORDS: usize = 16;

    /// `SCHED_IDLE` in Linux's `<sched.h>`.
    pub const SCHED_IDLE: std::ffi::c_int = 5;

    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: std::ffi::c_int,
    }

    extern "C" {
        pub fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
        pub fn sched_setscheduler(
            pid: std::ffi::c_int,
            policy: std::ffi::c_int,
            param: *const SchedParam,
        ) -> std::ffi::c_int;
        pub fn pthread_getcpuclockid(
            thread: std::os::unix::thread::RawPthread,
            clock: *mut std::ffi::c_int,
        ) -> std::ffi::c_int;
        pub fn sched_getaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *mut u64,
        ) -> std::ffi::c_int;
        pub fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::ffi::c_int;
    }
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU. On a small
/// shared host this keeps every wake-up on one core, so the figures do
/// not depend on how busy the other cores are.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes;
    // pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * sys::CPU_SET_WORDS).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; sys::CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; the call only reads `one`.
    (unsafe { sys::sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Reads a CPU-time clock, or `None` when it is gone.
fn read_clock(clock: std::ffi::c_int) -> Option<Duration> {
    let mut ts = sys::Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, which writes nothing else.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// User + system CPU time of the whole process (every thread, live or
/// exited), from Linux's `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn process_cpu() -> Duration {
    read_clock(sys::CLOCK_PROCESS_CPUTIME_ID)
        .expect("CLOCK_PROCESS_CPUTIME_ID is always available on Linux")
}

/// CPU clock of the spinner that [`workload_cpu`] leaves out.
static EXCLUDED_CLOCK: OnceLock<std::ffi::c_int> = OnceLock::new();

/// CPU time of the workload's threads: [`process_cpu`] less the
/// [`IdleSpinner`] passed to [`exclude_from_workload_cpu`], if any.
pub fn workload_cpu() -> Duration {
    let total = process_cpu();
    match EXCLUDED_CLOCK.get() {
        Some(&clock) => total.saturating_sub(
            read_clock(clock).expect("the excluded spinner lives until the process exits"),
        ),
        None => total,
    }
}

/// Leaves `spinner`'s CPU time out of [`workload_cpu`] from now on; it
/// must then run until the process exits.
pub fn exclude_from_workload_cpu(spinner: &IdleSpinner) {
    EXCLUDED_CLOCK.set(spinner.clock).expect("one spinner per process");
}

/// A thread that spins in Linux's `SCHED_IDLE` class, the lowest there
/// is: it runs only when no other thread of the core wants to, and
/// yields the moment one wakes. So the core never idles, and a wake-up
/// is a plain context switch instead of a halted virtual CPU the host
/// must resume, whose cost would otherwise land on the woken thread's
/// CPU time and vary with the host's load (as `idle=poll` does for a
/// whole machine). Stops and joins on drop.
pub struct IdleSpinner {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    clock: std::ffi::c_int,
}

impl IdleSpinner {
    /// Starts the spinner on the CPUs the calling thread may use, or
    /// returns `None` when the thread cannot enter `SCHED_IDLE`.
    pub fn start() -> Option<IdleSpinner> {
        use std::os::unix::thread::JoinHandleExt;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("idle-spinner".into())
            .spawn(move || {
                let param = sys::SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a live `struct sched_param`; pid 0
                // names the calling thread.
                let idle = unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) } == 0;
                let _ = tx.send(idle);
                while idle && !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
            .ok()?;
        let idle = rx.recv().unwrap_or(false);
        let mut clock = 0;
        // SAFETY: the handle names a live thread (joined only on drop);
        // `clock` is a live, writable `clockid_t`.
        let clocked = unsafe { sys::pthread_getcpuclockid(handle.as_pthread_t(), &mut clock) } == 0;
        let spinner = IdleSpinner { stop, handle: Some(handle), clock };
        (idle && clocked).then_some(spinner)
    }

    /// CPU time the spinner has used.
    #[cfg(test)]
    pub fn cpu(&self) -> Duration {
        read_clock(self.clock).unwrap_or_default()
    }
}

impl Drop for IdleSpinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads a `kB` field of `/proc/self/status` in MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        // The reported percentile has at least ten samples above it, and
        // the next rung up would not.
        for n in 20..3000usize {
            let sorted: Vec<u64> = (1..=n as u64).collect();
            let p = tail_percentile(n).unwrap();
            let v = percentile(&sorted, p).unwrap();
            assert!(sorted.iter().filter(|&&s| s > v).count() >= MIN_BEYOND, "n={n} p={p}");
            if let Some(&up) = TAIL_LADDER.iter().rev().find(|&&q| q as f64 / 10.0 > p) {
                let v = percentile(&sorted, up as f64 / 10.0).unwrap();
                assert!(sorted.iter().filter(|&&s| s > v).count() < MIN_BEYOND, "n={n}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        assert_eq!((quantile(&v, 0.25), quantile(&v, 0.75)), (15.0, 45.0));
        assert_eq!((quantile(&v, 0.0), quantile(&v, 1.0)), (1.0, 60.0));
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn reservoir_is_bounded_and_merges_in_proportion() {
        let mut a = Reservoir::new(1000, 1);
        for i in 0..10_000u64 {
            a.record(Duration::from_nanos(i));
        }
        assert_eq!(a.sorted().len(), 1000);
        assert_eq!(a.seen(), 10_000);
        // A uniform sample of 0..10000 has its median near 5000.
        let med = percentile(&a.sorted(), 50.0).unwrap();
        assert!((4000..6000).contains(&med), "median {med}");

        let mut small = Reservoir::new(1000, 2);
        let mut other = Reservoir::new(1000, 3);
        for i in 0..300 {
            small.record(Duration::from_nanos(i));
            other.record(Duration::from_nanos(1000 + i));
        }
        small.merge(other);
        assert_eq!(small.sorted().len(), 600, "samples that fit are all kept");

        let mut b = Reservoir::new(1000, 4);
        for _ in 0..30_000u64 {
            b.record(Duration::from_nanos(1_000_000));
        }
        a.merge(b);
        assert_eq!(a.seen(), 40_000);
        let sorted = a.sorted();
        assert_eq!(sorted.len(), 1000);
        let from_b = sorted.iter().filter(|&&s| s == 1_000_000).count();
        assert_eq!(from_b, 750, "a side that saw 3/4 of the samples holds 3/4 of the slots");
    }

    #[test]
    fn process_cpu_counts_busy_threads() {
        let before = process_cpu();
        let wall = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let start = Instant::now();
                    let mut x = 0u64;
                    while start.elapsed() < Duration::from_millis(200) {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                });
            }
        });
        let cpu = process_cpu() - before;
        let wall = wall.elapsed();
        // Two spinning threads: at least one thread's worth of CPU even
        // on a single core, and never more than two per wall second plus
        // slack for this test's own thread.
        assert!(cpu >= Duration::from_millis(180), "cpu {cpu:?}");
        assert!(cpu <= wall * 2 + Duration::from_millis(50), "cpu {cpu:?} wall {wall:?}");
        // It agrees with the kernel's per-process accounting in
        // /proc/self/stat (utime + stime, in 10 ms ticks).
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let cpu = process_cpu();
        let fields: Vec<&str> = stat.rsplit_once(')').unwrap().1.split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        let proc_cpu = Duration::from_millis(ticks * 10);
        let gap = cpu.abs_diff(proc_cpu);
        assert!(gap < Duration::from_millis(50), "clock {cpu:?} vs /proc {proc_cpu:?}");
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn idle_spinner_runs_only_when_the_core_is_free() {
        std::thread::spawn(|| {
            pin_to_one_cpu().unwrap();
            let spinner = IdleSpinner::start().expect("SCHED_IDLE needs no privilege");
            // The core is free while this thread sleeps: the spinner runs.
            std::thread::sleep(Duration::from_millis(100));
            let idle = spinner.cpu();
            assert!(idle > Duration::ZERO, "the spinner never ran");
            // A busy thread on the same core: the spinner all but stops.
            let own = || read_clock(sys::CLOCK_THREAD_CPUTIME_ID).unwrap();
            let (start, busy0) = (Instant::now(), own());
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(100) {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            let (spun, busy) = (spinner.cpu() - idle, own() - busy0);
            assert!(spun * 10 < busy, "spinner took {spun:?} beside {busy:?} of busy work");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pinning_holds_for_the_thread_and_its_children() {
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("sched_setaffinity works on Linux");
            let one = std::thread::available_parallelism().unwrap().get();
            let child = std::thread::spawn(|| std::thread::available_parallelism().unwrap().get());
            assert_eq!((one, child.join().unwrap()), (1, 1), "pinned to cpu {cpu}");
        })
        .join()
        .unwrap();
    }
}
