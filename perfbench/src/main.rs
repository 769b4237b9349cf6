//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_scan|fleet_query|live_ingest> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed (`setup_s` is the median
//! set-up CPU time of three set-ups), measures the workload for `--seconds`,
//! checks the program's outputs against a reference outside the timed
//! region, and prints one JSON result as its last line of output. With
//! `--trace 0` the result carries the end-to-end metrics of
//! [`report::END_TO_END`]; with `--trace 1` the run is split into an
//! untraced half and a traced half, and the result carries the per-layer
//! metrics of [`report::PER_LAYER`]. A failed correctness check exits 1.

mod fleet_query;
mod live_ingest;
mod paper_scan;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::{Values, END_TO_END, PER_LAYER};

pub const WORKLOADS: [&str; 3] = ["paper_scan", "fleet_query", "live_ingest"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Environment the program reads that would change what is measured.
const AMBIENT: [&str; 3] = ["BORA_TRACE", "BORA_TRACE_OUT", bora::bufpool::POOL_BYTES_ENV];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
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
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one workload run produced.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced half, written out as a Chrome trace.
    pub spans: Vec<trace::Ev>,
}

/// splitmix64: the benchmark's input generator. Every input is a pure
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Draws from a fixed multiset in rounds: each round is the whole set in
/// a seeded random order. Every run then issues the same mix in the same
/// proportions, and only the order and the seeded inputs differ — so
/// run-to-run spread measures the system, not the sampling of the mix.
pub struct Rounds<T> {
    rng: Rng,
    set: Vec<T>,
    queue: Vec<T>,
}

impl<T: Clone> Rounds<T> {
    pub fn new(rng: Rng, set: Vec<T>) -> Self {
        assert!(!set.is_empty(), "an empty mix");
        Rounds { rng, set, queue: Vec::new() }
    }

    pub fn draw(&mut self) -> T {
        if self.queue.is_empty() {
            self.queue = self.set.clone();
            for i in (1..self.queue.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.queue.swap(i, j);
            }
        }
        self.queue.pop().expect("refilled above")
    }

    /// The generator, for the inputs each draw still picks at random.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Order-sensitive digest of a message sequence: count plus an FNV-1a
/// hash of each message's topic, time, length and first and last 16
/// payload bytes. Cheap enough to take inside the timed loop.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub hash: u64,
}

impl Digest {
    pub fn add(&mut self, topic: &str, time: ros_msgs::Time, data: &[u8]) {
        let mut h = self.hash ^ 0xcbf2_9ce4_8422_2325;
        let edge = data.len().min(16);
        let bytes = topic
            .bytes()
            .chain(time.as_nanos().to_le_bytes())
            .chain((data.len() as u64).to_le_bytes())
            .chain(data[..edge].iter().copied())
            .chain(data[data.len() - edge..].iter().copied());
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.hash = h;
        self.count += 1;
    }
}

/// Bytes stored under `root`, recursively.
pub fn storage_bytes<S: simfs::Storage>(fs: &S, root: &str) -> Result<u64, String> {
    let mut ctx = simfs::IoCtx::new();
    let mut total = 0;
    for e in fs.read_dir(root, &mut ctx).map_err(|e| format!("{root}: {e}"))? {
        let path = format!("{root}/{}", e.name);
        total += match e.kind {
            simfs::EntryKind::File => fs.len(&path, &mut ctx).map_err(|e| e.to_string())?,
            simfs::EntryKind::Dir => storage_bytes(fs, &path)?,
        };
    }
    Ok(total)
}

/// Set-up time of a run: the medians over [`SETUP_REPS`] set-ups.
pub struct SetupTime {
    /// Process CPU seconds (all threads): the gated `setup_s`.
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Run `setup` [`SETUP_REPS`] times, keep the last result, and return it
/// with its median CPU and wall times. Earlier results are dropped before
/// the next set-up starts, so they never coexist in memory.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTime), String> {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (t0, c0) = (Instant::now(), process_cpu_s());
        kept = Some(setup()?);
        cpu.push(process_cpu_s() - c0);
        wall.push(t0.elapsed().as_secs_f64());
    }
    let time = SetupTime { cpu_s: stats::median(&cpu), wall_s: stats::median(&wall) };
    Ok((kept.expect("at least one set-up"), time))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix the C allocator's policy for the whole run. By default glibc
/// raises its mmap threshold as large blocks are freed and trims the heap
/// as it shrinks, so how many pages a run faults in depends on the order
/// its allocations happened to come in: between seeds of `paper_scan`
/// that moved page faults fourfold and CPU per request by a third. With
/// fixed thresholds (blocks up to 32 MiB from the heap, which is never
/// trimmed) every run gets the same policy.
fn fix_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, i32::MAX)] {
        // SAFETY: mallopt takes two plain integers; both parameters are
        // constants the C library defines, and both values are in range.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "mallopt({param}, {value}) refused");
    }
}

/// CPU time consumed by every thread of this process so far, exited
/// threads included, in seconds. Time the host steals from this virtual
/// machine's CPUs is not in it, so unlike wall time it does not move
/// with the load other tenants put on the host.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the C library defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// Latency summary of a closed-loop pass.
pub struct Latencies {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub mean: f64,
    pub p99_supported: bool,
}

pub fn latencies(samples_ms: &[f64]) -> Latencies {
    Latencies {
        n: samples_ms.len(),
        p50: stats::percentile(samples_ms, 0.5).unwrap_or(0.0),
        p99: stats::percentile(samples_ms, 0.99).unwrap_or(0.0),
        mean: samples_ms.iter().sum::<f64>() / samples_ms.len().max(1) as f64,
        p99_supported: stats::tail_supported(samples_ms.len(), 0.99),
    }
}

/// Per-request samples of one pass.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall latency.
    pub lat_ms: Vec<f64>,
    /// Per completion: seconds since the pass started, process CPU clock.
    pub done: Vec<(f64, f64)>,
}

impl Samples {
    /// Record a request of the pass that started at `pass_start`; the
    /// request started at `start`.
    pub fn record(&mut self, pass_start: Instant, start: Instant) {
        self.lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.done.push((pass_start.elapsed().as_secs_f64(), process_cpu_s()));
    }

    pub fn count(&self) -> usize {
        self.lat_ms.len()
    }

    /// Process CPU per completed request of a pass that started with the
    /// CPU clock at `cpu0`: the median over blocks of `block` completions
    /// (see [`stats::blocked_cost`]).
    pub fn cpu_ms_per_req(&self, cpu0: f64, block: usize) -> f64 {
        let done_cpu: Vec<f64> = self.done.iter().map(|&(_, c)| c).collect();
        stats::blocked_cost(&done_cpu, cpu0, block) * 1e3
    }
}

/// The values every workload derives the same way from its untraced
/// pass: set-up time, and the wall-clock request rate and latency
/// percentiles.
pub fn set_common(v: &mut Values, setup: &SetupTime, req: &Samples, len: Duration) {
    let done_s: Vec<f64> = req.done.iter().map(|&(t, _)| t).collect();
    let lat = latencies(&req.lat_ms);
    v.set("setup_s", setup.cpu_s);
    v.set("setup_wall_s", setup.wall_s);
    v.set("req_per_s", stats::rate_per_s(&done_s, len.as_secs_f64()));
    v.set("lat_ms.p50", lat.p50);
    v.set("lat_ms.p99", lat.p99);
}

/// Durations of the two passes: the whole run untraced, or an untraced
/// half and a traced half.
pub fn pass_lengths(args: &Args) -> (Duration, Option<Duration>) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total / 2, Some(total / 2))
    } else {
        (total, None)
    }
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where reports and traces go: beside the build, which `.gitignore`
/// already excludes.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench-out")
}

fn main() {
    fix_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Hermetic runs: the end-to-end numbers are for tracing off and the
    // default pool budget, whatever the caller's environment says.
    // Nothing has spawned a thread yet, so editing the environment is
    // sound.
    let mut overridden = Vec::new();
    for var in AMBIENT {
        if std::env::var_os(var).is_some() {
            std::env::remove_var(var);
            overridden.push(var);
        }
    }
    bora_obs::set_enabled(false);

    let run = match args.workload.as_str() {
        "paper_scan" => paper_scan::run(&args),
        "fleet_query" => fleet_query::run(&args),
        "live_ingest" => live_ingest::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    out.values.set("peak_rss_mb", report::peak_rss_mb());
    out.values.set("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64);

    // Everything printed also goes to the run's report file.
    let mut text = String::new();
    macro_rules! say {
        ($($arg:tt)*) => {{
            let line = format!($($arg)*);
            println!("{line}");
            text.push_str(&line);
            text.push('\n');
        }};
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    say!(
        "# perfbench workload={} seed={} seconds={} trace={} git={} nproc={} \
         pool.budget_bytes={} overridden_env={:?}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        git_rev(),
        nproc,
        report::gauge("pool.budget_bytes").map_or("none".into(), |v| v.to_string()),
        overridden,
    );
    for n in &out.notes {
        say!("# {n}");
    }

    let dir = out_dir();
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let dropped = out.values.get("trace.dropped").unwrap_or(0.0);
        if dropped > 0.0 {
            say!("# INVALID traced run: {dropped} spans dropped");
        }
        for m in &PER_LAYER {
            let v = out.values.get(m.name).unwrap_or(0.0);
            say!(
                "{:<44} {:>14.4} {:<6} ({} is better) -> {} on {}",
                m.name,
                v,
                m.unit,
                m.better,
                m.moves,
                m.on
            );
            metrics.push((m.name, m.unit, v));
        }
        let path = dir.join(format!("trace-{}.json", args.workload));
        match trace::write_chrome(&path, &out.spans, dropped as u64) {
            Ok(()) => say!("# spans: {} -> {}", out.spans.len(), path.display()),
            Err(e) => say!("# spans not written: {e}"),
        }
        if dropped > 0.0 {
            out.failed = out.failed.max(1);
        }
    } else {
        for m in &END_TO_END {
            let v = out.values.get(m.name).unwrap_or(0.0);
            say!("{:<44} {:>14.4} {}", m.name, v, m.unit);
            metrics.push((m.name, m.unit, v));
        }
        // Wall clock, reported but not gated.
        for name in ["setup_wall_s", "req_per_s", "lat_ms.p50", "lat_ms.p99"] {
            say!("# {:<42} {:>14.4}", name, out.values.get(name).unwrap_or(0.0));
        }
    }
    let correct = out.failed == 0;
    let line = report::result_line(correct, out.attempted.max(1), out.failed, &metrics);
    let report_path =
        dir.join(format!("{}-seed{}-trace{}.txt", args.workload, args.seed, args.trace as u8));
    text.push_str(&line);
    if std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&report_path, &text)).is_err() {
        println!("# report not written to {}", report_path.display());
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
