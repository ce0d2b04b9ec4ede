//! # perfbench
//!
//! One seeded benchmark for the FAM workspace. It drives the program from
//! outside — `fam_cli::run` for offline `fam solve` jobs, and a loopback
//! `fam::serve::Server` through `fam::serve::Client` for the serving
//! workloads — on inputs generated from `--seed`, checks every answer, and
//! prints one JSON result line.
//!
//! * `--trace 0` reports the end-to-end metrics ([`END_TO_END`]) of one
//!   workload.
//! * `--trace 1` reports the per-layer metrics ([`PER_LAYER`]). Spans are
//!   recorded from this crate around calls into each layer's public
//!   functions; the program itself carries no spans. Every traced run
//!   measures all four workloads' traced legs, each for a quarter of the
//!   run, so each layer metric is always measured on the workload that
//!   loads it (see `README.md`).
//!
//! The workload sizes, loop types and the layers each workload is
//! predicted to load or bypass are listed in `README.md`.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod offline;
pub mod serve;
pub mod wire;

use std::path::PathBuf;
use std::time::Instant;

pub use metrics::{Outcome, Tally};

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("arr_mean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.csv_load_ms", "ms"),
    ("data.op_parse_us", "us"),
    ("scores.build_ms", "ms"),
    ("scores.tiled_build_ms", "ms"),
    ("scores.resident_mb", "MB"),
    ("reduce.compute_ms", "ms"),
    ("reduce.kept_frac", "ratio"),
    ("algos.solve_ms.greedy-shrink", "ms"),
    ("algos.solve_ms.add-greedy", "ms"),
    ("algos.gs_arr_evals", "count"),
    ("algos.gs_candidates_frac", "ratio"),
    ("algos.harvest_ms", "ms"),
    ("algos.repair_evals", "count"),
    ("evaluator.report_ms", "ms"),
    ("par.jobs_per_op", "count"),
    ("par.workers_spawned", "count"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.resumed_rescans", "count"),
    ("service.solve_hit_us", "us"),
    ("service.solve_miss_ms", "ms"),
    ("service.clone_ms", "ms"),
    ("service.apply_ms", "ms"),
    ("service.refine_ms", "ms"),
    ("server.handle_us", "us"),
    ("server.cache_hit_frac", "ratio"),
    ("server.writer_overhead_ms", "ms"),
    ("http.overhead_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.solve_stage_frac", "ratio"),
    ("trace.update_stage_frac", "ratio"),
];

/// How far the stage sums of a traced leg may stray from the end-to-end
/// total they split (as `sum / total`) before the run counts a failed
/// check.
pub const STAGE_SUM_BOUNDS: (f64, f64) = (0.7, 1.4);

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fam solve` jobs on a small dataset, one at a time.
    OfflineSolve,
    /// `fam solve --param reduce=skyline` jobs on a large dataset.
    OfflineReduce,
    /// Cached and cold `/solve` reads from two keep-alive clients.
    ServeRead,
    /// `POST /update` and `POST /refine` writes beside one reader.
    ServeWrite,
}

impl Workload {
    /// Every workload, in the order the traced run measures them.
    pub const ALL: [Workload; 4] = [
        Workload::OfflineSolve,
        Workload::OfflineReduce,
        Workload::ServeRead,
        Workload::ServeWrite,
    ];

    /// Parses the command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineSolve => "offline-solve",
            Workload::OfflineReduce => "offline-reduce",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }
}

/// Input sizes. [`Scale::Full`] is what the benchmark measures;
/// [`Scale::Tiny`] keeps the same code paths at sizes a unit test can
/// afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes (see `README.md`).
    Full,
    /// Test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload an untraced run measures.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Corrupts one reference answer in the checker, so a test can see a
    /// wrong answer counted as a failed operation.
    pub inject_wrong_answer: bool,
    /// Directory for generated CSV files (created, then removed).
    pub work_dir: PathBuf,
}

impl Options {
    /// Options for a full-scale run writing its files under this crate's
    /// `.work` directory.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Options {
        let work_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work").join(format!(
            "{}-{}",
            std::process::id(),
            workload.name()
        ));
        Options {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            inject_wrong_answer: false,
            work_dir,
        }
    }
}

/// Runs one benchmark invocation. The generated files are removed
/// whether or not the run succeeds.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot run (set-up
/// failure, I/O error). Wrong answers are not errors: they are counted in
/// the returned [`Outcome`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| format!("work dir: {e}"))?;
    fam::core::par::prewarm();
    let before = metrics::cpu_jiffies();
    let result = if opts.trace { run_traced(opts) } else { run_untraced(opts) };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let mut out = result?;
    // CPU time the hypervisor gave to other guests while this run was
    // measuring: a run with high steal is slow for reasons outside the
    // program.
    if let (Some((t0, s0)), Some((t1, s1))) = (before, metrics::cpu_jiffies()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        out.note("cpu_steal_frac", steal.to_string());
    }
    Ok(out)
}

fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let mut out = match opts.workload {
        Workload::OfflineSolve | Workload::OfflineReduce => offline::run(opts)?,
        Workload::ServeRead => serve::run_read(opts)?,
        Workload::ServeWrite => serve::run_write(opts)?,
    };
    out.set("peak_rss_mb", metrics::peak_rss_mb());
    Ok(out)
}

fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let leg_seconds = opts.seconds / Workload::ALL.len() as f64;
    let mut out = Outcome::new(opts);
    for workload in Workload::ALL {
        let leg = Options { workload, seconds: leg_seconds, ..opts.clone() };
        let part = match workload {
            Workload::OfflineSolve | Workload::OfflineReduce => offline::trace(&leg)?,
            Workload::ServeRead => serve::trace_read(&leg)?,
            Workload::ServeWrite => serve::trace_write(&leg)?,
        };
        out.absorb(part);
    }
    out.set("par.workers_spawned", fam::core::par::pool_stats().workers_spawned as f64);
    Ok(out)
}

/// Times `f` once, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs `setup` this many times, reporting the median wall time in
/// seconds and keeping the first result (later ones are dropped as soon
/// as they are timed, so only two set-ups are ever resident).
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut secs = Vec::with_capacity(times);
    for _ in 0..times {
        let (v, t) = timed(&mut setup);
        secs.push(t / 1e3);
        let v = v?;
        if kept.is_none() {
            kept = Some(v);
        }
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, metrics::median(&secs)))
}

/// How many times every workload repeats its set-up (the reported
/// `setup_s` is the median).
pub const SETUP_REPEATS: usize = 3;
