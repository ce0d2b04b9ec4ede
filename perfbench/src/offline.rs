//! The offline workloads: `fam solve` jobs through `fam_cli::run`, one
//! at a time (a closed loop with one caller).
//!
//! * `offline-solve` — a seeded rotation over {greedy-shrink,
//!   add-greedy} × k ∈ {5, 10, 20} × sampling seeds on a small
//!   anti-correlated dataset: scoring, the solvers, the evaluator and the
//!   worker pool do all the work.
//! * `offline-reduce` — `reduce=skyline` jobs on a large anti-correlated
//!   dataset: CSV parsing, the skyline reduction and the tiled score
//!   build dominate; the solver is a small share of a job.
//!
//! The checker replays every distinct job through the library calls the
//! CLI makes (CSV load, scoring, registry solve, fresh-sample report).
//! The traced leg times those same calls, so the reference is the trace.

use std::path::{Path, PathBuf};
use std::time::Instant;

use fam::prelude::*;
// Explicit import wins over the prelude's `Result<T>` alias.
use fam::{regret, ReduceKind, ReduceSpec, Reduction, Registry, ScoreMatrix, SolverSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::result::Result;

use crate::metrics::{mean, median, percentile, Outcome, Tally};
use crate::{repeated_setup, timed, Options, Scale, Workload, SETUP_REPEATS, STAGE_SUM_BOUNDS};

const ALGOS: [&str; 2] = ["greedy-shrink", "add-greedy"];

/// Sampling seeds per k in the rotation, for each algorithm. Add-greedy
/// jobs take longer than greedy-shrink jobs; weighting them 2:1 keeps the
/// median and the 90th percentile inside the add-greedy cluster instead
/// of on the boundary between the two, where they would jump.
const SAMPLE_SEEDS: [(&str, usize); 2] = [("greedy-shrink", 2), ("add-greedy", 4)];

/// Seeded datasets a run rotates its jobs over. A job's `arr` depends on
/// its dataset's geometry; spreading the jobs over several datasets keeps
/// `arr_mean` from following one dataset from seed to seed.
const DATASETS: usize = 3;

struct Sizes {
    n: usize,
    d: usize,
    samples: usize,
    ks: &'static [usize],
    reduce: bool,
}

fn sizes(workload: Workload, scale: Scale) -> Sizes {
    let reduce = workload == Workload::OfflineReduce;
    match (reduce, scale) {
        (false, Scale::Full) => Sizes { n: 2_000, d: 4, samples: 2_000, ks: &[5, 10, 20], reduce },
        (true, Scale::Full) => Sizes { n: 24_000, d: 3, samples: 800, ks: &[2, 5, 10], reduce },
        (false, Scale::Tiny) => Sizes { n: 200, d: 4, samples: 300, ks: &[3, 5], reduce },
        (true, Scale::Tiny) => Sizes { n: 3_000, d: 3, samples: 200, ks: &[3, 5], reduce },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    algo: &'static str,
    k: usize,
    seed: u64,
    /// Index of the dataset the job loads.
    data: usize,
}

impl Job {
    fn label(&self) -> String {
        format!("{}/k{}", self.algo, self.k)
    }
}

struct Inputs {
    paths: Vec<PathBuf>,
    rotation: Vec<Job>,
}

impl Inputs {
    fn path(&self, job: &Job) -> &Path {
        &self.paths[job.data]
    }
}

/// Writes the seeded datasets as CSV, draws the seeded job rotation, and
/// runs the first job once so code and allocator are warm before timing.
fn setup(opts: &Options, sz: &Sizes) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut paths = Vec::new();
    for i in 0..DATASETS {
        let ds = synthetic(sz.n, sz.d, Correlation::AntiCorrelated, &mut rng)
            .map_err(|e| e.to_string())?;
        let path = opts.work_dir.join(format!("{}-{i}.csv", opts.workload.name()));
        fam::data::write_csv(&ds, &path).map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let mut rotation = Vec::new();
    for (algo, seeds) in SAMPLE_SEEDS {
        for &k in sz.ks {
            for _ in 0..seeds {
                let seed = rng.gen_range(0..1_000_000_000u64);
                rotation.push(Job { algo, k, seed, data: rotation.len() % DATASETS });
            }
        }
    }
    for i in (1..rotation.len()).rev() {
        rotation.swap(i, rng.gen_range(0..=i));
    }
    let inputs = Inputs { paths, rotation };
    let first = &inputs.rotation[0];
    cli_job(inputs.path(first), first, sz)?;
    Ok(inputs)
}

/// One `fam solve` job through the CLI entry point: the selection and
/// the printed fresh-sample `arr`.
fn cli_job(path: &Path, job: &Job, sz: &Sizes) -> Result<(Vec<usize>, String), String> {
    let mut argv: Vec<String> = vec![
        "solve".into(),
        "--data".into(),
        path.display().to_string(),
        "--k".into(),
        job.k.to_string(),
        "--algo".into(),
        job.algo.into(),
        "--samples".into(),
        sz.samples.to_string(),
        "--seed".into(),
        job.seed.to_string(),
    ];
    if sz.reduce {
        argv.extend(["--param".into(), "reduce=skyline".into()]);
    }
    let text = fam_cli::run(&argv)?;
    crate::wire::cli_report(&text).ok_or_else(|| format!("unparsable report: {text}"))
}

/// Stage times (ms) and counters of one traced job.
#[derive(Debug, Default, Clone)]
struct Stages {
    csv: f64,
    builds: [f64; 2],
    reduce: f64,
    kept_frac: f64,
    solve: f64,
    report: f64,
    gs_evals: Option<f64>,
    gs_candidates: Option<f64>,
    pool_jobs: u64,
}

impl Stages {
    fn sum(&self) -> f64 {
        self.csv + self.builds[0] + self.builds[1] + self.reduce + self.solve + self.report
    }
}

/// The calls `fam solve` makes, made directly and timed one by one. This
/// is both the traced job and the checker's reference answer.
fn traced_job(path: &Path, job: &Job, sz: &Sizes) -> fam::Result<((Vec<usize>, String), Stages)> {
    let pool_before = fam::core::par::pool_stats().jobs_dispatched;
    let mut st = Stages::default();
    let (ds, t) = timed(|| fam::data::read_csv(path, false));
    st.csv = t;
    let ds = ds?;
    let dist = UniformLinear::new(ds.dim())?;
    let mut rng = StdRng::seed_from_u64(job.seed);
    let params: &[&str] = if sz.reduce { &["reduce=skyline"] } else { &[] };
    let spec = SolverSpec::parse_args(job.algo, job.k, params)?;
    let registry = Registry::global();
    let (out, fresh, eval_indices) = if sz.reduce {
        let (reduction, t) =
            timed(|| Reduction::compute(&ds, ReduceSpec::from_params(&spec.params)));
        st.reduce = t;
        let reduction = reduction?;
        st.kept_frac = reduction.kept_fraction();
        let kept = reduction.kept();
        let (built, t) =
            timed(|| ScoreMatrix::from_distribution_tiled(&ds, &dist, sz.samples, &mut rng, kept));
        st.builds[0] = t;
        let (m, _) = built?;
        let reduced = reduction.restrict_dataset(&ds)?;
        let mut inner = spec.clone();
        inner.params.reduce = ReduceKind::None;
        let (out, t) = timed(|| registry.solve(&inner, &m, Some(&reduced)));
        st.solve = t;
        let mut out = out?;
        let eval_indices = out.selection.indices.clone();
        reduction.remap_output(&mut out)?;
        let (fresh, t) =
            timed(|| ScoreMatrix::from_distribution_tiled(&ds, &dist, sz.samples, &mut rng, kept));
        st.builds[1] = t;
        (out, fresh?.0, eval_indices)
    } else {
        let (m, t) = timed(|| ScoreMatrix::from_distribution(&ds, &dist, sz.samples, &mut rng));
        st.builds[0] = t;
        let m = m?;
        let (out, t) = timed(|| registry.solve(&spec, &m, Some(&ds)));
        st.solve = t;
        let out = out?;
        let (fresh, t) = timed(|| ScoreMatrix::from_distribution(&ds, &dist, sz.samples, &mut rng));
        st.builds[1] = t;
        let eval_indices = out.selection.indices.clone();
        (out, fresh?, eval_indices)
    };
    let (rep, t) = timed(|| regret::report(&fresh, &eval_indices));
    st.report = t;
    let rep = rep?;
    if job.algo == "greedy-shrink" {
        let note = |name: &str| out.notes.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        st.gs_evals = note("arr_evaluations");
        st.gs_candidates = note("avg_candidates_frac");
    }
    st.pool_jobs = fam::core::par::pool_stats().jobs_dispatched - pool_before;
    Ok(((out.selection.indices, format!("{:.6}", rep.arr)), st))
}

type Answer = Result<(Vec<usize>, String), String>;

/// Checks every answer against its job's reference, computing each
/// distinct job's reference once.
fn check(
    inputs: &Inputs,
    sz: &Sizes,
    answers: &[(Job, Answer)],
    inject_wrong_answer: bool,
    tally: &mut Tally,
) {
    let mut references: Vec<(Job, Answer)> = Vec::new();
    for (job, answer) in answers {
        let reference = match references.iter().find(|(j, _)| j == job) {
            Some((_, r)) => r.clone(),
            None => {
                let mut r = traced_job(inputs.path(job), job, sz)
                    .map(|(a, _)| a)
                    .map_err(|e| e.to_string());
                if inject_wrong_answer && references.is_empty() {
                    if let Ok((sel, _)) = &mut r {
                        sel.reverse();
                        sel.push(usize::MAX);
                    }
                }
                references.push((*job, r.clone()));
                r
            }
        };
        tally.record(answer.is_ok() && reference.is_ok() && *answer == reference, || {
            format!("{} {job:?}: got {answer:?}, expected {reference:?}", job.label())
        });
    }
}

/// The untraced run: one job at a time for the whole window.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let sz = sizes(opts.workload, opts.scale);
    let (inputs, setup_s) = repeated_setup(SETUP_REPEATS, || setup(opts, &sz))?;
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds {
        let job = inputs.rotation[answers.len() % inputs.rotation.len()];
        let (answer, t) = timed(|| cli_job(inputs.path(&job), &job, &sz));
        latencies.push(t);
        answers.push((job, answer));
    }
    let window = t0.elapsed().as_secs_f64();
    let mut out = Outcome::new(opts);
    check(&inputs, &sz, &answers, opts.inject_wrong_answer, &mut out.tally);
    let arrs: Vec<f64> = answers
        .iter()
        .filter_map(|(_, a)| a.as_ref().ok().and_then(|(_, arr)| arr.parse().ok()))
        .collect();
    out.set("setup_s", setup_s);
    out.set("latency_ms_p50", median(&latencies));
    out.set("latency_ms_p90", percentile(&latencies, 0.9));
    out.set("ops_per_s", answers.len() as f64 / window);
    out.set("arr_mean", mean(&arrs));
    out.note_latencies("latency_ms", &latencies);
    out.note("mix", mix(answers.iter().map(|(j, _)| j)));
    for algo in ALGOS {
        let times: Vec<f64> = answers
            .iter()
            .zip(&latencies)
            .filter(|((j, _), _)| j.algo == algo)
            .map(|(_, t)| *t)
            .collect();
        out.note_latencies(&format!("{algo}_ms"), &times);
    }
    Ok(out)
}

/// Job counts per algorithm × k, as a JSON object.
fn mix<'a>(jobs: impl Iterator<Item = &'a Job>) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for job in jobs {
        *counts.entry(job.label()).or_insert(0u64) += 1;
    }
    let fields: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// The traced leg: alternates an untraced CLI job with the same job made
/// as timed library calls, so the stage sums can be held against the
/// untraced total and the CLI's answer against the library calls'.
pub fn trace(opts: &Options) -> Result<Outcome, String> {
    let sz = sizes(opts.workload, opts.scale);
    let inputs = setup(opts, &sz)?;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut stages: Vec<(Job, Stages)> = Vec::new();
    let mut out = Outcome::new(opts);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < opts.seconds || stages.is_empty() {
        let job = inputs.rotation[stages.len() % inputs.rotation.len()];
        let (answer, t) = timed(|| cli_job(inputs.path(&job), &job, &sz));
        untraced.push(t);
        let (result, t) = timed(|| traced_job(inputs.path(&job), &job, &sz));
        let (reference, st) = result.map_err(|e| format!("traced job failed: {e}"))?;
        traced.push(t);
        stages.push((job, st));
        out.tally.record(answer.as_ref() == Ok(&reference), || {
            format!("{} {job:?}: got {answer:?}, expected {reference:?}", job.label())
        });
    }
    let of = |f: &dyn Fn(&Stages) -> Option<f64>| -> Vec<f64> {
        stages.iter().filter_map(|(_, s)| f(s)).collect()
    };
    // Paired ratios: each traced job against the untraced run of the
    // same job just before it, so the job mix and slow drift of the host
    // cancel.
    let paired = |num: &dyn Fn(usize) -> f64| -> f64 {
        median(&(0..stages.len()).map(|i| num(i) / untraced[i]).collect::<Vec<_>>())
    };
    let stage_frac = paired(&|i| stages[i].1.sum());
    if sz.reduce {
        out.set("data.csv_load_ms", median(&of(&|s| Some(s.csv))));
        out.set("scores.tiled_build_ms", median(&of(&|s| Some(s.builds[0]))));
        out.set("reduce.compute_ms", median(&of(&|s| Some(s.reduce))));
        out.set("reduce.kept_frac", mean(&of(&|s| Some(s.kept_frac))));
        out.note("reduce_stage_frac", stage_frac.to_string());
    } else {
        out.set("scores.build_ms", median(&of(&|s| Some(s.builds[0]))));
        for algo in ALGOS {
            let times: Vec<f64> =
                stages.iter().filter(|(j, _)| j.algo == algo).map(|(_, s)| s.solve).collect();
            out.set(&format!("algos.solve_ms.{algo}"), median(&times));
        }
        out.set("algos.gs_arr_evals", mean(&of(&|s| s.gs_evals)));
        out.set("algos.gs_candidates_frac", mean(&of(&|s| s.gs_candidates)));
        out.set("evaluator.report_ms", median(&of(&|s| Some(s.report))));
        out.set("par.jobs_per_op", mean(&of(&|s| Some(s.pool_jobs as f64))));
        out.set("trace.overhead_frac", paired(&|i| traced[i]) - 1.0);
        out.set("trace.solve_stage_frac", stage_frac);
    }
    let (lo, hi) = STAGE_SUM_BOUNDS;
    out.tally.record((lo..=hi).contains(&stage_frac), || {
        format!("{} stage sums cover {stage_frac:.3} of the untraced job", opts.workload.name())
    });
    out.note(&format!("{}_traced_jobs", opts.workload.name()), stages.len().to_string());
    Ok(out)
}
