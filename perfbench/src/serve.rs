//! The serving workloads: a loopback `fam::serve::Server` driven through
//! `fam::serve::Client` keep-alive connections in closed loops (each
//! client sends its next request when the previous answer arrives).
//! Clients make one attempt per request; a retry or reconnect counts as
//! a failed operation.
//!
//! * `serve-read` — two clients on the dataset `main`. Four in five
//!   requests are canonical cache hits, one in five a cold add-greedy
//!   solve past the cached `k` range, so the median reads the hit path
//!   and the 90th percentile the miss path.
//! * `serve-write` — one writer sends `POST /update` batches (2 inserts,
//!   1 delete) back to back; every 20th write is instead a
//!   `POST /refine` on the next coarse replica dataset. One reader sends
//!   cached `/solve` hits on `main` the whole time, pausing 5 ms between
//!   answers.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use fam::prelude::*;
// Explicit import wins over the prelude's `Result<T>` alias.
use fam::serve::{Client, ClientOptions, DatasetService, ServeOptions, Server, ServerHandle};
use fam::{DynamicEngine, Registry, ScoreMatrix, SolverSpec, UpdateBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::result::Result;

use crate::metrics::{mean, median, percentile, Outcome, Tally};
use crate::wire;
use crate::{repeated_setup, timed, Options, Scale, SETUP_REPEATS, STAGE_SUM_BOUNDS};

const ALGOS: [&str; 2] = ["greedy-shrink", "add-greedy"];

/// The refine precision every coarse replica is raised to.
const REFINE_EPSILON: f64 = 0.05;

/// `serve-read` requests come in blocks of this many, exactly one of
/// them (at a seeded position) a cache miss, so every run has the same
/// hit/miss mix.
const READ_BLOCK: usize = 5;

/// Pause between the `serve-write` reader's requests (a page render), so
/// the reader loads the server without taking a whole core from the
/// writer.
const READER_THINK: Duration = Duration::from_millis(5);

fn quoted_counts(pairs: &[(&str, usize)]) -> String {
    let fields: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", fields.join(","))
}

/// Generates a seeded anti-correlated dataset, writes it as CSV and reads
/// it back, as `fam serve --data` would.
fn csv_dataset(
    opts: &Options,
    name: &str,
    n: usize,
    d: usize,
    seed: u64,
) -> Result<Dataset, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = synthetic(n, d, Correlation::AntiCorrelated, &mut rng).map_err(|e| e.to_string())?;
    let path = opts.work_dir.join(format!("{name}.csv"));
    fam::data::write_csv(&ds, &path).map_err(|e| e.to_string())?;
    fam::data::read_csv(&path, false).map_err(|e| e.to_string())
}

fn serve_options(samples: usize, seed: u64, cache_hi: usize) -> ServeOptions {
    ServeOptions { samples, seed, cache_k: 1..=cache_hi, ..ServeOptions::default() }
}

fn build(name: &str, ds: &Dataset, so: &ServeOptions) -> Result<DatasetService, String> {
    DatasetService::build(name, ds, so).map_err(|e| e.to_string())
}

/// Shuts the server down when dropped, so a panicking client cannot leave
/// the server thread running.
struct Shutdown(ServerHandle);

impl Drop for Shutdown {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Serves `services` on a loopback port for the duration of `f`, then
/// drains the server and waits for its threads.
fn with_server<T>(
    services: Vec<DatasetService>,
    workers: usize,
    f: impl FnOnce(&str) -> T,
) -> Result<T, String> {
    let options = fam::serve::ServerOptions {
        workers,
        max_requests_per_conn: u64::MAX,
        idle_timeout: Duration::from_secs(300),
        ..fam::serve::ServerOptions::default()
    };
    let server =
        Server::bind_with(("127.0.0.1", 0), services, options).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let guard = Shutdown(server.handle());
    std::thread::scope(|s| {
        let runner = s.spawn(move || server.run());
        let out = f(&addr);
        drop(guard);
        runner.join().map_err(|_| "server thread panicked".to_string())?;
        Ok(out)
    })
}

fn client(addr: &str, seed: u64) -> Client {
    Client::with_options(
        addr,
        ClientOptions {
            attempts: 1,
            timeout: Duration::from_secs(120),
            seed,
            ..ClientOptions::default()
        },
    )
}

/// A finished client's retry and connection counts. Taking the client
/// closes its connection, which the server's drain waits for.
struct ClientCounts {
    retries: u64,
    reconnects: u64,
}

impl ClientCounts {
    fn of(c: Client) -> ClientCounts {
        ClientCounts { retries: c.retries(), reconnects: c.reconnects() }
    }

    /// Records that the client neither retried nor reconnected.
    fn check(&self, who: &str, tally: &mut Tally) {
        let (retries, reconnects) = (self.retries, self.reconnects);
        tally.record(retries == 0 && reconnects == 1, || {
            format!("{who}: {retries} retries, {reconnects} connections")
        });
    }
}

/// One timed request and its answer.
struct Sample {
    algo: &'static str,
    k: usize,
    /// Client-measured latency.
    ms: f64,
    /// `(status, body)`, or the transport error.
    answer: Result<(u16, String), String>,
}

impl Sample {
    fn body(&self) -> Option<&str> {
        match &self.answer {
            Ok((200, body)) => Some(body),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Option<f64> {
        wire::num(self.body()?, key)
    }
}

fn get(c: &mut Client, algo: &'static str, k: usize, dataset: &str) -> Sample {
    let path = format!("/solve?dataset={dataset}&k={k}&algo={algo}");
    let (answer, ms) = timed(|| c.get(&path).map(|r| (r.status, r.body)));
    Sample { algo, k, ms, answer }
}

/// Checks a `/solve` answer against a reference service's answer for the
/// same `(algo, k)`: equal selection, bit-equal `arr`, and the expected
/// cache flag when one is given.
fn check_solve(sample: &Sample, reference: &Answer, cached: Option<bool>, tally: &mut Tally) {
    let got =
        sample.body().and_then(|b| Some((wire::indices(b, "selection")?, wire::num(b, "arr")?)));
    let flag_ok = match (cached, sample.body()) {
        (Some(want), Some(b)) => wire::flag(b, "cached") == Some(want),
        _ => true,
    };
    let ok = flag_ok
        && matches!((&got, reference), (Some((s, a)), Ok((rs, ra))) if s == rs && a.to_bits() == ra.to_bits());
    tally.record(ok, || {
        format!(
            "/solve {} k={}: got {:?}, expected {reference:?} (cached {cached:?})",
            sample.algo, sample.k, sample.answer
        )
    });
}

/// A selection and its `arr`, or why there is none.
type Answer = Result<(Vec<usize>, f64), String>;

/// A cold registry solve on a service's resident matrix and coordinates:
/// the path `DatasetService::solve` takes on a cache miss.
fn cold_solve(svc: &DatasetService, algo: &str, k: usize) -> Answer {
    let out = Registry::global()
        .solve(&SolverSpec::new(algo, k), svc.matrix(), Some(svc.dataset()))
        .map_err(|e| e.to_string())?;
    let arr = out.selection.objective.ok_or("solver reported no arr")?;
    Ok((out.selection.indices, arr))
}

/// The answer a service gives through its own `solve` (cache or cold).
fn service_solve(svc: &DatasetService, algo: &str, k: usize) -> Answer {
    svc.solve(&SolverSpec::new(algo, k)).map(|(r, _)| (r.indices, r.arr)).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------- reads

struct ReadSizes {
    n: usize,
    d: usize,
    samples: usize,
    cache_hi: usize,
    miss_ks: RangeInclusive<usize>,
}

fn read_sizes(scale: Scale) -> ReadSizes {
    match scale {
        Scale::Full => ReadSizes { n: 2_000, d: 4, samples: 5_000, cache_hi: 10, miss_ks: 11..=15 },
        Scale::Tiny => ReadSizes { n: 150, d: 4, samples: 400, cache_hi: 5, miss_ks: 6..=8 },
    }
}

const READ_CLIENTS: usize = 2;

/// What one read client saw: `(is_miss, sample)` pairs, its window, and
/// its connection counts.
struct ReadClient {
    samples: Vec<(bool, Sample)>,
    window: f64,
    counts: ClientCounts,
}

struct ReadRun {
    samples: Vec<(bool, Sample)>,
    window: f64,
    clients: Vec<ClientCounts>,
    stats: Option<String>,
}

/// Two closed-loop clients for `seconds`, each with its own seeded
/// request stream; `(is_miss, sample)` pairs in completion order.
fn read_load(addr: &str, opts: &Options, sz: &ReadSizes, seconds: f64) -> ReadRun {
    let barrier = Barrier::new(READ_CLIENTS);
    let per_client: Vec<ReadClient> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READ_CLIENTS)
            .map(|i| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(opts.seed ^ (0x5eed_0000 + i as u64));
                    let mut c = client(addr, opts.seed + i as u64);
                    // Opens the keep-alive connection before timing.
                    let _ = get(&mut c, "add-greedy", 1, "main");
                    barrier.wait();
                    let t0 = Instant::now();
                    let mut out = Vec::new();
                    let mut miss_at = 0;
                    while t0.elapsed().as_secs_f64() < seconds {
                        if out.len() % READ_BLOCK == 0 {
                            miss_at = out.len() + rng.gen_range(0..READ_BLOCK);
                        }
                        let miss = out.len() == miss_at;
                        let (algo, k) = if miss {
                            ("add-greedy", rng.gen_range(sz.miss_ks.clone()))
                        } else {
                            (ALGOS[rng.gen_range(0..ALGOS.len())], rng.gen_range(1..=sz.cache_hi))
                        };
                        out.push((miss, get(&mut c, algo, k, "main")));
                    }
                    ReadClient {
                        samples: out,
                        window: t0.elapsed().as_secs_f64(),
                        counts: ClientCounts::of(c),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("read client panicked")).collect()
    });
    let stats = client(addr, 0).get("/stats").ok().map(|r| r.body);
    let mut run = ReadRun { samples: Vec::new(), window: 0.0, clients: Vec::new(), stats };
    for ReadClient { samples, window, counts: c } in per_client {
        run.samples.extend(samples);
        run.window = run.window.max(window);
        run.clients.push(c);
    }
    run
}

/// Checks every read against cold solves on an identically built replica
/// (hits must come from the cache, misses must not).
fn check_reads(run: &ReadRun, replica: &DatasetService, inject: bool, tally: &mut Tally) {
    let mut references: Vec<((&str, usize), Answer)> = Vec::new();
    for (miss, sample) in &run.samples {
        let key = (sample.algo, sample.k);
        let reference = match references.iter().find(|(k, _)| *k == key) {
            Some((_, r)) => r.clone(),
            None => {
                let mut r = cold_solve(replica, sample.algo, sample.k);
                if inject && references.is_empty() {
                    if let Ok((sel, _)) = &mut r {
                        sel.push(usize::MAX);
                    }
                }
                references.push((key, r.clone()));
                r
            }
        };
        check_solve(sample, &reference, Some(!miss), tally);
    }
    for (i, c) in run.clients.iter().enumerate() {
        c.check(&format!("read client {i}"), tally);
    }
}

/// Sets `serve-read` up (`repeats` times, timed; the first set-up is
/// served), builds the replica the answers are checked against, runs the
/// load and checks every read. Returns the run, the replica, the outcome
/// holding the checks, and the median set-up time.
fn read_leg(
    opts: &Options,
    sz: &ReadSizes,
    repeats: usize,
) -> Result<(ReadRun, DatasetService, Outcome, f64), String> {
    let so = serve_options(sz.samples, opts.seed, sz.cache_hi);
    let ((ds, served), setup_s) = repeated_setup(repeats, || {
        let ds = csv_dataset(opts, "main", sz.n, sz.d, opts.seed)?;
        let svc = build("main", &ds, &so)?;
        Ok((ds, svc))
    })?;
    let replica = build("main", &ds, &so)?;
    let run =
        with_server(vec![served], READ_CLIENTS, |addr| read_load(addr, opts, sz, opts.seconds))?;
    let mut out = Outcome::new(opts);
    check_reads(&run, &replica, opts.inject_wrong_answer, &mut out.tally);
    Ok((run, replica, out, setup_s))
}

/// The untraced `serve-read` run.
pub fn run_read(opts: &Options) -> Result<Outcome, String> {
    let sz = read_sizes(opts.scale);
    let (run, _, mut out, setup_s) = read_leg(opts, &sz, SETUP_REPEATS)?;
    let latencies: Vec<f64> = run.samples.iter().map(|(_, s)| s.ms).collect();
    let arrs: Vec<f64> = run.samples.iter().filter_map(|(_, s)| s.field("arr")).collect();
    let misses = run.samples.iter().filter(|(m, _)| *m).count();
    out.set("setup_s", setup_s);
    out.set("latency_ms_p50", median(&latencies));
    out.set("latency_ms_p90", percentile(&latencies, 0.9));
    out.set("ops_per_s", run.samples.len() as f64 / run.window);
    out.set("arr_mean", mean(&arrs));
    out.note_latencies("latency_ms", &latencies);
    out.note("mix", quoted_counts(&[("hits", run.samples.len() - misses), ("misses", misses)]));
    let class = |miss: bool| -> Vec<f64> {
        run.samples.iter().filter(|(m, _)| *m == miss).map(|(_, s)| s.ms).collect()
    };
    out.note_latencies("hit_ms", &class(false));
    out.note_latencies("miss_ms", &class(true));
    Ok(out)
}

/// The traced `serve-read` leg: the same load, with the server's own
/// handling time (`micros`) split from the client latency, and the
/// service's solve timed directly on the replica.
pub fn trace_read(opts: &Options) -> Result<Outcome, String> {
    let sz = read_sizes(opts.scale);
    let (run, replica, mut out, _) = read_leg(opts, &sz, 1)?;
    let hits: Vec<&Sample> = run.samples.iter().filter(|(m, _)| !m).map(|(_, s)| s).collect();
    let micros: Vec<f64> = hits.iter().filter_map(|s| s.field("micros")).collect();
    let overhead: Vec<f64> =
        hits.iter().filter_map(|s| Some(s.ms * 1e3 - s.field("micros")?)).collect();
    // `micros` is a whole number; its mean keeps the metric's digits.
    out.set("server.handle_us", mean(&micros));
    out.set("http.overhead_us", median(&overhead));
    let stats = run.stats.unwrap_or_default();
    let (h, m) = (wire::num(&stats, "cache_hits"), wire::num(&stats, "cache_misses"));
    out.set(
        "server.cache_hit_frac",
        match (h, m) {
            (Some(h), Some(m)) if h + m > 0.0 => h / (h + m),
            _ => f64::NAN,
        },
    );
    let mut hit_us = Vec::new();
    for _ in 0..50 {
        for algo in ALGOS {
            for k in 1..=sz.cache_hi {
                let (r, t) = timed(|| replica.solve(&SolverSpec::new(algo, k)));
                hit_us.push(t * 1e3);
                out.tally
                    .record(matches!(r, Ok((_, true))), || format!("replica {algo} k={k} missed"));
            }
        }
    }
    let mut miss_ms = Vec::new();
    for k in sz.miss_ks.clone() {
        let (r, t) = timed(|| replica.solve(&SolverSpec::new("add-greedy", k)));
        miss_ms.push(t);
        out.tally.record(matches!(r, Ok((_, false))), || format!("replica add-greedy k={k} hit"));
    }
    out.set("service.solve_hit_us", median(&hit_us));
    out.set("service.solve_miss_ms", median(&miss_ms));
    let m = replica.matrix();
    let layouts = 1 + usize::from(m.has_column_mirror());
    out.set(
        "scores.resident_mb",
        (m.n_samples() * m.n_points() * 8 * layouts) as f64 / (1024.0 * 1024.0),
    );
    Ok(out)
}

// --------------------------------------------------------------- writes

struct WriteSizes {
    n: usize,
    d: usize,
    samples: usize,
    cache_hi: usize,
    replicas: usize,
    replica_n: usize,
    replica_samples: usize,
    replica_cache_hi: usize,
    refine_every: usize,
}

fn write_sizes(scale: Scale) -> WriteSizes {
    match scale {
        Scale::Full => WriteSizes {
            n: 1_000,
            d: 4,
            samples: 2_000,
            cache_hi: 10,
            replicas: 24,
            replica_n: 200,
            replica_samples: 500,
            replica_cache_hi: 5,
            refine_every: 20,
        },
        Scale::Tiny => WriteSizes {
            n: 120,
            d: 4,
            samples: 300,
            cache_hi: 5,
            replicas: 4,
            replica_n: 40,
            replica_samples: 100,
            replica_cache_hi: 3,
            refine_every: 3,
        },
    }
}

/// The datasets of `serve-write`: `main` and the coarse replicas.
struct WriteInputs {
    main: Dataset,
    replicas: Vec<Dataset>,
}

fn replica_name(i: usize) -> String {
    format!("r{i}")
}

fn replica_seed(opts: &Options, i: usize) -> u64 {
    opts.seed.wrapping_add(1_000 + i as u64)
}

fn write_setup(
    opts: &Options,
    sz: &WriteSizes,
) -> Result<(WriteInputs, Vec<DatasetService>), String> {
    let main = csv_dataset(opts, "main", sz.n, sz.d, opts.seed)?;
    let mut services =
        vec![build("main", &main, &serve_options(sz.samples, opts.seed, sz.cache_hi))?];
    let mut replicas = Vec::new();
    for i in 0..sz.replicas {
        let name = replica_name(i);
        let seed = replica_seed(opts, i);
        let ds = csv_dataset(opts, &name, sz.replica_n, sz.d, seed)?;
        services.push(build(
            &name,
            &ds,
            &serve_options(sz.replica_samples, seed, sz.replica_cache_hi),
        )?);
        replicas.push(ds);
    }
    Ok((WriteInputs { main, replicas }, services))
}

enum Write {
    Update { text: String, sample: Sample },
    Refine { replica: usize, sample: Sample },
}

struct WriteRun {
    writes: Vec<Write>,
    reads: Vec<Sample>,
    /// Final answers: `(dataset, sample)` for every cached `(algo, k)` of
    /// `main` and of each refined replica.
    finals: Vec<(String, Sample)>,
    window: f64,
    clients: Vec<ClientCounts>,
}

/// A seeded batch: two inserts drawn from the dataset's own
/// anti-correlated distribution (so answer quality stays stationary over
/// the run) and one delete of a pre-batch index.
fn batch_text(rng: &mut StdRng, n_points: usize, d: usize) -> String {
    let mut text = String::new();
    let fresh = synthetic(2, d, Correlation::AntiCorrelated, rng).expect("2 points, d > 0");
    for p in 0..fresh.len() {
        let coords: Vec<String> = fresh.point(p).iter().map(f64::to_string).collect();
        text.push_str(&format!("insert,{}\n", coords.join(",")));
    }
    text.push_str(&format!("delete,{}\n", rng.gen_range(0..n_points)));
    text
}

/// One writer and one reader for `seconds`; the reader stops when the
/// writer does.
fn write_load(addr: &str, opts: &Options, sz: &WriteSizes, seconds: f64) -> WriteRun {
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let ((writes, window, wc), (reads, rc)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x0057_e1fe);
            let mut c = client(addr, opts.seed);
            let _ = c.get("/healthz");
            barrier.wait();
            let t0 = Instant::now();
            let mut writes = Vec::new();
            let (mut n_points, mut next_replica) = (sz.n, 0);
            while t0.elapsed().as_secs_f64() < seconds {
                if (writes.len() + 1) % sz.refine_every == 0 && next_replica < sz.replicas {
                    let path = format!(
                        "/refine?dataset={}&epsilon={REFINE_EPSILON}",
                        replica_name(next_replica)
                    );
                    let (answer, ms) = timed(|| c.post(&path, "").map(|r| (r.status, r.body)));
                    let sample = Sample { algo: "refine", k: 0, ms, answer };
                    writes.push(Write::Refine { replica: next_replica, sample });
                    next_replica += 1;
                } else {
                    let text = batch_text(&mut rng, n_points, sz.d);
                    let (answer, ms) =
                        timed(|| c.post("/update?dataset=main", &text).map(|r| (r.status, r.body)));
                    if matches!(answer, Ok((200, _))) {
                        n_points += 1;
                    }
                    let sample = Sample { algo: "update", k: 0, ms, answer };
                    writes.push(Write::Update { text, sample });
                }
            }
            let window = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (writes, window, ClientCounts::of(c))
        });
        let reader = s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x00ea_d000);
            let mut c = client(addr, opts.seed + 1);
            let _ = get(&mut c, "add-greedy", 1, "main");
            barrier.wait();
            let mut reads = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let algo = ALGOS[rng.gen_range(0..ALGOS.len())];
                reads.push(get(&mut c, algo, rng.gen_range(1..=sz.cache_hi), "main"));
                std::thread::sleep(READER_THINK);
            }
            (reads, ClientCounts::of(c))
        });
        (writer.join().expect("writer panicked"), reader.join().expect("reader panicked"))
    });
    let mut fc = client(addr, opts.seed + 2);
    let mut finals = Vec::new();
    for algo in ALGOS {
        for k in 1..=sz.cache_hi {
            finals.push(("main".to_string(), get(&mut fc, algo, k, "main")));
        }
        for w in &writes {
            if let Write::Refine { replica, .. } = w {
                let name = replica_name(*replica);
                for k in 1..=sz.replica_cache_hi {
                    let sample = get(&mut fc, algo, k, &name);
                    finals.push((name.clone(), sample));
                }
            }
        }
    }
    WriteRun { writes, reads, finals, window, clients: vec![wc, rc, ClientCounts::of(fc)] }
}

/// Stage times of one replayed update batch (traced replay only).
struct ReplayStages {
    clone_ms: f64,
    parse_us: f64,
    apply_ms: f64,
}

/// Replays every applied batch on a replica built like `main` and checks
/// the served state after each one: the `/update` answer's generation,
/// resident selection and `arr`, every read answered at that generation,
/// and at the end the final `/solve` answers. Each refined replica must
/// answer like a fresh build at its grown sample count. The traced
/// replay mirrors the server's write path (clone, parse, apply) and
/// times each stage; the untraced one applies the text in place.
fn check_writes(
    run: &WriteRun,
    inputs: &WriteInputs,
    opts: &Options,
    sz: &WriteSizes,
    traced: bool,
    tally: &mut Tally,
) -> Result<Vec<ReplayStages>, String> {
    let mut replica =
        build("main", &inputs.main, &serve_options(sz.samples, opts.seed, sz.cache_hi))?;
    let mut stages = Vec::new();
    let generation = |s: &Sample| s.field("generation").map(|g| g as u64);
    let mut reads_at: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in &run.reads {
        match generation(s) {
            Some(g) => reads_at.entry(g).or_default().push(s),
            None => tally.record(false, || format!("read failed: {:?}", s.answer)),
        }
    }
    let check_reads_at = |g: u64, replica: &DatasetService, tally: &mut Tally| {
        for s in reads_at.get(&g).into_iter().flatten() {
            check_solve(s, &service_solve(replica, s.algo, s.k), Some(true), tally);
        }
    };
    let mut g = 1u64;
    check_reads_at(g, &replica, tally);
    for w in &run.writes {
        let Write::Update { text, sample } = w else { continue };
        if sample.body().is_none() {
            tally.record(false, || format!("update failed: {:?}", sample.answer));
            continue;
        }
        if traced {
            let (mut next, clone_ms) = timed(|| replica.clone());
            let (ops, parse_ms) = timed(|| fam::data::parse_update_ops(text, sz.d, "batch"));
            let ops = ops.map_err(|e| e.to_string())?;
            let (applied, apply_ms) = timed(|| next.apply_ops(&ops));
            applied.map_err(|e| e.to_string())?;
            replica = next;
            stages.push(ReplayStages { clone_ms, parse_us: parse_ms * 1e3, apply_ms });
        } else {
            replica.apply_update_text(text, "batch").map_err(|e| e.to_string())?;
        }
        g += 1;
        let body = sample.body().unwrap_or_default();
        let ok = generation(sample) == Some(g)
            && wire::indices(body, "resident_selection") == Some(replica.resident_selection())
            && wire::num(body, "resident_arr").map(f64::to_bits)
                == Some(replica.resident_arr().to_bits());
        tally.record(ok, || format!("update to generation {g}: {body} vs replica"));
        check_reads_at(g, &replica, tally);
    }
    let max_read = reads_at.keys().next_back().copied().unwrap_or(1);
    tally.record(max_read <= g, || format!("a read saw generation {max_read} > {g}"));
    for (i, (_, s)) in run.finals.iter().filter(|(n, _)| n == "main").enumerate() {
        let mut reference = service_solve(&replica, s.algo, s.k);
        if i == 0 && opts.inject_wrong_answer {
            if let Ok((sel, _)) = &mut reference {
                sel.push(usize::MAX);
            }
        }
        check_solve(s, &reference, Some(true), tally);
    }
    for w in &run.writes {
        let Write::Refine { replica: i, sample } = w else { continue };
        let grown = sample.field("n_samples").map(|v| v as usize);
        let refined = sample.body().and_then(|b| wire::flag(b, "already_satisfied")) == Some(false);
        tally.record(grown.is_some() && refined, || format!("refine failed: {:?}", sample.answer));
        let Some(grown) = grown else { continue };
        let name = replica_name(*i);
        let seed = replica_seed(opts, *i);
        let fresh =
            build(&name, &inputs.replicas[*i], &serve_options(grown, seed, sz.replica_cache_hi))?;
        for (_, s) in run.finals.iter().filter(|(n, _)| *n == name) {
            check_solve(s, &service_solve(&fresh, s.algo, s.k), Some(true), tally);
        }
    }
    for (i, c) in run.clients.iter().enumerate() {
        c.check(&format!("write-workload client {i}"), tally);
    }
    Ok(stages)
}

fn write_counts(run: &WriteRun) -> (Vec<&Sample>, Vec<&Sample>) {
    let mut updates = Vec::new();
    let mut refines = Vec::new();
    for w in &run.writes {
        match w {
            Write::Update { sample, .. } => updates.push(sample),
            Write::Refine { sample, .. } => refines.push(sample),
        }
    }
    (updates, refines)
}

/// One measured `serve-write` window and its checks.
struct WriteLeg {
    run: WriteRun,
    inputs: WriteInputs,
    out: Outcome,
    /// Replay stage times (traced legs only).
    stages: Vec<ReplayStages>,
    setup_s: f64,
}

/// Sets `serve-write` up (`repeats` times, timed; the first set-up is
/// served), runs the writer and the reader, and checks everything they
/// saw by replay.
fn write_leg(
    opts: &Options,
    sz: &WriteSizes,
    repeats: usize,
    traced: bool,
) -> Result<WriteLeg, String> {
    let ((inputs, services), setup_s) = repeated_setup(repeats, || write_setup(opts, sz))?;
    let run = with_server(services, 2, |addr| write_load(addr, opts, sz, opts.seconds))?;
    let mut out = Outcome::new(opts);
    let stages = check_writes(&run, &inputs, opts, sz, traced, &mut out.tally)?;
    Ok(WriteLeg { run, inputs, out, stages, setup_s })
}

/// The untraced `serve-write` run.
pub fn run_write(opts: &Options) -> Result<Outcome, String> {
    let sz = write_sizes(opts.scale);
    let WriteLeg { run, mut out, setup_s, .. } = write_leg(opts, &sz, SETUP_REPEATS, false)?;
    let (updates, refines) = write_counts(&run);
    let latencies: Vec<f64> = run
        .writes
        .iter()
        .map(|w| match w {
            Write::Update { sample, .. } | Write::Refine { sample, .. } => sample.ms,
        })
        .collect();
    let arrs: Vec<f64> = run.reads.iter().filter_map(|s| s.field("arr")).collect();
    out.set("setup_s", setup_s);
    out.set("latency_ms_p50", median(&latencies));
    out.set("latency_ms_p90", percentile(&latencies, 0.9));
    out.set("ops_per_s", latencies.len() as f64 / run.window);
    out.set("arr_mean", mean(&arrs));
    out.note_latencies("latency_ms", &latencies);
    out.note(
        "mix",
        quoted_counts(&[
            ("updates", updates.len()),
            ("refines", refines.len()),
            ("reads", run.reads.len()),
        ]),
    );
    out.note_latencies("update_ms", &updates.iter().map(|s| s.ms).collect::<Vec<_>>());
    out.note_latencies("refine_ms", &refines.iter().map(|s| s.ms).collect::<Vec<_>>());
    out.note_latencies(
        "read_beside_writes_ms",
        &run.reads.iter().map(|s| s.ms).collect::<Vec<_>>(),
    );
    Ok(out)
}

/// The traced `serve-write` leg: the same load, then a replay that times
/// the write path's stages on a replica, plus the engine, harvest and
/// refine calls timed on their own.
pub fn trace_write(opts: &Options) -> Result<Outcome, String> {
    let sz = write_sizes(opts.scale);
    let WriteLeg { run, inputs, mut out, stages, .. } = write_leg(opts, &sz, 1, true)?;
    let (updates, _) = write_counts(&run);
    let of = |f: &dyn Fn(&ReplayStages) -> f64| -> Vec<f64> { stages.iter().map(f).collect() };
    let (clone_ms, parse_us, apply_ms) =
        (median(&of(&|s| s.clone_ms)), median(&of(&|s| s.parse_us)), median(&of(&|s| s.apply_ms)));
    out.set("service.clone_ms", clone_ms);
    out.set("data.op_parse_us", parse_us);
    out.set("service.apply_ms", apply_ms);
    let micros_ms: Vec<f64> =
        updates.iter().filter_map(|s| Some(s.field("micros")? / 1e3)).collect();
    let writer_overhead = median(&micros_ms) - clone_ms - parse_us / 1e3 - apply_ms;
    out.set("server.writer_overhead_ms", writer_overhead);
    let client_ms: Vec<f64> = updates.iter().map(|s| s.ms).collect();
    let stage_frac = (clone_ms + parse_us / 1e3 + apply_ms + writer_overhead) / median(&client_ms);
    out.set("trace.update_stage_frac", stage_frac);
    let (lo, hi) = STAGE_SUM_BOUNDS;
    out.tally.record((lo..=hi).contains(&stage_frac), || {
        format!("update stage sums cover {stage_frac:.3} of the client latency")
    });
    let repair = |key: &str| -> Vec<f64> {
        updates.iter().filter_map(|s| wire::num(s.body()?, key)).collect()
    };
    out.set("algos.repair_evals", mean(&repair("evaluations")));
    out.set("dynamic.resumed_rescans", mean(&repair("resumed_rescans")));
    out.set("dynamic.apply_ms", standalone_engine_ms(&inputs.main, &run, opts, &sz)?);
    out.set("algos.harvest_ms", harvest_ms(&inputs.main, opts, &sz)?);
    out.set("service.refine_ms", refine_ms(&inputs, opts, &sz)?);
    out.note("serve_write_traced_updates", updates.len().to_string());
    Ok(out)
}

/// Median time of `DynamicEngine::apply_with(batch, warm_repair)` on an
/// engine the benchmark builds itself at `main`'s sizes, fed the batches
/// the writer sent (at most 40).
fn standalone_engine_ms(
    ds: &Dataset,
    run: &WriteRun,
    opts: &Options,
    sz: &WriteSizes,
) -> Result<f64, String> {
    let err = |e: fam::FamError| e.to_string();
    let dist = UniformLinear::new(sz.d).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let functions: Vec<_> = (0..sz.samples).map(|_| dist.sample(&mut rng)).collect();
    let matrix = ScoreMatrix::from_functions(ds, &functions, None).map_err(err)?;
    let (initial, _) = cold_solve_matrix(&matrix, sz.cache_hi)?;
    let mut engine = DynamicEngine::new(matrix, sz.cache_hi, &initial).map_err(err)?;
    let mut times = Vec::new();
    for w in run.writes.iter().take(40) {
        let Write::Update { text, sample } = w else { continue };
        if sample.body().is_none() {
            continue;
        }
        let mut batch = UpdateBatch::default();
        for op in fam::data::parse_update_ops(text, sz.d, "batch").map_err(err)? {
            match op {
                fam::data::UpdateOp::Insert(coords) => batch
                    .insert
                    .push(functions.iter().map(|f| f.utility(usize::MAX, &coords)).collect()),
                fam::data::UpdateOp::Delete(i) => batch.delete.push(i),
            }
        }
        let (applied, t) = timed(|| engine.apply_with(&batch, fam::warm_repair));
        applied.map_err(err)?;
        times.push(t);
    }
    Ok(median(&times))
}

fn cold_solve_matrix(m: &ScoreMatrix, k: usize) -> Answer {
    let out = Registry::global()
        .solve(&SolverSpec::new("add-greedy", k), m, None)
        .map_err(|e| e.to_string())?;
    Ok((out.selection.indices, out.selection.objective.unwrap_or(f64::NAN)))
}

/// Median time of one cache re-harvest on `main`: `Registry::solve_range`
/// over the cached `k` range for every range-harvesting solver.
fn harvest_ms(ds: &Dataset, opts: &Options, sz: &WriteSizes) -> Result<f64, String> {
    let svc = build("main", ds, &serve_options(sz.samples, opts.seed, sz.cache_hi))?;
    let registry = Registry::global();
    let harvest = || -> fam::Result<()> {
        for solver in registry.iter().filter(|s| s.capabilities().range_harvest) {
            let spec = SolverSpec::new(solver.name(), sz.cache_hi);
            registry.solve_range(&spec, svc.matrix(), None, 1..=sz.cache_hi)?;
        }
        Ok(())
    };
    let mut times = Vec::new();
    for _ in 0..5 {
        let (done, t) = timed(harvest);
        done.map_err(|e| e.to_string())?;
        times.push(t);
    }
    Ok(median(&times))
}

/// Median time of `DatasetService::refine` on a clone of a freshly built
/// coarse replica (three replicas).
fn refine_ms(inputs: &WriteInputs, opts: &Options, sz: &WriteSizes) -> Result<f64, String> {
    let mut times = Vec::new();
    for (i, ds) in inputs.replicas.iter().enumerate().take(3) {
        let so = serve_options(sz.replica_samples, replica_seed(opts, i), sz.replica_cache_hi);
        let coarse = build(&replica_name(i), ds, &so)?;
        let mut next = coarse.clone();
        let (r, t) = timed(|| next.refine(REFINE_EPSILON, fam::DEFAULT_SIGMA));
        r.map_err(|e| e.to_string())?;
        times.push(t);
    }
    Ok(median(&times))
}
