//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a record line (seed, realized mix, sample counts, environment)
//! and then, as the last line of standard output, the result JSON:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

use perfbench::{Options, Workload};

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!("usage: perfbench --workload {} --seed N --seconds S --trace 0|1", names.join("|"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or("bad --seconds")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) => {
            Ok(Options::new(w, seed, seconds, trace))
        }
        _ => Err("missing a flag".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match perfbench::run(&opts) {
        Ok(mut outcome) => {
            for (k, v) in perfbench::metrics::environment() {
                outcome.note(&k, v);
            }
            outcome.note("attempted", outcome.tally.attempted.to_string());
            outcome.note("failed", outcome.tally.failed.to_string());
            for reason in &outcome.tally.reasons {
                eprintln!("failed: {reason}");
            }
            println!("{}", outcome.record_line());
            println!("{}", outcome.result_line(opts.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
