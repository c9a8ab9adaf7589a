//! Production-path benchmark for the `vsmooth` workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with tracing
//! off; `--trace 1` is the separate traced run that reports per-layer
//! metrics and writes its span file under `perfbench/out/`. Human-
//! readable lines come first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 1 when any output check failed, 2 on a bad command
//! line. See `perfbench/README.md` for the method.

mod checks;
mod layers;
mod spans;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use util::{json_num, json_str, nproc, peak_rss_mib, quartiles, timed};
use workloads::{Outcome, Workload};

/// Set-ups per timed run; the median is reported.
const SETUP_REPS: usize = 15;
/// Fewest timed batches a run takes, however short `--seconds` is.
const MIN_BATCHES: usize = 5;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *workloads::NAMES
                        .iter()
                        .find(|n| **n == value.as_str())
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the workload's program objects from its seed.
fn setup(name: &str, seed: u64, threads: usize, dir: &Path) -> Box<dyn Workload> {
    match name {
        "serve" => Box::new(workloads::Serve::setup(seed, threads)),
        "serve_instrumented" => Box::new(workloads::ServeInstrumented::setup(seed, threads)),
        "campaign" => Box::new(workloads::Campaign::setup(threads)),
        "fleet_ckpt" => Box::new(workloads::FleetCkpt::setup(seed, threads, dir)),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// The set-up, timed `SETUP_REPS` times; returns the last build and
/// the median set-up seconds.
fn timed_setup(
    args: &Args,
    threads: usize,
    dir: &Path,
) -> Result<(Box<dyn Workload>, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (wl, s) = timed(|| setup(args.workload, args.seed, threads, dir));
        secs.push(s);
        built = Some(wl);
    }
    let mut wl = built.expect("at least one set-up");
    wl.prepare()?;
    Ok((wl, util::median(&secs)))
}

struct Printed {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn print_result(p: &Printed) {
    let metrics: Vec<String> = p
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        p.correct,
        p.attempted,
        p.failed,
        metrics.join(", ")
    );
}

fn timed_run(args: &Args, threads: usize, dir: &Path) -> Result<Printed, String> {
    let (mut wl, setup_s) = timed_setup(args, threads, dir)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut tally = |out: &Outcome| {
        attempted += out.ops;
        failed += out.failed;
        errors.extend(out.errors.iter().cloned());
    };

    // The warm-up batch fills caches and lazy state; it is checked but
    // not timed, and its simulated statistics are the reference every
    // timed batch must reproduce exactly.
    let warm = wl.run_once();
    tally(&warm);
    let mut mcps = Vec::new();
    let mut rss = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while mcps.len() < MIN_BATCHES || Instant::now() < deadline {
        let reset = util::reset_peak_rss();
        let (mut out, secs) = timed(|| wl.run_once());
        if reset {
            rss.push(peak_rss_mib().ok_or("cannot read the resident-set high-water mark")?);
        }
        if out.digest != warm.digest {
            out.failed += 1;
            out.errors.push(format!(
                "batch {} simulated statistics differ from the warm-up batch",
                mcps.len()
            ));
        }
        tally(&out);
        mcps.push(out.sim_cycles as f64 / 1e6 / secs);
    }
    // The median batch's high-water mark: the run-wide maximum is one
    // sample of how far shards ran ahead of the merge, and it varies
    // far more from run to run than the typical batch does.
    let rss = if rss.is_empty() {
        peak_rss_mib().ok_or("cannot read the resident-set high-water mark")?
    } else {
        util::median(&rss)
    };
    let q = quartiles(&mcps);
    let fail_ratio = failed as f64 / attempted.max(1) as f64;

    println!("host.nproc: {threads}");
    println!(
        "workload: {} seed={} loop=closed batches={} threads={threads}",
        args.workload, args.seed, q.n
    );
    println!(
        "sim_mcycles_per_s: median={:.4} q1={:.4} q3={:.4} n={} Mcycles/s (host)",
        q.median, q.q1, q.q3, q.n
    );
    println!("setup_s: median={setup_s:.6} of {SETUP_REPS} s (host)");
    println!("peak_rss_mib: {rss:.2} MiB (host)");
    println!("fail_ratio: {fail_ratio} ({failed} of {attempted} operations)");
    println!(
        "sim_droops_per_kcycle: {:.6} droops/kcycle (sim)",
        warm.droops_per_kcycle
    );
    println!(
        "sim_jobs_per_mcycle: {:.6} jobs/Mcycle (sim)",
        warm.ops_per_mcycle
    );
    println!(
        "digest: {} seed={} fnv64={:016x}",
        args.workload, args.seed, warm.digest
    );
    for e in &errors {
        println!("check failed: {e}");
    }
    Ok(Printed {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("sim_mcycles_per_s".into(), q.median, "Mcycles/s"),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mib".into(), rss, "MiB"),
            ("ok_ratio".into(), 1.0 - fail_ratio, "ratio"),
            (
                "sim_droops_per_kcycle".into(),
                warm.droops_per_kcycle,
                "droops/kcycle",
            ),
            (
                "sim_jobs_per_mcycle".into(),
                warm.ops_per_mcycle,
                "jobs/Mcycle",
            ),
        ],
    })
}

fn traced_run(args: &Args, threads: usize, dir: &Path, out_dir: &Path) -> Result<Printed, String> {
    let (mut wl, _) = timed_setup(args, threads, dir)?;
    let t = layers::run(
        args.workload,
        wl.as_mut(),
        args.seed,
        args.seconds,
        threads,
        dir,
    );
    let path = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, &t.spans_json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("host.nproc: {threads}");
    println!("span file: {}", path.display());
    println!(
        "{:<44} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in &t.self_time {
        println!("{name:<44} {count:>7} {total:>12.3} {own:>12.3}");
    }
    for m in &t.metrics {
        println!("{}: {} {}", m.name, m.value, m.unit);
    }
    for e in &t.errors {
        println!("check failed: {e}");
    }
    Ok(Printed {
        correct: t.failed == 0,
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics: t
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value, m.unit))
            .collect(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = nproc();
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced_run(&args, threads, &tmp, &out_dir)
    } else {
        timed_run(&args, threads, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(p) => {
            print_result(&p);
            if !p.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
