//! The repository benchmark: three pinned serve campaigns, measured end
//! to end on the host and simulated clocks, layer by layer in a traced
//! run, behind a correctness gate.
//!
//! ```sh
//! cargo run --release --manifest-path mannbench/Cargo.toml -- \
//!     --workload babi10_cached --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--workload` is `babi10_cached`, `long_story`, `cluster_durable` or
//! `all`. `--seed` drives the suite (data and training) and the arrival
//! trace; the cluster's fault plan is pinned. `--seconds` bounds the
//! measured cold passes (at least three run). `--trace 1` pairs untraced
//! and traced passes and prints the per-layer metrics, the tracing
//! overhead and a Chrome trace file instead of the end-to-end metrics.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). Any failure makes the
//! exit code 1. `README.md` defines every workload, metric and check.

mod gate;
mod layers;
mod measure;
mod spans;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use mann_core::{SuiteCache, TaskSuite};

use crate::measure::{capacity, median, peak_rss_mb, sim_metrics};
use crate::spans::Tracer;
use crate::workload::{remove_dir, run_rep, Dirs, Kind, Rep, Workload, VARIANT, WORKLOADS};

/// The pinned worker count (`MANN_THREADS`) of every measured pass.
pub const THREADS: &str = "2";

const WAL_OFF: &str = "the write-ahead log is off in this workload";
const ONE_NODE: &str = "this workload serves on one node";
const BUILT_FRESH: &str = "this workload builds its suite fresh, without the suite cache";

/// Cold passes per untraced run, at least.
const MIN_REPS: usize = 3;

/// Untraced/traced pass pairs per traced run, at least.
const MIN_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let val = it.next().ok_or(format!("{key} needs a value"))?;
        let bad = |what: &str| format!("{key} {val:?}: expected {what}");
        match key.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| bad("seconds"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad("non-negative seconds"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if args.workload != "all" && workload::by_name(&args.workload).is_none() {
        return Err(format!("unknown --workload {:?}", args.workload));
    }
    Ok(args)
}

/// One printed metric: name, value, unit, clock, statistic.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    clock: &'static str,
    stat: String,
}

struct Outcome {
    attempted: u64,
    failed: u64,
    rows: Vec<Row>,
}

fn row(name: &str, value: f64, unit: &'static str, clock: &'static str, stat: String) -> Row {
    Row {
        name: name.to_owned(),
        value,
        unit,
        clock,
        stat,
    }
}

fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn run_workload(wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let dirs = Dirs {
        root: work_root().join(wl.name),
    };
    remove_dir(&dirs.root)?;
    std::fs::create_dir_all(&dirs.root)
        .map_err(|e| format!("creating {}: {e}", dirs.root.display()))?;
    let seed = args.seed;
    let mut tr = Tracer::new(args.trace);
    let mut off = Tracer::new(false);

    // Warm the owned suite cache with the code under test, as a user's
    // first run would; the measured passes then load it.
    if wl.kind == Kind::BabiCached {
        let fresh = tr.span("suite.build", |_| TaskSuite::build(&wl.suite_config(seed)));
        SuiteCache::new(dirs.suite_cache())
            .store(&fresh, VARIANT)
            .map_err(|e| format!("warming the suite cache: {e}"))?;
    }

    // Measured cold passes. A traced run pairs untraced and traced
    // passes, alternating which goes first, so the difference of their
    // medians is the tracing overhead.
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<[f64; 3]>, Vec<[f64; 3]>) = (Vec::new(), Vec::new());
    let mut runs = Vec::new();
    let mut last: Option<Rep> = None;
    let (min_passes, order): (usize, &[bool]) = if args.trace {
        (MIN_PAIRS, &[false, true, true, false])
    } else {
        (MIN_REPS, &[false])
    };
    if args.trace {
        // A discarded warm-up pass, so the first pair does not charge the
        // process's own warm-up to its untraced side.
        run_rep(wl, seed, &dirs, &mut off)?;
    }
    for &traced_pass in order.iter().cycle() {
        let pass_start = Instant::now();
        // Drop the previous pass first: each pass starts cold.
        drop(last.take());
        let rep = if traced_pass {
            tr.set_run(plain.len() as u64 + traced.len() as u64 + 1);
            runs.push(tr.run());
            run_rep(wl, seed, &dirs, &mut tr)?
        } else {
            run_rep(wl, seed, &dirs, &mut off)?
        };
        let times = [rep.setup_s, rep.wall_s, wl.requests as f64 / rep.serve_s];
        eprintln!(
            "pass {}{}: setup {:.4} s, serve {:.4} s, wall {:.4} s",
            plain.len() + traced.len() + 1,
            if traced_pass { " (traced)" } else { "" },
            rep.setup_s,
            rep.serve_s,
            rep.wall_s
        );
        if traced_pass {
            traced.push(times);
        } else {
            plain.push(times);
        }
        last = Some(rep);
        // Stop before a pass (a pair, traced) that would end past the
        // run's time, so the run lasts about `--seconds`.
        let balanced = !args.trace || plain.len() == traced.len();
        let next_s = pass_start.elapsed().as_secs_f64() * if args.trace { 2.0 } else { 1.0 };
        if balanced
            && plain.len() >= min_passes
            && start.elapsed().as_secs_f64() + next_s > args.seconds
        {
            break;
        }
    }
    let rep = last.expect("at least one pass ran");
    let rss = peak_rss_mb()?;
    let sim = sim_metrics(&rep.served, &rep.trace, wl.busy_power_w());

    let mut skipped = Vec::new();
    eprintln!("passes done after {:.1} s", start.elapsed().as_secs_f64());
    let checks = gate::run(wl, seed, &dirs, &rep, &sim, &mut skipped);
    eprintln!("checks done after {:.1} s", start.elapsed().as_secs_f64());
    let passes = (plain.len() + traced.len()) as u64;
    let lost = (rep.served.rejected() + rep.served.shed()) as u64;
    let mut failed = passes * lost;
    for (name, result) in &checks {
        match result {
            Ok(()) => println!("check {name}: ok"),
            Err(e) => {
                failed += 1;
                println!("check {name}: FAILED: {e}");
            }
        }
    }
    for (name, why) in &skipped {
        println!("check {name}: not run: {why}");
    }
    let attempted = checks.len() as u64 + passes * wl.requests as u64;

    let col = |v: &[[f64; 3]], i: usize| median(&v.iter().map(|r| r[i]).collect::<Vec<_>>());
    let reps = format!("median of {} cold passes", plain.len());
    let rows = if args.trace {
        let mut rows: Vec<Row> = layers::measure(wl, &dirs, &rep, &mut tr, &runs)?
            .into_iter()
            .map(|(name, value, unit, clock)| {
                row(
                    name,
                    value,
                    unit,
                    clock,
                    format!("traced passes: {}", runs.len()),
                )
            })
            .collect();
        // Say why a layer this workload does not run reads 0.
        let idle: &[(&str, &str)] = match wl.kind {
            Kind::BabiCached => &[("store.*", WAL_OFF), ("cluster.*", ONE_NODE)],
            Kind::LongStory => &[
                ("store.*", WAL_OFF),
                ("cluster.*", ONE_NODE),
                ("suite.load_s, suite.cache_bytes", BUILT_FRESH),
            ],
            Kind::ClusterDurable => &[("suite.load_s, suite.cache_bytes", BUILT_FRESH)],
        };
        for (names, why) in idle {
            println!("note: {names} read 0 here: {why}");
        }
        let names = ["setup_s", "wall_s", "host_rps"];
        for (i, name) in names.iter().enumerate() {
            let delta = col(&traced, i) - col(&plain, i);
            let unit = if i == 2 { "1/s" } else { "s" };
            rows.push(row(
                &format!("trace.overhead_{name}"),
                delta,
                unit,
                "host",
                format!("traced minus untraced median, {} pairs", traced.len()),
            ));
        }
        let path = work_root().join(format!("trace-{}-seed{seed}.json", wl.name));
        let bytes = tr
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "trace: {} ({bytes} bytes, Chrome Trace Event JSON)",
            path.display()
        );
        rows
    } else {
        let (cap, rungs) = capacity(wl, &rep.suite, seed);
        eprintln!("ladder done after {:.1} s", start.elapsed().as_secs_f64());
        for r in &rungs {
            println!(
                "ladder {:>8} rps: p99.9 {:>10.3} us, {} rejected -> {}",
                r.rate_rps,
                r.p999_us,
                r.rejected,
                if r.pass { "pass" } else { "fail" }
            );
        }
        let n = format!("nearest rank over n={} completions", sim.n);
        vec![
            row("setup_s", col(&plain, 0), "s", "host", reps.clone()),
            row("wall_s", col(&plain, 1), "s", "host", reps.clone()),
            row("host_rps", col(&plain, 2), "1/s", "host", reps),
            row(
                "peak_rss_mb",
                rss,
                "MiB",
                "host",
                "process high-water mark (VmHWM)".into(),
            ),
            row("sim_p50_us", sim.p50_us, "us", "sim", n.clone()),
            row(
                "sim_p999_us",
                sim.p999_us,
                "us",
                "sim",
                format!("{n}, {} beyond", sim.beyond_p999),
            ),
            row(
                "sim_goodput_rps",
                sim.goodput_rps,
                "1/s",
                "sim",
                "completed / makespan".into(),
            ),
            row(
                "sim_capacity_rps",
                cap,
                "1/s",
                "sim",
                format!(
                    "highest ladder rate with p99.9 <= {} us and 0 rejected, {} requests per probe",
                    wl.latency_limit_us, wl.probe_requests
                ),
            ),
            row(
                "sim_j_per_answer",
                sim.j_per_answer,
                "J",
                "sim",
                "busy power x compute time, mean over completions".into(),
            ),
            row(
                "accuracy",
                sim.accuracy,
                "frac",
                "sim",
                "correct / completed".into(),
            ),
            row(
                "served_frac",
                sim.served_frac,
                "frac",
                "sim",
                "completed / requests".into(),
            ),
        ]
    };
    Ok(Outcome {
        attempted,
        failed,
        rows,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("mannbench: {e}");
        eprintln!(
            "usage: mannbench --workload <babi10_cached|long_story|cluster_durable|all> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    std::env::set_var("MANN_THREADS", THREADS);
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let (mut attempted, mut failed, mut all_rows) = (0, 0, Vec::new());
    for wl in &selected {
        println!(
            "== {} (seed {}, MANN_THREADS={THREADS})",
            wl.name, args.seed
        );
        match run_workload(wl, &args) {
            Ok(out) => {
                for r in &out.rows {
                    println!(
                        "metric {:<28} {:>18} {:<6} [{}] {}",
                        r.name, r.value, r.unit, r.clock, r.stat
                    );
                }
                if selected.len() > 1 {
                    println!(
                        "{}",
                        json_line(out.failed == 0, out.attempted, out.failed, &out.rows)
                    );
                }
                attempted += out.attempted;
                failed += out.failed;
                all_rows.extend(out.rows.into_iter().map(|mut r| {
                    if selected.len() > 1 {
                        r.name = format!("{}.{}", wl.name, r.name);
                    }
                    r
                }));
            }
            Err(e) => {
                eprintln!("mannbench: {}: {e}", wl.name);
                std::process::exit(1);
            }
        }
    }
    let finite = all_rows.iter().all(|r| r.value.is_finite());
    if !finite {
        eprintln!("mannbench: a metric is not a finite number");
        std::process::exit(1);
    }
    println!("{}", json_line(failed == 0, attempted, failed, &all_rows));
    if failed > 0 {
        std::process::exit(1);
    }
}
