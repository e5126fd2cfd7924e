//! The correctness gate: every check runs on every benchmark run, and
//! any failure makes the benchmark exit nonzero.

use std::time::Instant;

use mann_core::{SuiteCache, TaskSuite};
use mann_serve::{serve_durable, ArrivalTrace, EngineMode, ServeConfig, Server, WalConfig};

use crate::measure::{sim_metrics, SimMetrics};
use crate::workload::{remove_dir, Dirs, Kind, Rep, Workload, VARIANT};

/// A named check and its outcome; `Err` carries why it failed.
pub type Check = (&'static str, Result<(), String>);

/// Runs every check that applies to `wl` against the last measured pass.
/// `skipped` collects the checks that do not apply, with the reason.
pub fn run(
    wl: &Workload,
    seed: u64,
    dirs: &Dirs,
    rep: &Rep,
    sim: &SimMetrics,
    skipped: &mut Vec<(&'static str, &'static str)>,
) -> Vec<Check> {
    let mut checks = Vec::new();
    timed(&mut checks, "partition", || partition(rep));
    timed(&mut checks, "tail_samples", || tail_samples(sim));
    let sub = wl.trace(&rep.suite, seed, wl.check_requests, wl.rate_rps);
    if wl.kind == Kind::LongStory {
        skipped.push((
            "cached_equals_fresh",
            "long_story builds its suite fresh with the cache off",
        ));
    } else {
        timed(&mut checks, "cached_equals_fresh", || {
            cached_equals_fresh(wl, dirs, rep, &sub)
        });
    }
    timed(&mut checks, "serial_equals_parallel", || {
        let [serial, parallel] = [EngineMode::Serial, EngineMode::Parallel]
            .map(|e| wl.serve_plain(&rep.suite, &sub, e).report_json(false));
        same(&serial, &parallel, "serial and parallel engine reports")
    });
    timed(&mut checks, "durable_equals_plain", || {
        durable_equals_plain(wl, dirs, rep, &sub)
    });
    timed(&mut checks, "threads_1_equals_2", || {
        threads_1_equals_2(wl, rep, sim)
    });
    checks
}

/// Runs one check, logging how long it took.
fn timed(checks: &mut Vec<Check>, name: &'static str, f: impl FnOnce() -> Result<(), String>) {
    let t = Instant::now();
    checks.push((name, f()));
    eprintln!("check {name} took {:.2} s", t.elapsed().as_secs_f64());
}

fn same(a: &str, b: &str, what: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what} differ"))
    }
}

/// completed + rejected + shed = requests, each request accounted once.
fn partition(rep: &Rep) -> Result<(), String> {
    let s = rep.served.summary();
    let (completed, rejected, shed) = (s.completed, rep.served.rejected(), rep.served.shed());
    if completed + rejected + shed != rep.trace.len() {
        return Err(format!(
            "{completed} completed + {rejected} rejected + {shed} shed != {} requests",
            rep.trace.len()
        ));
    }
    let ids = rep.served.completions().iter().map(|c| c.request.id);
    if !ids.clone().zip(ids.skip(1)).all(|(a, b)| a < b)
        || completed != rep.served.completions().len()
    {
        return Err("completions are not one per request id".into());
    }
    Ok(())
}

/// The p99.9 latency has at least ten samples beyond it.
fn tail_samples(sim: &SimMetrics) -> Result<(), String> {
    if sim.beyond_p999 >= 10 {
        Ok(())
    } else {
        Err(format!(
            "only {} of {} samples lie beyond p99.9",
            sim.beyond_p999, sim.n
        ))
    }
}

/// A suite that went through the cache answers exactly like one built
/// fresh by the code under test.
fn cached_equals_fresh(
    wl: &Workload,
    dirs: &Dirs,
    rep: &Rep,
    sub: &ArrivalTrace,
) -> Result<(), String> {
    // `rep.suite` came through the cache on babi10_cached and was built
    // fresh elsewhere; `other` takes the opposite route.
    let other = if wl.kind == Kind::BabiCached {
        TaskSuite::build(&rep.suite.config)
    } else {
        let cache = SuiteCache::new(dirs.root.join("gate-cache"));
        cache
            .store(&rep.suite, VARIANT)
            .map_err(|e| format!("suite cache store: {e}"))?;
        cache
            .load(&rep.suite.config, VARIANT)
            .ok_or("suite cache missed right after a store")?
    };
    let ours = wl.serve_plain(&rep.suite, sub, EngineMode::Parallel);
    let theirs = wl.serve_plain(&other, sub, EngineMode::Parallel);
    same(
        ours.answers_digest(),
        theirs.answers_digest(),
        "answers digests of the fresh and cached suites",
    )
}

/// The durable report with its durability section removed equals the
/// plain report. The cluster workload compares its own campaign; the
/// single-node workloads journal the check sub-trace.
fn durable_equals_plain(
    wl: &Workload,
    dirs: &Dirs,
    rep: &Rep,
    sub: &ArrivalTrace,
) -> Result<(), String> {
    if wl.kind == Kind::ClusterDurable {
        let plain = wl.serve_plain(&rep.suite, &rep.trace, EngineMode::Parallel);
        return same(
            &rep.served.report_json(true),
            &plain.report_json(false),
            "durable (sans durability) and plain reports",
        );
    }
    let dir = dirs.root.join("gate-wal");
    remove_dir(&dir)?;
    let config = ServeConfig {
        wal: WalConfig {
            enabled: true,
            dir: dir.display().to_string(),
            snapshot_every: 1_000,
            ..WalConfig::default()
        },
        ..wl.serve_config(None)
    };
    let server = Server::new(&rep.suite, config);
    let durable = serve_durable(&server, sub).map_err(|e| format!("durable serve: {e}"))?;
    if !durable.report.durability.enabled || durable.report.durability.records == 0 {
        return Err("the durable serve journaled nothing".into());
    }
    let plain = wl.serve_plain(&rep.suite, sub, EngineMode::Parallel);
    let durable_json =
        serde_json::to_string(&durable.report.sans_durability()).expect("reports serialize");
    same(
        &durable_json,
        &plain.report_json(false),
        "durable (sans durability) and plain reports",
    )
}

/// The campaign's sim metrics at `MANN_THREADS=1` equal the measured ones
/// (taken at the pinned 2).
fn threads_1_equals_2(wl: &Workload, rep: &Rep, sim: &SimMetrics) -> Result<(), String> {
    std::env::set_var("MANN_THREADS", "1");
    let one = wl.serve_plain(&rep.suite, &rep.trace, EngineMode::Parallel);
    std::env::set_var("MANN_THREADS", crate::THREADS);
    let at_one = sim_metrics(&one, &rep.trace, wl.busy_power_w());
    if at_one == *sim {
        Ok(())
    } else {
        Err(format!(
            "sim metrics at 1 thread {at_one:?} != at 2 {sim:?}"
        ))
    }
}
