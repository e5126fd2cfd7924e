//! Per-layer metrics of the traced run, measured from outside each
//! layer: spans around the public calls, plus the report sections.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use mann_babi::DatasetBuilder;
use mann_core::parallel::{parallel_map_indexed, worker_threads};
use mann_core::{SuiteConfig, TrainedTask};
use mann_hw::story_digest;
use mann_ith::ThresholdingCalibrator;
use mann_serve::{EngineMode, Server};
use memn2n::Trainer;

use crate::measure::{median, percentile, Summary};
use crate::spans::Tracer;
use crate::workload::{Dirs, Kind, Rep, Workload};

/// One metric: name, value, unit, clock (`host` or `sim`).
pub type Metric = (&'static str, f64, &'static str, &'static str);

/// Median over traced runs of the seconds spent in spans named `name`
/// (runs without such a span are skipped); 0 if no run has one.
pub fn median_span(tr: &Tracer, name: &str, runs: &[u64]) -> f64 {
    let per_run: Vec<f64> = runs
        .iter()
        .map(|&r| tr.total_s(name, r))
        .filter(|&s| s > 0.0)
        .collect();
    median(&per_run)
}

/// Rebuilds every task of the suite through the three layers under it
/// (dataset generation, training, threshold calibration) with a span
/// around each, exactly as `TaskSuite::build` composes them, and checks
/// that the result equals the campaign's suite.
pub fn split_build(
    cfg: &SuiteConfig,
    expect: &[TrainedTask],
    tr: &mut Tracer,
) -> Result<(), String> {
    for (i, &task) in cfg.tasks.iter().enumerate() {
        let data = tr.span("babi.generate", |_| {
            DatasetBuilder::new()
                .train_samples(cfg.train_samples)
                .test_samples(cfg.test_samples)
                .seed(cfg.seed)
                .story_sentences(cfg.story_sentences)
                .build_task(task)
        });
        let (model, train_set, test_set, test_accuracy) = tr.span("model.train", |_| {
            let mut train_cfg = cfg.train;
            train_cfg.seed = cfg.train.seed ^ (task.number() as u64) << 17;
            let mut trainer = Trainer::from_task_data(&data, cfg.model, train_cfg);
            trainer.train();
            let (model, train_set, test_set) = trainer.into_parts();
            let acc = model.accuracy(&test_set);
            (model, train_set, test_set, acc)
        });
        let ith = tr.span("ith.calibrate", |_| {
            ThresholdingCalibrator::new()
                .rho(cfg.rho)
                .calibrate(&model, &train_set)
        });
        let rebuilt = TrainedTask {
            task,
            model,
            train_set,
            test_set,
            ith,
            test_accuracy,
        };
        if rebuilt != expect[i] {
            return Err(format!(
                "layer-by-layer rebuild of {task:?} differs from TaskSuite::build"
            ));
        }
    }
    Ok(())
}

/// Host cost of the accelerator simulator on the campaign's distinct
/// inputs, run the way the serve's numeric phase runs them (same worker
/// pool): mean µs per `write_story` and per `answer_query`, the wall
/// seconds of both passes, and the number of distinct query runs.
pub struct HwCost {
    pub write_story_us: f64,
    pub answer_query_us: f64,
    pub wall_s: f64,
    pub distinct_runs: usize,
}

pub fn hw_cost(wl: &Workload, rep: &Rep, tr: &mut Tracer) -> HwCost {
    let server = Server::new(&rep.suite, wl.serve_config(None));
    let sample = |task: usize, idx: usize| &rep.suite.tasks[task].test_set[idx];
    let mut story_ids: HashMap<(usize, u64), usize> = HashMap::new();
    let mut stories: Vec<(usize, usize)> = Vec::new();
    let mut query_ids: HashMap<(usize, usize), usize> = HashMap::new();
    let mut queries: Vec<((usize, usize), usize)> = Vec::new();
    for r in &rep.trace.requests {
        let key = (r.task_idx, story_digest(sample(r.task_idx, r.sample_idx)));
        let next = stories.len();
        let sid = *story_ids.entry(key).or_insert_with(|| {
            stories.push((r.task_idx, r.sample_idx));
            next
        });
        query_ids
            .entry((r.task_idx, r.sample_idx))
            .or_insert_with(|| {
                queries.push(((r.task_idx, r.sample_idx), sid));
                queries.len() - 1
            });
    }
    let workers = worker_threads(stories.len().max(queries.len()));
    let t = Instant::now();
    let written = tr.span("hw.write_story", |_| {
        parallel_map_indexed(stories.len(), workers, |s| {
            let (task, idx) = stories[s];
            let t = Instant::now();
            let story = server.accelerator(task).write_story(sample(task, idx));
            (story, t.elapsed().as_secs_f64())
        })
    });
    let answered = tr.span("hw.answer_query", |_| {
        parallel_map_indexed(queries.len(), workers, |q| {
            let ((task, idx), sid) = queries[q];
            let t = Instant::now();
            let run = server
                .accelerator(task)
                .answer_query(&written[sid].0, sample(task, idx));
            std::hint::black_box(run);
            t.elapsed().as_secs_f64()
        })
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mean_us = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64 * 1e6;
    HwCost {
        write_story_us: mean_us(&written.iter().map(|w| w.1).collect::<Vec<_>>()),
        answer_query_us: mean_us(&answered),
        wall_s,
        distinct_runs: queries.len(),
    }
}

/// Replays every WAL directory under `root` with the lenient recovery
/// open; returns (seconds, records replayed).
pub fn replay_all(root: &Path, tr: &mut Tracer) -> Result<(f64, u64), String> {
    let mut dirs = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("listing {}: {e}", d.display()))?;
        let mut has_files = false;
        for e in entries {
            let p = e
                .map_err(|e| format!("listing {}: {e}", d.display()))?
                .path();
            if p.is_dir() {
                stack.push(p);
            } else {
                has_files = true;
            }
        }
        if has_files {
            dirs.push(d);
        }
    }
    dirs.sort();
    let t = Instant::now();
    let mut records = 0;
    for d in &dirs {
        let rec = tr
            .span("store.recover_dir", |_| mann_store::recover_dir(d))
            .map_err(|e| format!("recovering {}: {e}", d.display()))?;
        records += rec.replayed_records;
    }
    Ok((t.elapsed().as_secs_f64(), records))
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|es| es.flatten().map(|e| file_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Everything the traced run measures besides the overhead figures.
pub fn measure(
    wl: &Workload,
    dirs: &Dirs,
    rep: &Rep,
    tr: &mut Tracer,
    runs: &[u64],
) -> Result<Vec<Metric>, String> {
    let extra = tr.run() + 1;
    tr.set_run(extra);
    split_build(&rep.suite.config, &rep.suite.tasks, tr)?;
    let hw = hw_cost(wl, rep, tr);
    let cluster = wl.kind == Kind::ClusterDurable;
    let (plain_s, replay) = if cluster {
        let t = Instant::now();
        tr.span("cluster.serve", |_| {
            wl.serve_plain(&rep.suite, &rep.trace, EngineMode::Parallel)
        });
        (t.elapsed().as_secs_f64(), replay_all(&dirs.wal(), tr)?)
    } else {
        (0.0, (0.0, 0))
    };
    let all_runs: Vec<u64> = runs.iter().copied().chain([0, extra]).collect();
    let span = |name: &str| median_span(tr, name, &all_runs);

    let s: Summary<'_> = rep.served.summary();
    let requests = rep.trace.len() as f64;
    let completed = s.completed.max(1) as f64;
    let serve_s = if cluster {
        plain_s
    } else {
        span("serve.serve")
    };
    let mut queue_wait: Vec<u64> = Vec::new();
    let mut upload: Vec<u64> = Vec::new();
    for c in rep.served.completions() {
        let ts = &c.timestamps;
        queue_wait.push(ts.queue_wait().ps());
        upload.push(ts.upload_end.saturating_sub(ts.upload_start).ps());
    }
    queue_wait.sort_unstable();
    upload.sort_unstable();
    let p99_us = |v: &[u64]| percentile(v, 0.99).0 as f64 * 1e-6;
    let d = s.durability;
    let ph = s.phase_totals;
    let per_answer = |c: mann_hw::Cycles| c.get() as f64 / completed;
    let journal_s = if cluster {
        span("store.serve_cluster_durable") - plain_s
    } else {
        0.0
    };
    let (replay_s, replayed) = replay;
    // Compute runs by group size: histogram entry k counts groups of k + 1.
    let h = &s.batch.size_histogram;
    let runs_from = |k0: usize| -> u64 { (k0..h.len()).map(|k| h[k] * (k as u64 + 1)).sum() };
    let host = |name, value, unit| (name, value, unit, "host");
    let sim = |name, value, unit| (name, value, unit, "sim");
    Ok(vec![
        host("suite.load_s", span("suite.load"), "s"),
        host(
            "suite.cache_bytes",
            dir_bytes(&dirs.suite_cache()) as f64,
            "bytes",
        ),
        host("suite.build_s", span("suite.build"), "s"),
        host("babi.generate_s", span("babi.generate"), "s"),
        host("model.train_s", span("model.train"), "s"),
        host("ith.calibrate_s", span("ith.calibrate"), "s"),
        host("hw.write_story_us", hw.write_story_us, "us"),
        host("hw.answer_query_us", hw.answer_query_us, "us"),
        sim("hw.distinct_runs", hw.distinct_runs as f64, "count"),
        sim(
            "hw.dedup_ratio",
            requests / hw.distinct_runs.max(1) as f64,
            "ratio",
        ),
        sim("hw.cycles.control", per_answer(ph.control), "cycles"),
        sim("hw.cycles.write", per_answer(ph.write), "cycles"),
        sim("hw.cycles.addressing", per_answer(ph.addressing), "cycles"),
        sim("hw.cycles.read", per_answer(ph.read), "cycles"),
        sim("hw.cycles.controller", per_answer(ph.controller), "cycles"),
        sim("hw.cycles.output", per_answer(ph.output), "cycles"),
        sim(
            "ith.early_exit_frac",
            s.speculated as f64 / completed,
            "frac",
        ),
        host("serve.serve_s", serve_s, "s"),
        host("serve.us_per_request", serve_s / requests * 1e6, "us"),
        host("serve.self_s", serve_s - hw.wall_s, "s"),
        sim("serve.queue_wait_p99_us", p99_us(&queue_wait), "us"),
        sim("serve.max_queue_depth", s.max_queue_depth as f64, "count"),
        sim("link.utilization", s.link.utilization, "frac"),
        sim("link.upload_p99_us", p99_us(&upload), "us"),
        sim("instance.occupancy", s.occupancy, "frac"),
        sim("cache.hit_rate", s.cache.hit_rate, "frac"),
        sim("cache.evictions", s.cache.evictions as f64, "count"),
        // Share of compute runs done in groups of two or more.
        sim(
            "batch.fused_frac",
            runs_from(1) as f64 / runs_from(0).max(1) as f64,
            "frac",
        ),
        host("cluster.serve_s", plain_s, "s"),
        sim(
            "cluster.max_shard_share",
            s.shard_requests.iter().copied().max().unwrap_or(0) as f64 / requests,
            "frac",
        ),
        sim("cluster.failovers", s.failovers as f64, "count"),
        sim(
            "cluster.replay_link_bytes",
            s.replay_link_bytes as f64,
            "bytes",
        ),
        sim("fault.retransmits", s.fault.retransmits as f64, "count"),
        sim("fault.sheds", rep.served.shed() as f64, "count"),
        host("store.journal_s", journal_s, "s"),
        sim("store.records", d.records as f64, "count"),
        sim("store.wal_bytes", d.wal_bytes as f64, "bytes"),
        sim("store.fsyncs", d.fsyncs as f64, "count"),
        sim("store.snapshots", d.snapshots as f64, "count"),
        host("store.replay_s", replay_s, "s"),
        host(
            "store.replay_records_per_s",
            if replay_s > 0.0 {
                replayed as f64 / replay_s
            } else {
                0.0
            },
            "1/s",
        ),
        host("report.write_s", span("report.write"), "s"),
        host("report.bytes", file_bytes(&dirs.report()) as f64, "bytes"),
    ])
}
