//! Statistics, the simulated-clock metrics and the capacity ladder.

use mann_core::TaskSuite;
use mann_hw::PhaseCycles;
use mann_serve::{
    ArrivalTrace, BatchReport, CacheReport, DurabilityReport, EngineMode, FaultReport, LinkReport,
};

use crate::workload::{Served, Workload};

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=1) and the
/// number of samples strictly beyond its rank.
pub fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    if sorted.is_empty() {
        return (0, 0);
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn ps_to_us(ps: u64) -> f64 {
    ps as f64 * 1e-6
}

/// The report fields every metric reads, from either report shape.
pub struct Summary<'a> {
    pub requests: usize,
    pub completed: usize,
    pub accuracy: f64,
    pub makespan_s: f64,
    pub phase_totals: PhaseCycles,
    pub speculated: usize,
    pub max_queue_depth: usize,
    /// Mean instance occupancy over every instance (of every shard).
    pub occupancy: f64,
    pub cache: &'a CacheReport,
    pub link: &'a LinkReport,
    pub fault: &'a FaultReport,
    pub batch: &'a BatchReport,
    pub durability: &'a DurabilityReport,
    /// Requests routed to each shard's primary pass (empty on one node).
    pub shard_requests: Vec<usize>,
    pub failovers: usize,
    pub replay_link_bytes: u64,
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Served {
    pub fn summary(&self) -> Summary<'_> {
        match self {
            Served::Node(o) => {
                let r = &o.report;
                Summary {
                    requests: r.requests,
                    completed: r.completed,
                    accuracy: r.accuracy,
                    makespan_s: r.makespan_s,
                    phase_totals: r.phase_totals,
                    speculated: r.speculated,
                    max_queue_depth: r.max_queue_depth,
                    occupancy: mean(r.instances.iter().map(|i| i.occupancy)),
                    cache: &r.cache,
                    link: &r.link,
                    fault: &r.fault,
                    batch: &r.batch,
                    durability: &r.durability,
                    shard_requests: Vec::new(),
                    failovers: 0,
                    replay_link_bytes: 0,
                }
            }
            Served::Cluster(o) => {
                let r = &o.report;
                Summary {
                    requests: r.requests,
                    completed: r.completed,
                    accuracy: r.accuracy,
                    makespan_s: r.makespan_s,
                    phase_totals: r.phase_totals,
                    speculated: r.speculated,
                    max_queue_depth: r.max_queue_depth,
                    occupancy: mean(
                        r.per_shard
                            .iter()
                            .flat_map(|s| s.instances.iter().map(|i| i.occupancy)),
                    ),
                    cache: &r.cache,
                    link: &r.link,
                    fault: &r.fault,
                    batch: &r.batch,
                    durability: &r.durability,
                    shard_requests: r.per_shard.iter().map(|s| s.requests).collect(),
                    failovers: o.failovers.len(),
                    replay_link_bytes: r.failover.replay_link_bytes,
                }
            }
        }
    }
}

/// End-to-end latencies (answer on host minus the request's original
/// arrival), ascending, in picoseconds. Clusters pool every shard's
/// completions, failovers included.
pub fn latencies_ps(served: &Served, trace: &ArrivalTrace) -> Vec<u64> {
    let mut lat: Vec<u64> = served
        .completions()
        .iter()
        .map(|c| {
            let arrival = trace.requests[c.request.id as usize].arrival;
            c.timestamps.drain_end.saturating_sub(arrival).ps()
        })
        .collect();
    lat.sort_unstable();
    lat
}

/// The simulated-clock end-to-end metrics of one serve (exact: a pure
/// function of suite, trace and config).
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub p50_us: f64,
    pub p999_us: f64,
    /// Latency samples (completions).
    pub n: usize,
    /// Samples beyond the p99.9 rank.
    pub beyond_p999: usize,
    pub goodput_rps: f64,
    pub j_per_answer: f64,
    pub accuracy: f64,
    /// Completed / requests: one minus the rejected, shed and unroutable
    /// share.
    pub served_frac: f64,
}

/// `power_w` is an instance's board power while computing; an answer's
/// energy is that power over its fabric compute time (the paper's
/// per-inference energy, without the idle time between requests).
pub fn sim_metrics(served: &Served, trace: &ArrivalTrace, power_w: f64) -> SimMetrics {
    let lat = latencies_ps(served, trace);
    let s = served.summary();
    let (p50, _) = percentile(&lat, 0.50);
    let (p999, beyond_p999) = percentile(&lat, 0.999);
    let completed = s.completed.max(1) as f64;
    SimMetrics {
        p50_us: ps_to_us(p50),
        p999_us: ps_to_us(p999),
        n: lat.len(),
        beyond_p999,
        goodput_rps: if s.makespan_s > 0.0 {
            s.completed as f64 / s.makespan_s
        } else {
            0.0
        },
        j_per_answer: power_w
            * served
                .completions()
                .iter()
                .map(|c| c.run.compute_s)
                .sum::<f64>()
            / completed,
        accuracy: s.accuracy,
        served_frac: s.completed as f64 / s.requests.max(1) as f64,
    }
}

/// One capacity-ladder probe.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub rate_rps: f64,
    pub p999_us: f64,
    pub rejected: usize,
    pub pass: bool,
}

/// `sim_capacity_rps`: the highest ladder rate whose probe sub-trace
/// meets the p99.9 limit with zero rejections, found by bisection over
/// the ladder (a rung passing implies every lower rung passes). 0 when
/// even the lowest rung fails.
pub fn capacity(wl: &Workload, suite: &TaskSuite, seed: u64) -> (f64, Vec<Rung>) {
    let probe = |i: usize| {
        let rate_rps = wl.ladder.rate(i);
        let trace = wl.trace(suite, seed, wl.probe_requests, rate_rps);
        let served = wl.serve_plain(suite, &trace, EngineMode::Parallel);
        let (p999, _) = percentile(&latencies_ps(&served, &trace), 0.999);
        let p999_us = ps_to_us(p999);
        let rejected = served.rejected();
        Rung {
            rate_rps,
            p999_us,
            rejected,
            pass: rejected == 0 && p999_us <= wl.latency_limit_us,
        }
    };
    let mut rungs = Vec::new();
    // Invariant: every rung below `lo` passes, every rung from `hi` fails.
    let (mut lo, mut hi) = (0usize, wl.ladder.rungs);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let r = probe(mid);
        rungs.push(r);
        if r.pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let cap = if lo == 0 { 0.0 } else { wl.ladder.rate(lo - 1) };
    rungs.sort_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps));
    (cap, rungs)
}

/// Peak resident set of this process so far (VmHWM), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
