//! The three pinned serve campaigns and one cold pass through each.
//!
//! Every input is a pure function of the workload and the seed: the
//! suite's data and training seed, the Poisson arrival trace and the
//! fault plan. Suite, trace and stack are built through the layers'
//! public APIs only, exactly as a user of the crates would.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mann_babi::TaskId;
use mann_core::{write_json_report, SuiteCache, SuiteConfig, TaskSuite};
use mann_serve::{
    serve_cluster_durable, ArrivalTrace, Cluster, ClusterConfig, ClusterOutcome, Completion,
    EngineMode, FaultConfig, SchedulePolicy, ServeConfig, ServeOutcome, Server, TraceConfig,
    WalConfig,
};

use crate::spans::Tracer;

/// Suite-cache variant tag (the per-task build, as every binary uses).
pub const VARIANT: &str = "per-task";

/// Which campaign a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ten-task suite loaded from the warmed cache, one node, ITH on.
    BabiCached,
    /// Task 1 with 500-sentence stories, built fresh, ITH and index off.
    LongStory,
    /// Small fresh suite on a K=4/R=2 cluster under faults, WAL on.
    ClusterDurable,
}

/// One pinned campaign: its inputs, rate ladder and latency limit.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Requests in the campaign trace.
    pub requests: usize,
    /// Base offered rate of the campaign trace, requests per simulated second.
    pub rate_rps: f64,
    /// Offered rates probed for `sim_capacity_rps`.
    pub ladder: Ladder,
    /// p99.9 latency limit for a ladder rung to pass, simulated µs.
    pub latency_limit_us: f64,
    /// Requests in each ladder probe.
    pub probe_requests: usize,
    /// Requests in the sub-trace the correctness checks serve.
    pub check_requests: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "babi10_cached",
        kind: Kind::BabiCached,
        requests: 200_000,
        rate_rps: 5_000.0,
        ladder: Ladder {
            from_rps: 5_000.0,
            step_rps: 100.0,
            rungs: 31,
        },
        latency_limit_us: 5_000.0,
        probe_requests: 50_000,
        check_requests: 20_000,
    },
    Workload {
        name: "long_story",
        kind: Kind::LongStory,
        requests: 30_000,
        rate_rps: 2_500.0,
        ladder: Ladder {
            from_rps: 3_000.0,
            step_rps: 100.0,
            rungs: 31,
        },
        latency_limit_us: 5_000.0,
        probe_requests: 12_000,
        check_requests: 1_000,
    },
    Workload {
        name: "cluster_durable",
        kind: Kind::ClusterDurable,
        requests: 100_000,
        rate_rps: 15_000.0,
        ladder: Ladder {
            from_rps: 16_000.0,
            step_rps: 500.0,
            rungs: 29,
        },
        latency_limit_us: 5_000.0,
        probe_requests: 20_000,
        check_requests: 20_000,
    },
];

/// An evenly spaced ladder of offered rates, requests per simulated second.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub from_rps: f64,
    pub step_rps: f64,
    pub rungs: usize,
}

impl Ladder {
    pub fn rate(&self, rung: usize) -> f64 {
        self.from_rps + self.step_rps * rung as f64
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The directories one workload run owns; wiped at the start of the run.
#[derive(Debug, Clone)]
pub struct Dirs {
    pub root: PathBuf,
}

impl Dirs {
    pub fn suite_cache(&self) -> PathBuf {
        self.root.join("suite-cache")
    }
    pub fn wal(&self) -> PathBuf {
        self.root.join("wal")
    }
    pub fn report(&self) -> PathBuf {
        self.root.join("report.json")
    }
}

impl Workload {
    /// The suite the campaign serves (seeded data and training).
    pub fn suite_config(&self, seed: u64) -> SuiteConfig {
        let mut cfg = SuiteConfig::quick();
        cfg.seed = seed;
        cfg.train.seed = seed;
        match self.kind {
            Kind::BabiCached => {
                // Ten tasks, not twenty: the cache load is quadratic in
                // the file and swings with the host's load, so the full
                // suite made it most of a pass and the pass unsteady.
                cfg.tasks.truncate(10);
                cfg.train_samples = 100;
                cfg.test_samples = 200;
            }
            Kind::LongStory => {
                cfg.tasks = vec![TaskId::SingleSupportingFact];
                cfg.train_samples = 200;
                cfg.test_samples = 1_000;
                cfg.story_sentences = 500;
            }
            Kind::ClusterDurable => {
                cfg.train_samples = 100;
                cfg.test_samples = 20;
            }
        }
        cfg
    }

    /// The campaign trace at `rate_rps` (a prefix of it when `requests`
    /// is smaller: request draws do not depend on the rate or length).
    pub fn trace(
        &self,
        suite: &TaskSuite,
        seed: u64,
        requests: usize,
        rate_rps: f64,
    ) -> ArrivalTrace {
        let story_pool = if self.kind == Kind::ClusterDurable {
            16
        } else {
            0
        };
        ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed,
                mean_interarrival_s: 1.0 / rate_rps,
                story_pool,
            },
            suite,
        )
    }

    /// The per-node serve stack. On the cluster workload, `durable` names
    /// the WAL directory to journal into and arms the plan's node kill.
    pub fn serve_config(&self, durable: Option<&Path>) -> ServeConfig {
        let base = ServeConfig {
            instances: 2,
            ..ServeConfig::default()
        };
        match self.kind {
            Kind::BabiCached => ServeConfig {
                use_ith: true,
                ..base
            },
            Kind::LongStory => base,
            Kind::ClusterDurable => {
                // The plan is pinned, seed included: the workload seed
                // drives the suite and the trace only.
                let mut faults = FaultConfig::from_arg(
                    "seed=7,corrupt=0.05,retries=6,crashes=1,cooldown-us=300,watchdog-us=400",
                )
                .expect("the pinned fault plan parses");
                let mut wal = WalConfig::default();
                if let Some(dir) = durable {
                    faults.node_kills = 1;
                    // One fsync per snapshot keeps disk jitter small. A
                    // longer interval would leave the torn segment of the
                    // node kill un-collected at the end, and the traced
                    // run's recovery of it fails (see README).
                    wal = WalConfig {
                        enabled: true,
                        dir: dir.display().to_string(),
                        snapshot_every: 10_000,
                        fsync_batch: 10_000,
                        ..WalConfig::default()
                    };
                }
                ServeConfig {
                    policy: SchedulePolicy::StoryAffinity,
                    batch_window: 8,
                    faults,
                    wal,
                    ..base
                }
            }
        }
    }

    pub fn cluster_config(&self, base: ServeConfig) -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            replication: 2,
            base,
            ..ClusterConfig::default()
        }
    }

    /// An instance's board power while computing, watts.
    pub fn busy_power_w(&self) -> f64 {
        let c = self.serve_config(None);
        c.power.power_w(c.clock.freq_mhz(), 1.0, c.use_ith)
    }

    /// Serves `trace` without the WAL (the plain path every check and
    /// ladder probe compares against).
    pub fn serve_plain(
        &self,
        suite: &TaskSuite,
        trace: &ArrivalTrace,
        engine: EngineMode,
    ) -> Served {
        let config = ServeConfig {
            engine,
            ..self.serve_config(None)
        };
        if self.kind == Kind::ClusterDurable {
            Served::Cluster(Box::new(
                Cluster::new(suite, self.cluster_config(config)).serve(trace),
            ))
        } else {
            Served::Node(Box::new(Server::new(suite, config).serve(trace)))
        }
    }
}

/// What one serve produced, single node or cluster.
#[derive(Debug)]
pub enum Served {
    Node(Box<ServeOutcome>),
    Cluster(Box<ClusterOutcome>),
}

impl Served {
    pub fn completions(&self) -> &[Completion] {
        match self {
            Served::Node(o) => &o.completions,
            Served::Cluster(o) => &o.completions,
        }
    }

    /// Rejected (queue full) requests.
    pub fn rejected(&self) -> usize {
        match self {
            Served::Node(o) => o.rejections.len(),
            Served::Cluster(o) => o.rejections.len(),
        }
    }

    /// Shed requests; a cluster's unroutable requests are among them.
    pub fn shed(&self) -> usize {
        match self {
            Served::Node(o) => o.sheds.len(),
            Served::Cluster(o) => o.sheds.len(),
        }
    }

    pub fn answers_digest(&self) -> &str {
        match self {
            Served::Node(o) => &o.report.answers_digest,
            Served::Cluster(o) => &o.report.answers_digest,
        }
    }

    /// The JSON report, optionally with the durability section reset.
    pub fn report_json(&self, sans_durability: bool) -> String {
        let json = match (self, sans_durability) {
            (Served::Node(o), false) => serde_json::to_string(&o.report),
            (Served::Node(o), true) => serde_json::to_string(&o.report.sans_durability()),
            (Served::Cluster(o), false) => serde_json::to_string(&o.report),
            (Served::Cluster(o), true) => serde_json::to_string(&o.report.sans_durability()),
        };
        json.expect("reports serialize")
    }

    fn write_report(&self, path: &Path) -> Result<(), String> {
        let written = match self {
            Served::Node(o) => write_json_report(path, &o.report),
            Served::Cluster(o) => write_json_report(path, &o.report),
        };
        written.map_err(|e| format!("report write to {}: {e}", path.display()))
    }
}

/// One cold pass: set-up, the campaign's single serve call, report.
pub struct Rep {
    /// Start to server ready: suite load or build, trace, stack.
    pub setup_s: f64,
    /// The serve call alone.
    pub serve_s: f64,
    /// Start to report written.
    pub wall_s: f64,
    pub suite: TaskSuite,
    pub trace: ArrivalTrace,
    pub served: Served,
}

/// Runs one cold pass of `wl`, recording layer spans into `tr`.
pub fn run_rep(wl: &Workload, seed: u64, dirs: &Dirs, tr: &mut Tracer) -> Result<Rep, String> {
    let durable = wl.kind == Kind::ClusterDurable;
    if durable {
        remove_dir(&dirs.wal())?;
    }
    let t0 = Instant::now();
    let cfg = wl.suite_config(seed);
    let suite = if wl.kind == Kind::BabiCached {
        tr.span("suite.load", |_| {
            SuiteCache::new(dirs.suite_cache()).load(&cfg, VARIANT)
        })
        .ok_or("the warmed suite cache missed")?
    } else {
        tr.span("suite.build", |_| TaskSuite::build(&cfg))
    };
    let trace = tr.span("serve.trace", |_| {
        wl.trace(&suite, seed, wl.requests, wl.rate_rps)
    });
    let config = wl.serve_config(durable.then(|| dirs.wal()).as_deref());
    let (setup_s, serve_s, served) = if durable {
        let cluster = tr.span("cluster.new", |_| {
            Cluster::new(&suite, wl.cluster_config(config))
        });
        let setup_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let out = tr
            .span("store.serve_cluster_durable", |_| {
                serve_cluster_durable(&cluster, &trace)
            })
            .map_err(|e| format!("durable serve: {e}"))?;
        (
            setup_s,
            t.elapsed().as_secs_f64(),
            Served::Cluster(Box::new(out)),
        )
    } else {
        let server = tr.span("serve.new", |_| Server::new(&suite, config));
        let setup_s = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let out = tr.span("serve.serve", |_| server.serve(&trace));
        (
            setup_s,
            t.elapsed().as_secs_f64(),
            Served::Node(Box::new(out)),
        )
    };
    tr.span("report.write", |_| served.write_report(&dirs.report()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Rep {
        setup_s,
        serve_s,
        wall_s,
        suite,
        trace,
        served,
    })
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("wiping {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}
