//! Serves a seeded multi-tenant request trace across replicated
//! accelerator instances and reports simulated-time latency percentiles,
//! per-instance occupancy, link utilization and energy.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin serve -- --tasks 2 --train 200 --test 25
//! cargo run -p mann-bench --release --bin serve -- \
//!     --tasks 2 --train 200 --test 25 \
//!     --instances 4 --policy rr --requests 512 --rate-us 80 --ith
//! cargo run -p mann-bench --release --bin serve -- \
//!     --tasks 2 --train 200 --test 25 \
//!     --instances 4 --policy affinity --pool 4 --story-cache 8
//! ```
//!
//! `--story-cache` (default: `MANN_STORY_CACHE` or 16, 0 disables) sizes
//! each instance's resident-story cache; `--pool N` concentrates the trace
//! on each task's first N stories; `--engine serial|parallel` (default:
//! `MANN_SERVE_ENGINE` or parallel) picks the numeric-phase engine — both
//! produce byte-identical reports.
//!
//! `--fault-plan <path|spec>` runs a deterministic fault campaign: either
//! a JSON file or an inline `key=value,...` spec such as
//! `corrupt=0.05,retries=4,crashes=2,cooldown-us=300,watchdog-us=400,seus=3,seed=7`.
//! `--watchdog <us>` and `--max-retries <n>` override those two knobs of
//! whatever plan is loaded. The campaign is seeded and simulated-time
//! deterministic: the same plan prints byte-identical reports at any
//! `MANN_THREADS` and under either engine.
//!
//! `--numeric-policy ignore|flag|failover` (default: `MANN_NUMERIC_POLICY`
//! or ignore) selects the numeric-health response: `flag` publishes the
//! saturation/veto accounting in the report, `failover` additionally
//! re-answers stressed completions on the `f32` reference datapath at
//! accounted cycle/energy cost. `--embed-scale <factor>` multiplies the
//! trained embedding matrices before quantization — a stress campaign
//! knob that drives the fixed-point datapath into saturation.
//!
//! `--batch-window <n>` (default 0, off) fuses up to `n` queued requests
//! that share a resident story into one compute group per instance,
//! paying the shared memory/output streams once. `--hop-prune
//! <threshold|off>` (default: `MANN_HOP_PRUNE` or off) skips remaining
//! hops once the max attention weight reaches the threshold, with a
//! saturation veto on the winning weight. Malformed values for either
//! flag — or for `MANN_HOP_PRUNE` — are hard errors. `--link-gbps` and
//! `--link-latency-us` override the PCIe model (fusion needs the link to
//! outrun the fabric, which the default 65 us/transfer link never does).
//!
//! `--mem-index k,nprobe,band` (default: `MANN_MEM_INDEX` or off) arms the
//! IVF candidate index in front of every instance's MEM module: each
//! addressing hop probes the `nprobe` nearest of `k` centroids and
//! exact-scores only the surviving candidate slots, falling back to the
//! full scan whenever the best candidate is within `band` of the worst
//! retained one. `--mem-index off` disables it explicitly; malformed specs
//! (k < 1, nprobe outside 1..=k, negative or non-finite band) are hard
//! errors, for the flag and the env var alike. Pair it with
//! `--story-sentences <n>` (0 = task defaults), which pins every
//! generated story to exactly `n` sentences — the index pays off only
//! once stories are long enough that exact addressing dominates.
//!
//! `--wal-dir <dir|spec>` (default: `MANN_WAL` or off) arms the durable
//! story store: every admitted story, eviction and completion is
//! journaled to a checksummed write-ahead log under the directory, with
//! `--snapshot-every <n>` (or `snap=n` in the spec) rotating segments
//! and compacting every n records. With `node-kills=1` in the fault
//! plan, one seeded shard is fail-stopped mid-campaign (torn WAL tail
//! and all) and recovered by replay — the recovered report is asserted
//! byte-identical to the no-crash run. Malformed specs, for the flag
//! and `MANN_WAL` alike, are hard errors; so is `node-kills` without a
//! WAL or `--snapshot-every` without `--wal-dir`. The WAL only adds a
//! `durability` report section: all other bytes match the non-durable
//! run exactly.
//!
//! `--shards K` (default 1) serves the trace on a story-sharded cluster:
//! a rendezvous-hash router places each story on one of K shard nodes,
//! each running the full serve stack above. `--replication R` (default 1)
//! arms cross-shard failover — with a fault plan active, a request
//! stranded by an instance crash is re-dispatched to its story's replica
//! shard at real re-upload cost. `--weights w0,w1,...` sets per-shard
//! routing weights (one positive integer < 65536 per shard; zero,
//! negative, fractional or non-finite weights are hard errors, never
//! silently clamped). Every K serves through the cluster layer and
//! reports one `ServeReport`. At K>1 it is the merged fleet report
//! (fleet layout, written to `serve_cluster_report.json`); at K=1 the
//! report is the one node's own (node layout, `serve_report.json`) and the
//! WAL is journaled into `--wal-dir` itself, so `--shards 1 --replication
//! 1` prints, writes and journals exactly what the plain serve does.
//!
//! `--membership-plan <path|spec>` runs a live-membership campaign on
//! the cluster: either a JSON file or an inline spec such as
//! `join=3@800,drain=1@2000,fail=2@3000,retune-threshold=0.05,hot-key=8`
//! (times in microseconds). Drained shards hand resident stories to the
//! next live replica as real re-uploads, failed shards strand their
//! in-flight work for `route_live` re-dispatch, joins arrive with a cold
//! cache, queue-pressure retunes halve a shard's routing weight, and the
//! hot-key splitter fans one pathological story across its replica set.
//! `--hot-key-threshold <n>` overrides that one knob of whatever plan is
//! loaded. Plans that reference a shard index ≥ K, or any membership
//! flag on a 1-shard/1-replica run, are hard errors. The campaign adds a
//! `membership` report section; an empty plan leaves every report byte
//! unchanged.
//!
//! Every flag and `MANN_*` value is read and range-checked through
//! `mann_serve::spec` before any training: a malformed or out-of-range
//! value (a duration or `--rate-us` interval past the `SIM_HORIZON_S`
//! simulated-time horizon, a link slower than `MIN_LINK_BYTES_PER_S`, a
//! non-finite embedding scale) exits with status 2 and a message naming
//! the flag, variable or key. So does an unknown flag or a stray
//! argument: a typo such as `--shard 4` never falls back to a default.
//!
//! The serve is a pure function of `(suite, trace, config)`: rerunning
//! with the same flags — at any `MANN_THREADS` — prints byte-identical
//! numbers, and the `answers digest` line is invariant across
//! `--instances` and `--policy` because scheduling never changes an
//! answer.

use mann_bench::HarnessArgs;
use mann_core::write_json_report;
use mann_serve::spec::{self, Field, Setter};
use mann_serve::{
    serve_cluster_durable, ArrivalTrace, Cluster, ClusterConfig, NumericPolicy, Spec,
    StoryCacheSize, TraceConfig,
};

/// Prints a CLI-usage error and exits with status 2.
fn usage_bail(msg: impl std::fmt::Display) -> ! {
    eprintln!("[serve] {msg}");
    std::process::exit(2);
}

struct ServeArgs {
    requests: usize,
    rate_us: f64,
    trace_seed: u64,
    story_pool: usize,
    embed_scale: f32,
    /// The whole serve configuration; `cluster.base` is the per-node one.
    cluster: ClusterConfig,
    // Overrides of one knob of whatever plan or WAL spec is loaded,
    // applied after every flag is read so flag order does not matter.
    watchdog_s: Option<f64>,
    max_retries: Option<u32>,
    snapshot_every: Option<u64>,
    hot_key_threshold: Option<u64>,
}

/// One `--weights` entry: a positive integer below 2^16 (written in any
/// number form, e.g. `2` or `2.0`). Weights are never silently clamped.
fn weight(f: Field<'_>) -> Result<u32, spec::SpecError> {
    let w = f.ranged::<f64>(spec::positive)?;
    if w.fract() != 0.0 || w >= f64::from(1u32 << 16) {
        return Err(f.err("must be an integer below 65536"));
    }
    Ok(w as u32)
}

/// Every serve flag that takes a value, and where the value lands.
/// `--ith` takes none; the shared flags are read by `HarnessArgs`, which
/// rejects any flag in neither list.
const FLAGS: &[(&str, Setter<ServeArgs>)] = &[
    ("--instances", |a, f| {
        f.count().map(|v| a.node().instances = v)
    }),
    ("--policy", |a, f| f.spec().map(|v| a.node().policy = v)),
    ("--requests", |a, f| f.count().map(|v| a.requests = v)),
    ("--queue", |a, f| {
        f.count().map(|v| a.node().queue_capacity = v)
    }),
    ("--batch", |a, f| {
        f.count().map(|v| a.node().upload_batch = v)
    }),
    ("--inflight", |a, f| {
        f.count().map(|v| a.node().inflight_limit = v)
    }),
    ("--rate-us", |a, f| {
        f.ranged::<f64>(spec::interval_us).map(|v| a.rate_us = v)
    }),
    ("--trace-seed", |a, f| f.count().map(|v| a.trace_seed = v)),
    ("--story-cache", |a, f| {
        f.spec::<StoryCacheSize>()
            .map(|v| a.node().story_cache = v.0)
    }),
    ("--pool", |a, f| f.count().map(|v| a.story_pool = v)),
    ("--engine", |a, f| f.spec().map(|v| a.node().engine = v)),
    ("--fault-plan", |a, f| f.spec().map(|v| a.node().faults = v)),
    ("--watchdog", |a, f| {
        f.micros().map(|v| a.watchdog_s = Some(v))
    }),
    ("--max-retries", |a, f| {
        f.count().map(|v| a.max_retries = Some(v))
    }),
    ("--numeric-policy", |a, f| {
        f.spec().map(|v| a.node().numeric_policy = v)
    }),
    ("--embed-scale", |a, f| {
        f.ranged::<f32>(spec::finite)
            .map(|v| a.embed_scale = v as f32)
    }),
    ("--batch-window", |a, f| {
        f.count().map(|v| a.node().batch_window = v)
    }),
    ("--hop-prune", |a, f| {
        f.spec().map(|v| a.node().hop_prune = v)
    }),
    ("--mem-index", |a, f| {
        f.spec().map(|v| a.node().mem_index = v)
    }),
    ("--link-gbps", |a, f| {
        f.ranged::<f64>(|gbps| spec::link_bandwidth(gbps * 1e9).map(|_| gbps))
            .map(|v| a.node().pcie.bandwidth_bytes_per_s = v * 1e9)
    }),
    ("--link-latency-us", |a, f| {
        f.micros().map(|v| a.node().pcie.latency_per_transfer_s = v)
    }),
    // A bare directory or a full MANN_WAL spec (`dir,snap=N,...`); either
    // way it replaces the env-derived config wholesale so flags win.
    ("--wal-dir", |a, f| f.spec().map(|v| a.node().wal = v)),
    ("--snapshot-every", |a, f| {
        f.count().map(|v| a.snapshot_every = Some(v))
    }),
    ("--shards", |a, f| f.count().map(|v| a.cluster.shards = v)),
    ("--replication", |a, f| {
        f.count().map(|v| a.cluster.replication = v)
    }),
    ("--weights", |a, f| {
        f.value
            .split(',')
            .map(|w| weight(f.with_value(w)))
            .collect::<Result<_, _>>()
            .map(|v| a.cluster.weights = v)
    }),
    ("--membership-plan", |a, f| {
        f.spec().map(|v| a.cluster.membership = v)
    }),
    ("--hot-key-threshold", |a, f| {
        f.count().map(|v| a.hot_key_threshold = Some(v))
    }),
];

/// Reads a knob's environment variable; a malformed value is a usage
/// error, never a silent fallback to the default.
fn env<T: Spec>() -> T {
    T::from_env().unwrap_or_else(|e| usage_bail(e))
}

impl ServeArgs {
    /// Reads every flag and checks the whole configuration, so a bad
    /// value exits before any training.
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self {
            requests: 256,
            rate_us: 200.0,
            trace_seed: 0,
            story_pool: 0,
            embed_scale: 1.0,
            // Env defaults let a whole sweep be reconfigured without
            // touching every invocation; flags still win.
            cluster: ClusterConfig {
                base: mann_serve::ServeConfig {
                    story_cache: env::<StoryCacheSize>().0,
                    engine: env(),
                    numeric_policy: env(),
                    hop_prune: env(),
                    mem_index: env(),
                    wal: env(),
                    ..mann_serve::ServeConfig::default()
                },
                ..ClusterConfig::default()
            },
            watchdog_s: None,
            max_retries: None,
            snapshot_every: None,
            hot_key_threshold: None,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--ith" {
                out.cluster.base.use_ith = true;
                continue;
            }
            let Some(&(name, set)) = FLAGS.iter().find(|(name, _)| *name == flag) else {
                // A shared flag or its value: `HarnessArgs` has already
                // read and checked them, and rejected anything else.
                continue;
            };
            let value = it
                .next()
                .unwrap_or_else(|| usage_bail(format!("usage: {name} <value>")));
            set(&mut out, Field::new(name, &value)).unwrap_or_else(|e| usage_bail(e));
        }
        let base = &mut out.cluster.base;
        if let Some(s) = out.watchdog_s {
            base.faults.watchdog_s = s;
        }
        if let Some(r) = out.max_retries {
            base.faults.max_retries = r;
        }
        if let Some(n) = out.snapshot_every {
            if !base.wal.enabled {
                usage_bail(
                    "--snapshot-every requires the write-ahead log (--wal-dir or MANN_WAL): \
                     there is no journal to compact",
                );
            }
            base.wal.snapshot_every = n;
        }
        if let Some(n) = out.hot_key_threshold {
            out.cluster.membership.hot_key_threshold = n;
        }
        if out.cluster.shards == 1 {
            // These knobs only exist at the cluster layer; accepting them
            // on a single-node run would silently serve without them.
            if !out.cluster.membership.is_empty() {
                usage_bail(
                    "--membership-plan / --hot-key-threshold need a cluster \
                     (--shards > 1): a single node has no membership to change",
                );
            }
            if !out.cluster.weights.is_empty() {
                usage_bail("--weights needs a cluster (--shards > 1)");
            }
        }
        // Also rejects zero shards or replicas, which would otherwise fall
        // through to the single-node path.
        if let Err(e) = out.cluster.validate() {
            usage_bail(e);
        }
        out
    }

    /// The per-node serve configuration.
    fn node(&mut self) -> &mut mann_serve::ServeConfig {
        &mut self.cluster.base
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let own: Vec<&str> = FLAGS.iter().map(|&(name, _)| name).collect();
    let args = HarnessArgs::try_parse_with(argv.clone(), &own, &["--ith"])
        .unwrap_or_else(|e| usage_bail(e));
    let serve_args = ServeArgs::parse(argv);

    eprintln!(
        "[serve] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let start = std::time::Instant::now();
    let mut suite = args.build_suite();
    if serve_args.embed_scale != 1.0 {
        eprintln!(
            "[serve] scaling embedding matrices by {} (numeric stress campaign)",
            serve_args.embed_scale
        );
        suite = suite.with_embedding_scale(serve_args.embed_scale);
    }
    eprintln!(
        "[serve] suite trained in {:.1}s, mean test accuracy {:.1}%",
        start.elapsed().as_secs_f64(),
        suite.mean_accuracy() * 100.0
    );

    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: serve_args.requests,
            seed: serve_args.trace_seed,
            mean_interarrival_s: serve_args.rate_us * 1e-6,
            story_pool: serve_args.story_pool,
        },
        &suite,
    );
    let config = &serve_args.cluster.base;
    eprintln!(
        "[serve] {} requests (mean inter-arrival {} us, trace seed {}, story pool {}) over \
         {} instance(s), policy {}, queue {}, upload batch {}, ith {}, story cache {}, \
         engine {}",
        trace.len(),
        serve_args.rate_us,
        serve_args.trace_seed,
        serve_args.story_pool,
        config.instances,
        config.policy,
        config.queue_capacity,
        config.upload_batch,
        config.use_ith,
        config.story_cache,
        config.engine,
    );
    if config.numeric_policy != NumericPolicy::Ignore {
        eprintln!("[serve] numeric policy {}", config.numeric_policy);
    }
    if config.batch_window > 1 {
        eprintln!(
            "[serve] same-story batch fusion on (window {})",
            config.batch_window
        );
    }
    if config.hop_prune.enabled {
        eprintln!("[serve] adaptive hop pruning on ({})", config.hop_prune);
    }
    if config.mem_index.enabled {
        eprintln!("[serve] candidate index armed ({})", config.mem_index);
    }
    if config.wal.enabled {
        // stderr only: stdout must stay byte-diffable across WAL dirs.
        eprintln!(
            "[serve] write-ahead log on (dir {}, snapshot every {}, fsync batch {}, \
             node kills {})",
            config.wal.dir,
            config.wal.snapshot_every,
            config.wal.fsync_batch,
            config.faults.node_kills,
        );
    }
    if config.faults.is_active() {
        eprintln!(
            "[serve] fault campaign active (seed {}): corrupt {} / retries {}, crashes {}, \
             watchdog {} us, seus {}, degrade depth {}",
            config.faults.seed,
            config.faults.link_corrupt_prob,
            config.faults.max_retries,
            config.faults.crashes,
            config.faults.watchdog_s * 1e6,
            config.faults.seus,
            config.faults.degrade_depth,
        );
    }

    // Every K serves through the cluster; at K=1/R=1 it is one node, whose
    // report, text and WAL layout are the single-node ones.
    let cluster = Cluster::new(&suite, serve_args.cluster);
    let c = cluster.config();
    let fleet = c.shards > 1;
    if fleet {
        eprintln!(
            "[serve] cluster of {} shard(s), replication {} (rendezvous story routing)",
            c.shards, c.replication
        );
    }
    if !c.membership.is_empty() {
        eprintln!(
            "[serve] membership campaign active: {} event(s), retune threshold {}, \
             hot-key threshold {}",
            c.membership.events.len(),
            c.membership.retune_threshold,
            c.membership.hot_key_threshold,
        );
    }
    let outcome = serve_cluster_durable(&cluster, &trace).unwrap_or_else(|e| usage_bail(e));
    let path = if fleet {
        println!(
            "Served {} requests across {} shard(s) x {} instance(s), replication {}, policy {}",
            trace.len(),
            c.shards,
            c.base.instances,
            c.replication,
            c.base.policy
        );
        "target/experiments/serve_cluster_report.json"
    } else {
        println!(
            "Served {} requests across {} instance(s), policy {}",
            trace.len(),
            c.base.instances,
            c.base.policy
        );
        "target/experiments/serve_report.json"
    };
    println!("{}", outcome.report.render());
    match write_json_report(path, &outcome.report) {
        Ok(()) => eprintln!("[serve] report written to {path}"),
        Err(e) => eprintln!("[serve] could not write {path}: {e}"),
    }
}
