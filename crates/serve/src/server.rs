//! The serving engine: a deterministic discrete-event simulation of N
//! replicated accelerator instances behind one bounded host queue and one
//! shared PCIe link, with per-instance resident-story caches.
//!
//! # Execution phases
//!
//! A serve separates *numeric* work from *orchestration*:
//!
//! 1. **Story dedup.** Requests are grouped by `(task, story digest)`; each
//!    distinct story is written into memory exactly once
//!    ([`Accelerator::write_story`]), however many questions the trace asks
//!    about it.
//! 2. **Query simulation.** Every request's query pipeline runs against its
//!    resident story ([`Accelerator::answer_query`]) — on the worker pool
//!    in the parallel engine, inline in the serial engine. Results are
//!    accumulated in request order either way.
//! 3. **Event loop.** A sequential merge on integer-picosecond
//!    [`SimTime`] with a submission-order tie-break replays arrivals,
//!    link grants and completions. Each instance models its story cache as
//!    an LRU of digests; whether a dispatch hits is decided here, because
//!    it depends on which instance the scheduler picked.
//!
//! # Determinism
//!
//! Two properties are load-bearing and pinned by the test suite:
//!
//! * **Thread independence.** The numeric phase is index-ordered and
//!   `MANN_THREADS`-invariant, and the event loop is sequential with a
//!   total order on `(time, seq)` — so the whole serve replays
//!   byte-identically for any worker count, and the parallel engine's
//!   [`ServeReport`] equals the serial engine's bit for bit.
//! * **Orchestration purity.** Answers, cycle counts and comparisons come
//!   from the same split pipeline a standalone [`Accelerator::run`] would
//!   execute; a cache hit changes *when and where* a story is written,
//!   never what the inference computes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use mann_core::TaskSuite;
use mann_hw::{
    story_digest, AccelConfig, Accelerator, Admission, ClockDomain, Cycles, InferenceRun,
    LinkArbiter, LruSet, MemIndexConfig, PcieLink, PowerModel, ResidentStory, SimTime,
    DEFAULT_STORY_CACHE,
};
use mann_ith::HopPrune;
use mann_store::WalRecord;
use serde::{Deserialize, Serialize};

use crate::faults::{FaultConfig, FaultPlan, FaultReport};
use crate::membership::MembershipReport;
use crate::numeric::{NumericHealth, NumericPolicy};
use crate::report::{
    BatchReport, CacheReport, ClusterFailover, CompletionStats, HopPruneReport, IndexReport,
    InstanceReport, LinkReport, ServeReport,
};
use crate::request::{Completion, Export, Rejection, Request, RequestTimestamps};
use crate::scheduler::{InstanceView, Scheduler};
use crate::spec::{self, Spec, SpecError};
use crate::store::{DurabilityReport, WalConfig};
use crate::trace::ArrivalTrace;
use crate::SchedulePolicy;

/// How the numeric phase of a serve executes. Both engines produce
/// byte-identical [`ServeReport`]s; the parallel engine exists to use the
/// worker pool, the serial engine to prove it changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineMode {
    /// Single-threaded reference: stories and queries simulate inline, in
    /// request order.
    Serial,
    /// Stories and queries simulate on the `MANN_THREADS` worker pool,
    /// claimed in any order, accumulated in request order.
    #[default]
    Parallel,
}

impl Spec for EngineMode {
    const NAME: &'static str = "engine mode";
    const ENV: Option<&'static str> = Some("MANN_SERVE_ENGINE");

    /// `serial` or `parallel`.
    fn parse(text: &str) -> Result<Self, SpecError> {
        spec::one_of(
            Self::NAME,
            text,
            &[("serial", Self::Serial), ("parallel", Self::Parallel)],
        )
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Serial => write!(f, "serial"),
            Self::Parallel => write!(f, "parallel"),
        }
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Replicated accelerator instances sharing the link.
    pub instances: usize,
    /// Host queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Max requests dispatched to one instance and not yet computed
    /// (1 computing + the rest buffered in its input FIFO).
    pub inflight_limit: usize,
    /// Max story uploads packed into one link grant (batching amortizes
    /// the per-transfer driver latency).
    pub upload_batch: usize,
    /// Resident stories each instance keeps (LRU; 0 disables caching).
    pub story_cache: usize,
    /// Instance-selection policy.
    pub policy: SchedulePolicy,
    /// Numeric-phase execution engine.
    pub engine: EngineMode,
    /// Fabric clock of every instance.
    pub clock: ClockDomain,
    /// Shared host-link model.
    pub pcie: PcieLink,
    /// Per-instance power model.
    pub power: PowerModel,
    /// Load each task's calibrated thresholds (ITH early exit).
    pub use_ith: bool,
    /// Probe output rows in silhouette order when ITH is on.
    pub use_ordering: bool,
    /// Fault-injection campaign; [`FaultConfig::none`] (the default)
    /// injects nothing and leaves the serve path byte-identical.
    pub faults: FaultConfig,
    /// What to do with per-inference numeric-event flags; the default
    /// ([`NumericPolicy::Ignore`]) leaves the serve path byte-identical.
    pub numeric_policy: NumericPolicy,
    /// Max queries sharing one resident story drained into a single fused
    /// compute group; 0 or 1 disables batching and leaves the serve path
    /// byte-identical.
    pub batch_window: usize,
    /// Adaptive hop pruning on every instance's datapath; the default
    /// (off) leaves the serve path byte-identical.
    pub hop_prune: HopPrune,
    /// Candidate-generation index in front of every instance's MEM
    /// module; the default (off) leaves the serve path byte-identical.
    pub mem_index: MemIndexConfig,
    /// Cluster hook: when set, a watchdog-detected stranded request is
    /// handed back to the caller in [`ServeOutcome::exports`] (with its
    /// handoff time) instead of being re-queued locally, so a cluster can
    /// re-dispatch it on the story's replica shard. Off by default —
    /// standalone recovery stays local and byte-identical to before the
    /// cluster layer existed.
    pub failover_export: bool,
    /// Write-ahead-log configuration. When enabled, the serve collects
    /// the durable journal ([`ServeOutcome::wal_records`]) for the store
    /// driver to persist; the event loop itself stays I/O-free and
    /// byte-identical, and the default (off) leaves even the collection
    /// path untouched.
    pub wal: WalConfig,
    /// Cluster hook: fail-stop the whole node at this instant. The event
    /// loop halts at the cut, unfinished busy time is rolled back, and
    /// every request not fully drained by then is handed back in
    /// [`ServeOutcome::exports`] for the cluster to re-route via
    /// `route_live` (requires `failover_export`). The WAL cut is
    /// naturally consistent: a completion that never drained is never
    /// journaled. `None` (the default) schedules nothing and consumes no
    /// event sequence numbers, so the serve path stays byte-identical.
    pub fail_stop: Option<SimTime>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            instances: 2,
            queue_capacity: 64,
            inflight_limit: 2,
            upload_batch: 4,
            story_cache: DEFAULT_STORY_CACHE,
            policy: SchedulePolicy::default(),
            engine: EngineMode::default(),
            clock: ClockDomain::default(),
            pcie: PcieLink::default(),
            power: PowerModel::default(),
            use_ith: false,
            use_ordering: true,
            faults: FaultConfig::none(),
            numeric_policy: NumericPolicy::default(),
            batch_window: 0,
            hop_prune: HopPrune::default(),
            mem_index: MemIndexConfig::default(),
            failover_export: false,
            wal: WalConfig::default(),
            fail_stop: None,
        }
    }
}

impl ServeConfig {
    /// Checks structural validity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.instances == 0 {
            return Err("need at least one accelerator instance".into());
        }
        if self.queue_capacity == 0 {
            return Err("host queue capacity must be positive".into());
        }
        if self.inflight_limit == 0 {
            return Err("inflight limit must be positive".into());
        }
        if self.upload_batch == 0 {
            return Err("upload batch must be positive".into());
        }
        let pcie =
            |key: &str, value: f64, rule: spec::Rule| spec::check("pcie link", key, value, rule);
        pcie(
            "bandwidth_bytes_per_s",
            self.pcie.bandwidth_bytes_per_s,
            spec::link_bandwidth,
        )
        .and_then(|()| {
            pcie(
                "latency_per_transfer_s",
                self.pcie.latency_per_transfer_s,
                spec::duration_s,
            )
        })
        .and_then(|()| self.faults.validate())
        .and_then(|()| self.wal.validate())
        .map_err(|e| e.to_string())?;
        if let Some(t) = self.fail_stop {
            if t == SimTime::ZERO {
                return Err("fail_stop at time zero would serve nothing".into());
            }
            if !self.failover_export {
                return Err(
                    "fail_stop requires failover_export: a fail-stopped node's stranded \
                     requests only survive by being handed back to the cluster"
                        .into(),
                );
            }
        }
        if self.faults.node_kills > 0 && !self.wal.enabled {
            return Err(
                "node_kills require the write-ahead log (set `wal`, --wal-dir, or MANN_WAL): \
                 a killed node can only be recovered by replaying its journal"
                    .into(),
            );
        }
        Ok(())
    }

    /// Activity-dependent fabric energy of `cycles` at the configured
    /// clock, joules.
    pub(crate) fn active_energy_j(&self, cycles: u64) -> f64 {
        self.power.active_energy_j(
            self.clock.freq_mhz(),
            self.clock.seconds(Cycles::new(cycles)),
        )
    }
}

/// Everything a served trace produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeOutcome {
    /// Completed requests, in request-id order.
    pub completions: Vec<Completion>,
    /// Rejected requests, in arrival order.
    pub rejections: Vec<Rejection>,
    /// Requests admitted but later dropped by the fault campaign (retry
    /// exhaustion); empty without an active campaign.
    pub sheds: Vec<Request>,
    /// Stranded requests handed off for cross-shard failover, in
    /// request-id order; always empty unless `failover_export` is set.
    pub exports: Vec<Export>,
    /// The durable journal of this serve (story admissions, evictions,
    /// completions) in canonical `(stamp, kind, id)` order; always empty
    /// unless `wal.enabled` is set. The store driver persists these — the
    /// serve itself never touches the filesystem.
    pub wal_records: Vec<WalRecord>,
    /// The aggregate report.
    pub report: ServeReport,
}

/// A multi-tenant server over a trained suite.
///
/// One [`Accelerator`] is loaded per task (the tenant's bitstream +
/// weights); the configured number of *instances* are scheduling replicas
/// of that loadout. Because replicas are numerically identical, the server
/// computes each distinct story and each request's query once, and lets the
/// event loop treat instances as timing resources with story residency.
#[derive(Debug)]
pub struct Server<'a> {
    suite: &'a TaskSuite,
    /// One accelerator per task for each loadout form, indexed by
    /// `usize::from(degraded)`: `forms[0]` is the configured loadout;
    /// `forms[1]`, present only when the fault campaign enables overload
    /// degradation, forces ITH on with every threshold lowered by the
    /// degrade margin — earlier early-exit, cheaper, less accurate.
    forms: Vec<Vec<Accelerator>>,
    config: ServeConfig,
}

// Ordered only so it can ride in the agenda's heap tuple: sequence
// numbers are unique, so two entries never compare their events.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrival(usize),
    LinkDone(u64),
    /// `epoch` is the instance's crash epoch at compute start; a crash
    /// bumps the epoch so this event is recognized as stale and dropped.
    ComputeDone {
        instance: usize,
        req: usize,
        epoch: u64,
    },
    /// Fault-campaign events (never scheduled without an active plan).
    Crash(usize),
    InstanceUp(usize),
    Watchdog(usize),
    Seu(usize),
    /// Whole-node fail-stop (never scheduled without `fail_stop` set):
    /// halts the event loop at the cut.
    FailStop,
}

/// The pending-event queue, earliest `(time, seq)` first. Its
/// [`Agenda::schedule`] is the only code that assigns sequence numbers, so
/// the tie-break among simultaneous events — and with it every report
/// byte — is decided in one place.
#[derive(Default)]
struct Agenda {
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
}

impl Agenda {
    fn schedule(&mut self, time: SimTime, event: Event) {
        self.heap.push(Reverse((time, self.seq, event)));
        self.seq += 1;
    }

    fn next(&mut self) -> Option<(SimTime, Event)> {
        self.heap
            .pop()
            .map(|Reverse((time, _, event))| (time, event))
    }
}

enum LinkJob {
    /// `epoch` is the target's crash epoch at dispatch; if the instance
    /// crashed while the payload was on the wire, delivery is void.
    Upload {
        instance: usize,
        reqs: Vec<usize>,
        epoch: u64,
    },
    Drain {
        req: usize,
    },
}

/// A submitted link transfer and its retry state.
struct Job {
    kind: LinkJob,
    /// Retransmissions so far.
    attempts: u32,
    /// First CRC failure, for the link MTTR.
    first_fail: Option<SimTime>,
}

#[derive(Debug, Default, Clone)]
struct Inst {
    inflight: usize,
    free_at: SimTime,
    ready: VecDeque<usize>,
    /// The fused compute group currently on the fabric (empty = idle;
    /// a single entry without batching).
    computing: Vec<usize>,
    busy: SimTime,
    completed: u64,
    cache_hits: u64,
    /// Crashed and cooling down; invisible to the scheduler (0 credits).
    down: bool,
    /// Bumped on every crash; stale events carry the old value.
    epoch: u64,
}

impl Inst {
    /// Kills the instance at `now`: rolls back the busy time of the
    /// unfinished compute (it never happened), drops FIFO'd work and
    /// starts a new epoch so every event of the old one is stale.
    fn kill(&mut self, now: SimTime) {
        let unfinished = self.free_at.saturating_sub(now);
        self.busy = self.busy.saturating_sub(unfinished);
        self.free_at = now;
        self.computing.clear();
        self.ready.clear();
        self.inflight = 0;
        self.down = true;
        self.epoch += 1;
    }
}

/// `Lifecycle::assigned` of a request not dispatched (or failed back to
/// the queue).
const UNASSIGNED: usize = usize::MAX;

/// One request's progress through the event loop.
#[derive(Debug, Clone, Default)]
struct Lifecycle {
    ts: RequestTimestamps,
    /// Instance of the latest dispatch, or [`UNASSIGNED`].
    assigned: usize,
    /// That instance's crash epoch at dispatch.
    dispatch_epoch: u64,
    /// The story was resident at the latest dispatch.
    hit: bool,
    /// Admitted past the degrade depth: answered by the degraded form.
    degraded: bool,
    /// Compute finished.
    computed: bool,
    /// This node is finished with the request (drained, shed or exported).
    done: bool,
    shed: bool,
    /// Handoff time of a request exported for cross-shard failover.
    exported: Option<SimTime>,
    watchdog_armed: bool,
    /// Scrub instant of the poisoned story this request's upload repairs.
    seu_pending: Option<SimTime>,
}

/// Sum and count of one fault class's recovery intervals.
#[derive(Debug, Default, Clone, Copy)]
struct Mttr {
    sum: SimTime,
    count: u64,
}

impl Mttr {
    fn record(&mut self, since: SimTime, now: SimTime) {
        self.sum += now.saturating_sub(since);
        self.count += 1;
    }

    fn mean_s(self) -> f64 {
        if self.count > 0 {
            self.sum.as_s() / self.count as f64
        } else {
            0.0
        }
    }
}

/// Per-request numeric results, shared by both engines.
struct NumericPhase {
    /// One entry per distinct `(task, story)` pair, in first-seen order.
    stories: Vec<ResidentStory>,
    /// Story index of each request.
    story_of: Vec<usize>,
    /// Scheduling key of each request (task-mixed story digest).
    keys: Vec<u64>,
    /// Distinct-query index of each request: the same `(task, sample)`
    /// is the same inference.
    query_of: Vec<usize>,
    /// `runs[form][q]`: distinct query `q` on loadout form `form` (see
    /// [`Server::forms`]) as `(hit, miss)` — the query alone against the
    /// resident story, and the full run that writes the story first
    /// (equal to `Accelerator::run`).
    runs: Vec<Vec<(InferenceRun, InferenceRun)>>,
    hit_bytes: Vec<u64>,
    miss_bytes: Vec<u64>,
}

impl NumericPhase {
    /// The run request `r` resolves to on its loadout form, given whether
    /// its story was resident on the instance it was dispatched to.
    fn run(&self, r: usize, degraded: bool, hit: bool) -> &InferenceRun {
        let (h, m) = &self.runs[usize::from(degraded)][self.query_of[r]];
        if hit {
            h
        } else {
            m
        }
    }
}

/// Stream cycles a fused group shares. Same story => same per-hop
/// stream cost: the batch pays max(hops) streams instead of sum(hops),
/// and one output row stream instead of one per query. The shared
/// per-hop stream is the smallest of the members' (see
/// `InferenceRun::mem_stream_per_hop`): a member whose candidate index
/// skipped rows shares only its read stream, so a mixed group is
/// credited for no address row a partner never streamed.
fn fused_savings<'a>(group: impl IntoIterator<Item = &'a InferenceRun>) -> u64 {
    let mut stream = u64::MAX;
    let (mut hops, mut max_hops, mut outs, mut max_out) = (0u64, 0u64, 0u64, 0u64);
    for run in group {
        stream = stream.min(run.mem_stream_per_hop);
        hops += run.hops_executed as u64;
        max_hops = max_hops.max(run.hops_executed as u64);
        outs += run.out_stream_cycles;
        max_out = max_out.max(run.out_stream_cycles);
    }
    stream * (hops - max_hops) + (outs - max_out)
}

/// Groups items by key in first-seen order: returns the index of each
/// group's first item and the group of every item.
fn first_seen<K: std::hash::Hash + Eq>(keys: impl Iterator<Item = K>) -> (Vec<usize>, Vec<usize>) {
    let mut group_of_key: HashMap<K, usize> = HashMap::new();
    let mut firsts = Vec::new();
    let groups = keys
        .enumerate()
        .map(|(i, key)| {
            *group_of_key.entry(key).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, groups)
}

/// The durable journal of one serve (only with `wal.enabled`).
struct Journal {
    records: Vec<WalRecord>,
    /// Evictions come back from the LRU as cache keys; each key maps to
    /// its `(digest, task)` pair. The key is digest ^ task·MIX, so the map
    /// is total over everything the trace can admit.
    key_meta: HashMap<u64, (u64, u32)>,
    /// Quantized rows are identical for every request of a story —
    /// extracted once per story id, lazily, only for journaled misses.
    rows: Vec<Option<Vec<i32>>>,
}

impl Journal {
    fn new(trace: &ArrivalTrace, num: &NumericPhase) -> Self {
        let key_meta = trace
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let digest = num.stories[num.story_of[i]].digest();
                (num.keys[i], (digest, r.task_idx as u32))
            })
            .collect();
        Self {
            records: Vec::new(),
            key_meta,
            rows: vec![None; num.stories.len()],
        }
    }

    /// Journals one dispatch's cache admission: the eviction it caused,
    /// and the story write when it missed.
    fn admit(
        &mut self,
        admission: &Admission,
        story: &ResidentStory,
        sid: usize,
        task: u32,
        now: SimTime,
    ) {
        if let Some(k) = admission.evicted {
            let (d, t) = self.key_meta[&k];
            self.records.push(WalRecord::evict(d, t, now.ps()));
        }
        if !admission.hit {
            let rows = self.rows[sid]
                .get_or_insert_with(|| story.quantized_rows())
                .clone();
            self.records
                .push(WalRecord::story(story.digest(), task, now.ps(), rows));
        }
    }

    /// Journals the completions — only after the numeric policy has
    /// settled the final answers, so replaying the WAL reproduces exactly
    /// what was served — and returns the journal in canonical order, a
    /// pure function of (suite, trace, config), independent of engine and
    /// threads.
    fn finish(mut self, completions: &[Completion]) -> Vec<WalRecord> {
        for c in completions {
            self.records.push(WalRecord::completion(
                c.request.id,
                c.run.answer as u32,
                c.timestamps.drain_end.ps(),
            ));
        }
        self.records.sort_by(|a, b| {
            (a.stamp_ps, a.kind, a.id, a.task, a.digest)
                .cmp(&(b.stamp_ps, b.kind, b.id, b.task, b.digest))
        });
        self.records
    }
}

impl<'a> Server<'a> {
    /// Loads every task of `suite` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the suite is empty.
    pub fn new(suite: &'a TaskSuite, config: ServeConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid serve config: {e}"));
        assert!(!suite.tasks.is_empty(), "server needs at least one task");
        let forms = [false, true][..1 + usize::from(config.faults.degrade_depth > 0)]
            .iter()
            .map(|&degraded| {
                suite
                    .tasks
                    .iter()
                    .map(|t| {
                        let ith = if degraded {
                            Some(t.ith.degraded(config.faults.degrade_margin))
                        } else {
                            config.use_ith.then(|| t.ith.clone())
                        };
                        Accelerator::new(
                            t.model.clone(),
                            AccelConfig {
                                clock: config.clock,
                                pcie: config.pcie,
                                power: config.power,
                                ith,
                                use_ordering: config.use_ordering,
                                hop_prune: config.hop_prune,
                                mem_index: config.mem_index,
                                ..AccelConfig::default()
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        Self {
            suite,
            forms,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The accelerator loadout for tenant `task_idx`.
    pub fn accelerator(&self, task_idx: usize) -> &Accelerator {
        &self.forms[0][task_idx]
    }

    /// One-time cost of shipping every tenant's weights to every instance
    /// over the (serial) link — paid before traffic starts, reported as
    /// `setup_s`, not folded into per-request latency.
    pub fn setup_time_s(&self) -> f64 {
        let per_instance: f64 = self.forms[0]
            .iter()
            .map(|a| self.config.pcie.model_upload_time_s(a.model_bytes()))
            .sum();
        per_instance * self.config.instances as f64
    }

    fn sample_of(&self, req: &crate::Request) -> &mann_babi::EncodedSample {
        &self.suite.tasks[req.task_idx].test_set[req.sample_idx]
    }

    /// Simulates every distinct story once and every query once per
    /// loadout form, per the configured engine. Output is index-ordered
    /// and engine-invariant.
    fn numeric_phase(&self, trace: &ArrivalTrace) -> NumericPhase {
        let n = trace.requests.len();
        let requests = || trace.requests.iter();
        let digests: Vec<u64> = requests()
            .map(|r| story_digest(self.sample_of(r)))
            .collect();
        // Mix the tenant index in so equal digests of different tasks
        // (different embeddings!) never alias in the residency model.
        let keys = requests()
            .zip(&digests)
            .map(|(r, d)| d ^ (r.task_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let (story_req, story_of) =
            first_seen(requests().zip(&digests).map(|(r, &d)| (r.task_idx, d)));

        let workers = match self.config.engine {
            EngineMode::Serial => 1,
            EngineMode::Parallel => mann_core::parallel::worker_threads(n.max(story_req.len())),
        };
        let stories: Vec<ResidentStory> =
            mann_core::parallel::parallel_map_indexed(story_req.len(), workers, |s| {
                let r = &trace.requests[story_req[s]];
                self.forms[0][r.task_idx].write_story(self.sample_of(r))
            });
        // Identical requests — same (task, sample) — are bit-identical
        // inferences, so each distinct pair is simulated once and shared.
        // Repeated-story traces collapse to a handful of query runs.
        let (query_req, query_of) = first_seen(requests().map(|r| (r.task_idx, r.sample_idx)));
        let runs = self
            .forms
            .iter()
            .map(|accels| {
                let hits: Vec<InferenceRun> =
                    mann_core::parallel::parallel_map_indexed(query_req.len(), workers, |u| {
                        let i = query_req[u];
                        let r = &trace.requests[i];
                        accels[r.task_idx].answer_query(&stories[story_of[i]], self.sample_of(r))
                    });
                hits.into_iter()
                    .zip(&query_req)
                    .map(|(hit, &i)| {
                        let r = &trace.requests[i];
                        let miss = accels[r.task_idx].compose_uncached(
                            &stories[story_of[i]],
                            &hit,
                            self.sample_of(r),
                        );
                        (hit, miss)
                    })
                    .collect()
            })
            .collect();

        let (hit_bytes, miss_bytes) = requests()
            .map(|r| {
                let sample = self.sample_of(r);
                (
                    PcieLink::input_bytes(Accelerator::query_words(sample)),
                    PcieLink::input_bytes(Accelerator::input_words(sample)),
                )
            })
            .unzip();
        NumericPhase {
            stories,
            story_of,
            keys,
            query_of,
            runs,
            hit_bytes,
            miss_bytes,
        }
    }

    /// Serves `trace`, returning per-request completions, rejections and
    /// the aggregate report.
    ///
    /// # Panics
    ///
    /// Panics if a request references a task or sample outside the suite.
    pub fn serve(&self, trace: &ArrivalTrace) -> ServeOutcome {
        for r in &trace.requests {
            assert!(
                r.task_idx < self.suite.tasks.len(),
                "request {} task out of range",
                r.id
            );
            assert!(
                r.sample_idx < self.suite.tasks[r.task_idx].test_set.len(),
                "request {} sample out of range",
                r.id
            );
        }
        EventLoop::new(self, trace).run()
    }

    /// Applies the configured [`NumericPolicy`] to the assembled
    /// completions — after the event loop, as a pure per-completion
    /// function of each run's numeric report, so the outcome is invariant
    /// across engines, thread counts and hit/miss paths.
    ///
    /// Under [`NumericPolicy::Failover`], a stressed completion's answer
    /// is replaced by the `f32` reference model's prediction and the
    /// re-run's compute cycles/energy are accounted in the returned
    /// [`NumericHealth`]. SEU scrubs never reach this accounting: a
    /// poisoned story is repaired in the event loop by re-writing the
    /// *same* numeric-phase story, so its events are counted once here
    /// regardless of how many scrubs the campaign forced.
    fn apply_numeric_policy(&self, completions: &mut [Completion]) -> NumericHealth {
        let policy = self.config.numeric_policy;
        let mut nh = NumericHealth::default();
        if policy == NumericPolicy::Ignore {
            return nh;
        }
        nh.enabled = true;
        nh.policy = policy.to_string();
        for c in completions {
            let st = c.run.numeric.total();
            nh.histogram.merge(&st);
            nh.vetoed += c.run.vetoes as u64;
            if !st.stressed() {
                continue;
            }
            c.numeric_flagged = true;
            nh.flagged += 1;
            if policy == NumericPolicy::Failover {
                let sample = self.sample_of(&c.request);
                let sw = self.suite.tasks[c.request.task_idx].model.predict(sample);
                c.failed_over = true;
                c.run.answer = sw;
                c.correct = sw == sample.answer;
                nh.failed_over += 1;
                nh.failover_cycles += c.run.cycles.get();
            }
        }
        nh.failover_energy_j = self.config.active_energy_j(nh.failover_cycles);
        nh
    }
}

/// The event loop of one serve: a sequential merge on integer-picosecond
/// [`SimTime`] with a submission-order tie-break, over arrivals, link
/// grants, completions and the fault and membership levers' events. Each
/// `on_*` method handles one [`Event`] variant; every event is scheduled
/// through [`Agenda::schedule`].
struct EventLoop<'s, 'a> {
    server: &'s Server<'a>,
    trace: &'s ArrivalTrace,
    num: NumericPhase,
    /// The materialized fault campaign (`None` = untouched serve path).
    plan: Option<FaultPlan>,
    agenda: Agenda,
    queue: VecDeque<usize>,
    max_queue_depth: usize,
    insts: Vec<Inst>,
    residency: Vec<LruSet>,
    scheduler: Scheduler,
    arb: LinkArbiter,
    /// Link transfers, indexed by arbiter job id.
    jobs: Vec<Job>,
    /// Per-request state, indexed like `trace.requests`.
    life: Vec<Lifecycle>,
    rejections: Vec<Rejection>,
    last_drain: SimTime,
    /// Set by a fail-stop: the instant the loop halted.
    halted_at: Option<SimTime>,
    write_cycles_saved: u64,
    upload_bytes_saved: u64,
    /// Batched-compute counters (inert with window 0/1).
    batch: BatchReport,
    /// Fault-campaign counters (inert without a plan).
    fault: FaultReport,
    /// Crash instants by (instance, pre-crash epoch), for the MTTR.
    crash_at: HashMap<(usize, u64), SimTime>,
    mttr_link: Mttr,
    mttr_instance: Mttr,
    mttr_seu: Mttr,
    journal: Option<Journal>,
}

impl<'s, 'a> EventLoop<'s, 'a> {
    fn new(server: &'s Server<'a>, trace: &'s ArrivalTrace) -> Self {
        let config = &server.config;
        let num = server.numeric_phase(trace);
        let plan = config.faults.is_active().then(|| {
            FaultPlan::materialize(&config.faults, trace.span(), config.instances)
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"))
        });
        let journal = config.wal.enabled.then(|| Journal::new(trace, &num));
        let mut lp = Self {
            server,
            trace,
            num,
            plan,
            agenda: Agenda::default(),
            queue: VecDeque::new(),
            max_queue_depth: 0,
            insts: vec![Inst::default(); config.instances],
            residency: vec![LruSet::new(config.story_cache); config.instances],
            scheduler: Scheduler::new(config.policy),
            arb: LinkArbiter::new(config.pcie),
            jobs: Vec::new(),
            life: vec![
                Lifecycle {
                    assigned: UNASSIGNED,
                    ..Lifecycle::default()
                };
                trace.requests.len()
            ],
            rejections: Vec::new(),
            last_drain: SimTime::ZERO,
            halted_at: None,
            write_cycles_saved: 0,
            upload_bytes_saved: 0,
            batch: BatchReport::default(),
            fault: FaultReport::default(),
            crash_at: HashMap::new(),
            mttr_link: Mttr::default(),
            mttr_instance: Mttr::default(),
            mttr_seu: Mttr::default(),
            journal,
        };
        // Arrivals first, then the fault plan's crashes and SEUs, then the
        // fail-stop. A lever left off schedules nothing here, so it uses
        // no sequence numbers and every later event keeps the one it had
        // without the lever (byte-identity with the lever compiled in).
        // Arrivals at the cut instant carry earlier seqs than the
        // fail-stop, so they are admitted (and then stranded)
        // deterministically.
        for (i, r) in trace.requests.iter().enumerate() {
            lp.agenda.schedule(r.arrival, Event::Arrival(i));
        }
        if let Some(p) = &lp.plan {
            for (k, &(t, _)) in p.crash_events().iter().enumerate() {
                lp.agenda.schedule(t, Event::Crash(k));
            }
            for (k, &(t, _, _)) in p.seu_events().iter().enumerate() {
                lp.agenda.schedule(t, Event::Seu(k));
            }
        }
        if let Some(t) = config.fail_stop {
            lp.agenda.schedule(t, Event::FailStop);
        }
        lp
    }

    fn run(mut self) -> ServeOutcome {
        while let Some((now, event)) = self.agenda.next() {
            match event {
                Event::Arrival(i) => self.on_arrival(now, i),
                Event::LinkDone(id) => self.on_link_done(now, id),
                Event::ComputeDone {
                    instance,
                    req,
                    epoch,
                } => self.on_compute_done(now, instance, req, epoch),
                Event::Crash(k) => self.on_crash(now, k),
                Event::InstanceUp(i) => self.on_instance_up(now, i),
                Event::Watchdog(r) => self.on_watchdog(now, r),
                Event::Seu(k) => self.on_seu(k),
                Event::FailStop => {
                    self.on_fail_stop(now);
                    break;
                }
            }
        }
        debug_assert!(
            self.halted_at.is_some() || self.queue.is_empty(),
            "event loop left work queued"
        );
        debug_assert!(
            self.halted_at.is_some() || (!self.arb.is_busy() && self.arb.pending_len() == 0),
            "link work stranded"
        );
        self.finish()
    }

    /// The numeric-phase run request `r` resolves to at compute time.
    fn run_of(&self, r: usize) -> &InferenceRun {
        let l = &self.life[r];
        self.num.run(r, l.degraded, l.hit)
    }

    /// Whole-node fail-stop: the fabric, caches and host queue vanish at
    /// the cut. Every instance is killed (unfinished compute rolled back,
    /// as for a crash) and the loop halts; [`EventLoop::finish`] hands
    /// everything unfinished back to the cluster as exports.
    fn on_fail_stop(&mut self, now: SimTime) {
        for inst in &mut self.insts {
            inst.kill(now);
        }
        self.halted_at = Some(now);
    }

    fn on_arrival(&mut self, now: SimTime, i: usize) {
        if self.queue.len() >= self.server.config.queue_capacity {
            self.rejections.push(Rejection {
                request: self.trace.requests[i],
                queue_depth: self.queue.len(),
            });
            if self.plan.is_some() {
                self.fault.shed_overload += 1;
            }
            return;
        }
        self.life[i].ts.enqueue = now;
        self.queue.push_back(i);
        self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
        if let Some(p) = &self.plan {
            // Overload response: past the degrade depth, survivors are
            // answered in aggressive-ITH degraded mode instead of being
            // shed.
            let depth = p.config().degrade_depth;
            if depth > 0 && self.queue.len() >= depth {
                self.life[i].degraded = true;
                self.fault.degraded += 1;
            }
        }
        self.dispatch(now);
        self.grant(now);
    }

    fn on_link_done(&mut self, now: SimTime, id: u64) {
        let idx = id as usize;
        let attempt = self.jobs[idx].attempts;
        let retry = self
            .plan
            .as_ref()
            .filter(|p| p.corrupts(id, attempt))
            .map(|p| (p.config().max_retries, p.backoff(attempt)));
        if let Some((max_retries, backoff)) = retry {
            self.fault.link_corruptions += 1;
            self.jobs[idx].first_fail.get_or_insert(now);
            if attempt < max_retries {
                // CRC failure: hold the link through backoff and replay
                // the whole transfer. Holding (rather than completing and
                // resubmitting) keeps the FIFO order of every other
                // pending transfer intact.
                self.jobs[idx].attempts += 1;
                self.fault.retransmits += 1;
                let g = self.arb.retransmit(id, now + backoff);
                self.agenda.schedule(g.end, Event::LinkDone(id));
                return;
            }
            // Retry budget exhausted: payload undeliverable.
            self.fault.retry_exhausted += 1;
            self.arb.complete(id);
            let lost: &[usize] = match &self.jobs[idx].kind {
                // Target alive since dispatch: these requests have no
                // other copy in flight, so they are shed.
                LinkJob::Upload {
                    instance,
                    reqs,
                    epoch,
                } if self.insts[*instance].epoch == *epoch => {
                    self.insts[*instance].inflight -= reqs.len();
                    reqs
                }
                // Epoch mismatch: the instance crashed while this payload
                // was on the wire; its requests are already stranded and
                // the watchdog re-dispatches them.
                LinkJob::Upload { .. } => &[],
                LinkJob::Drain { req } => std::slice::from_ref(req),
            };
            for &r in lost {
                self.life[r].done = true;
                self.life[r].shed = true;
                self.fault.shed_link += 1;
            }
            self.dispatch(now);
            self.grant(now);
            return;
        }
        if let Some(t0) = self.jobs[idx].first_fail.take() {
            self.mttr_link.record(t0, now);
        }
        self.arb.complete(id);
        let delivered_to = match &self.jobs[idx].kind {
            LinkJob::Upload {
                instance,
                reqs,
                epoch,
            } if self.insts[*instance].epoch == *epoch => {
                debug_assert!(!self.insts[*instance].down);
                for &r in reqs {
                    self.life[r].ts.upload_end = now;
                    if let Some(t0) = self.life[r].seu_pending.take() {
                        self.mttr_seu.record(t0, now);
                    }
                }
                self.insts[*instance].ready.extend(reqs);
                Some(*instance)
            }
            // Stale epoch: the payload arrived at an instance that crashed
            // after dispatch — delivery is void, the watchdog recovers the
            // stranded requests.
            LinkJob::Upload { .. } => None,
            LinkJob::Drain { req } => {
                self.life[*req].ts.drain_end = now;
                self.life[*req].done = true;
                self.last_drain = self.last_drain.max(now);
                None
            }
        };
        if let Some(instance) = delivered_to {
            self.start_compute(instance, now);
        }
        self.grant(now);
    }

    fn on_compute_done(&mut self, now: SimTime, instance: usize, req: usize, epoch: u64) {
        if self.insts[instance].epoch != epoch {
            // Stale epoch: the instance crashed mid-compute; the result
            // never materialized.
            return;
        }
        debug_assert_eq!(self.insts[instance].computing.first(), Some(&req));
        let group = std::mem::take(&mut self.insts[instance].computing);
        self.insts[instance].inflight -= group.len();
        for q in group {
            self.life[q].ts.compute_end = now;
            self.life[q].computed = true;
            self.insts[instance].completed += 1;
            self.submit(LinkJob::Drain { req: q }, PcieLink::answer_bytes(), 1);
        }
        self.start_compute(instance, now);
        self.dispatch(now);
        self.grant(now);
    }

    fn on_crash(&mut self, now: SimTime, k: usize) {
        let p = self.plan.as_ref().expect("crash implies a campaign");
        let (_, i) = p.crash_events()[k];
        let cooldown = SimTime::from_s(p.config().crash_cooldown_s);
        if self.insts[i].down {
            return;
        }
        self.fault.crashes += 1;
        self.crash_at.insert((i, self.insts[i].epoch), now);
        // Resident stories are lost with the instance (BRAM state is gone).
        self.insts[i].kill(now);
        self.residency[i].clear_resident();
        self.agenda.schedule(now + cooldown, Event::InstanceUp(i));
    }

    fn on_instance_up(&mut self, now: SimTime, i: usize) {
        self.insts[i].down = false;
        self.dispatch(now);
        self.grant(now);
    }

    fn on_watchdog(&mut self, now: SimTime, r: usize) {
        if self.life[r].done {
            return;
        }
        self.fault.watchdog_fires += 1;
        let (assigned, epoch) = (self.life[r].assigned, self.life[r].dispatch_epoch);
        let stranded =
            assigned != UNASSIGNED && !self.life[r].computed && self.insts[assigned].epoch != epoch;
        if stranded {
            // The instance crashed under this request: fail over to
            // whatever replica the scheduler picks next (re-admission is
            // capacity-exempt; the request was already admitted once).
            self.fault.failovers += 1;
            if let Some(&t0) = self.crash_at.get(&(assigned, epoch)) {
                self.mttr_instance.record(t0, now);
            }
            if self.server.config.failover_export {
                // Cross-shard failover: hand the request back to the
                // cluster, which re-dispatches it on the story's replica
                // shard; this node is done with it.
                self.life[r].done = true;
                self.life[r].exported = Some(now);
            } else {
                self.life[r].assigned = UNASSIGNED;
                self.queue.push_front(r);
                self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
                self.dispatch(now);
                self.grant(now);
            }
        }
        // Re-arm while the request is alive; the chain dies with `done`
        // (which an export just set).
        if !self.life[r].done {
            let p = self.plan.as_ref().expect("watchdog implies a campaign");
            let wd = SimTime::from_s(p.config().watchdog_s);
            self.agenda.schedule(now + wd, Event::Watchdog(r));
        }
    }

    fn on_seu(&mut self, k: usize) {
        let p = self.plan.as_ref().expect("SEU implies a campaign");
        let (_, i, pick) = p.seu_events()[k];
        self.fault.seu_events += 1;
        if !self.insts[i].down {
            let keys = self.residency[i].keys();
            if !keys.is_empty() {
                let key = keys[(pick % keys.len() as u64) as usize];
                self.residency[i].poison(key);
            }
        }
    }

    /// Queues a link transfer behind the arbiter's FIFO.
    fn submit(&mut self, kind: LinkJob, bytes: u64, requests: usize) {
        let id = self.jobs.len() as u64;
        self.jobs.push(Job {
            kind,
            attempts: 0,
            first_fail: None,
        });
        self.arb.submit(id, bytes, requests);
    }

    /// Moves as many queued requests as credits allow onto the link.
    fn dispatch(&mut self, now: SimTime) {
        let config = self.server.config();
        while let Some(&head) = self.queue.front() {
            let views: Vec<InstanceView> = self
                .insts
                .iter()
                .zip(&self.residency)
                .map(|(inst, res)| InstanceView {
                    inflight: inst.inflight,
                    // A crashed instance advertises no credits, so the
                    // (unchanged) scheduler never picks it.
                    credits: if inst.down {
                        0
                    } else {
                        config.inflight_limit - inst.inflight
                    },
                    free_at: inst.free_at,
                    resident: res.contains(self.num.keys[head]),
                })
                .collect();
            let Some(target) = self.scheduler.pick(&views) else {
                break;
            };
            let credits = config.inflight_limit - self.insts[target].inflight;
            let take = credits.min(config.upload_batch).min(self.queue.len());
            let reqs: Vec<usize> = self.queue.drain(..take).collect();
            let bytes: u64 = reqs.iter().map(|&r| self.admit(r, target, now)).sum();
            self.insts[target].inflight += take;
            let epoch = self.insts[target].epoch;
            self.submit(
                LinkJob::Upload {
                    instance: target,
                    reqs,
                    epoch,
                },
                bytes,
                take,
            );
        }
    }

    /// Dispatches request `r` to instance `target`: decides residency (hit
    /// or miss) here, because it depends on the chosen instance's cache,
    /// arms the request's watchdog, and returns the bytes its upload
    /// moves.
    fn admit(&mut self, r: usize, target: usize, now: SimTime) -> u64 {
        let num = &self.num;
        let sid = num.story_of[r];
        let story = &num.stories[sid];
        let admission = self.residency[target].admit(num.keys[r]);
        if let Some(j) = &mut self.journal {
            let task = self.trace.requests[r].task_idx as u32;
            j.admit(&admission, story, sid, task, now);
        }
        let l = &mut self.life[r];
        if admission.scrubbed {
            // A poisoned resident story: the digest check caught it, so
            // this dispatch pays a full re-write (miss form) to repair it.
            self.fault.scrubs += 1;
            self.fault.scrub_cycles += story.phases().total().get();
            l.seu_pending = Some(now);
        }
        l.hit = admission.hit;
        l.ts.dispatch = now;
        l.assigned = target;
        l.dispatch_epoch = self.insts[target].epoch;
        let bytes = if admission.hit {
            self.insts[target].cache_hits += 1;
            self.write_cycles_saved += story.phases().total().get();
            self.upload_bytes_saved += num.miss_bytes[r] - num.hit_bytes[r];
            num.hit_bytes[r]
        } else {
            num.miss_bytes[r]
        };
        if let Some(p) = &self.plan {
            let wd = p.config().watchdog_s;
            if wd > 0.0 && !l.watchdog_armed {
                l.watchdog_armed = true;
                self.agenda
                    .schedule(now + SimTime::from_s(wd), Event::Watchdog(r));
            }
        }
        bytes
    }

    /// Grants the head link job if the link is idle.
    fn grant(&mut self, now: SimTime) {
        let Some(g) = self.arb.try_grant(now) else {
            return;
        };
        match &self.jobs[g.id as usize].kind {
            LinkJob::Upload { reqs, .. } => {
                for &r in reqs {
                    self.life[r].ts.upload_start = g.start;
                }
            }
            LinkJob::Drain { req } => self.life[*req].ts.drain_start = g.start,
        }
        self.agenda.schedule(g.end, Event::LinkDone(g.id));
    }

    /// Starts the next ready request if the instance's fabric is idle.
    /// With a batch window > 1, the head request additionally drains
    /// every FIFO'd request on the *same resident story* (up to the
    /// window) into one fused compute group: the shared per-hop memory
    /// stream and the shared output-search stream are paid once instead
    /// of once per query, so the fused duration is the sum of the
    /// per-query durations minus the deduplicated stream cycles.
    fn start_compute(&mut self, i: usize, now: SimTime) {
        if !self.insts[i].computing.is_empty() {
            return;
        }
        let Some(r) = self.insts[i].ready.pop_front() else {
            return;
        };
        let config = self.server.config();
        let mut group = vec![r];
        if config.batch_window > 1 {
            let key = self.num.keys[r];
            let mut rest = VecDeque::new();
            for q in std::mem::take(&mut self.insts[i].ready) {
                if group.len() < config.batch_window && self.num.keys[q] == key {
                    group.push(q);
                } else {
                    rest.push_back(q);
                }
            }
            self.insts[i].ready = rest;
            self.batch.groups += 1;
            self.batch.batched_requests += group.len() as u64;
            let hist = &mut self.batch.size_histogram;
            if hist.len() < group.len() {
                hist.resize(group.len(), 0);
            }
            hist[group.len() - 1] += 1;
        }
        let mut total = SimTime::ZERO;
        for &q in &group {
            self.life[q].ts.compute_start = now;
            total += self.run_of(q).compute_time(config.clock);
        }
        let fused = if group.len() > 1 {
            self.batch.fused_groups += 1;
            let saved = fused_savings(group.iter().map(|&q| self.run_of(q)));
            self.batch.cycles_saved += saved;
            total.saturating_sub(config.clock.sim_time(Cycles::new(saved)))
        } else {
            total
        };
        let end = now + fused;
        let inst = &mut self.insts[i];
        inst.free_at = end;
        inst.busy += fused;
        inst.computing = group;
        let epoch = inst.epoch;
        self.agenda.schedule(
            end,
            Event::ComputeDone {
                instance: i,
                req: r,
                epoch,
            },
        );
    }

    /// Assembles the outcome once the loop has run dry or halted.
    fn finish(mut self) -> ServeOutcome {
        let trace = self.trace;
        let requests = &trace.requests;
        let rejected_ids: std::collections::HashSet<u64> =
            self.rejections.iter().map(|r| r.request.id).collect();
        if let Some(cut) = self.halted_at {
            // Fail-stop stranding: every request not fully drained by the
            // cut — queued, on the wire, computing, or not yet arrived —
            // is exported for the cluster to re-route. Rejections stay
            // rejections (they were bounced before the node died), so no
            // request is ever double-counted.
            self.queue.clear();
            for (l, r) in self.life.iter_mut().zip(requests) {
                if !l.done && !l.shed && l.exported.is_none() && !rejected_ids.contains(&r.id) {
                    l.done = true;
                    l.exported = Some(cut.max(r.arrival));
                }
            }
        }
        let sheds: Vec<Request> = requests
            .iter()
            .zip(&self.life)
            .filter(|(_, l)| l.shed)
            .map(|(r, _)| *r)
            .collect();
        let exports: Vec<Export> = requests
            .iter()
            .zip(&self.life)
            .filter_map(|(r, l)| l.exported.map(|at| Export { request: *r, at }))
            .collect();
        let mut completions: Vec<Completion> = requests
            .iter()
            .enumerate()
            .filter(|&(i, r)| {
                let l = &self.life[i];
                !rejected_ids.contains(&r.id) && !l.shed && l.exported.is_none()
            })
            .map(|(i, r)| {
                let l = &self.life[i];
                debug_assert!(l.ts.is_monotone(), "request {} timeline broken", r.id);
                let run = self.run_of(i).clone();
                let correct = run.answer == self.server.sample_of(r).answer;
                Completion {
                    request: *r,
                    instance: l.assigned,
                    run,
                    timestamps: l.ts,
                    correct,
                    degraded: l.degraded,
                    numeric_flagged: false,
                    failed_over: false,
                }
            })
            .collect();
        let numeric = self.server.apply_numeric_policy(&mut completions);
        let wal_records = self
            .journal
            .take()
            .map_or_else(Vec::new, |j| j.finish(&completions));
        debug_assert_eq!(sheds.len() as u64, self.fault.shed_link);
        let report = self.report(&completions, sheds.len(), numeric);
        ServeOutcome {
            completions,
            rejections: self.rejections,
            sheds,
            exports,
            wal_records,
            report,
        }
    }

    fn report(
        &self,
        completions: &[Completion],
        shed: usize,
        numeric: NumericHealth,
    ) -> ServeReport {
        let config = self.server.config();
        let makespan_s = self.last_drain.as_s();
        let latencies: Vec<f64> = completions
            .iter()
            .map(|c| c.timestamps.latency().as_s())
            .collect();
        let stats = CompletionStats::new(completions, &latencies, makespan_s);
        let instances: Vec<InstanceReport> = self
            .insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let busy_s = inst.busy.as_s();
                InstanceReport {
                    instance: i,
                    completed: inst.completed,
                    cache_hits: inst.cache_hits,
                    busy_s,
                    occupancy: if makespan_s > 0.0 {
                        (busy_s / makespan_s).clamp(0.0, 1.0)
                    } else {
                        0.0
                    },
                    energy_j: config.power.interval_energy_j(
                        config.clock.freq_mhz(),
                        busy_s,
                        makespan_s,
                        config.use_ith,
                    ),
                }
            })
            .collect();
        let total_energy_j = instances.iter().map(|i| i.energy_j).sum();

        let mut cache_stats = mann_hw::CacheStats::default();
        for r in &self.residency {
            cache_stats += r.stats();
        }
        let cache = CacheReport {
            capacity: config.story_cache,
            unique_stories: self.num.stories.len(),
            hits: cache_stats.hits,
            misses: cache_stats.misses,
            evictions: cache_stats.evictions,
            hit_rate: cache_stats.hit_rate(),
            write_cycles_saved: self.write_cycles_saved,
            upload_bytes_saved: self.upload_bytes_saved,
            write_energy_saved_j: config.active_energy_j(self.write_cycles_saved),
        };
        let batch = BatchReport {
            enabled: config.batch_window > 1,
            window: config.batch_window,
            energy_saved_j: config.active_energy_j(self.batch.cycles_saved),
            ..self.batch.clone()
        };

        let mut fault = self.fault.clone();
        if let Some(p) = &self.plan {
            fault.enabled = true;
            fault.plan_seed = p.config().seed;
            fault.retry_link_s = self.arb.retry_busy_time().as_s();
            fault.retry_energy_j = config
                .power
                .retry_energy_j(config.clock.freq_mhz(), fault.retry_link_s);
            fault.scrub_energy_j = config.active_energy_j(fault.scrub_cycles);
            fault.mttr_link_s = self.mttr_link.mean_s();
            fault.mttr_instance_s = self.mttr_instance.mean_s();
            fault.mttr_seu_s = self.mttr_seu.mean_s();
        }

        // Per-completion hop accounting: for a fixed story every hop of a
        // run spends the same addressing/read/controller cycles, so the
        // per-hop cost divides exactly and the saved-cycle figure is an
        // exact count, not an estimate.
        let mut prune = HopPruneReport {
            enabled: config.hop_prune.enabled,
            threshold: config.hop_prune.threshold,
            ..HopPruneReport::default()
        };
        for c in completions {
            prune.hops_executed += c.run.hops_executed as u64;
            prune.hops_saved += c.run.hops_saved as u64;
            prune.vetoes += c.run.prune_vetoes as u64;
            if c.run.hops_saved > 0 {
                prune.pruned_completions += 1;
                let hop_cycles =
                    (c.run.phases.addressing + c.run.phases.read + c.run.phases.controller).get();
                // With the candidate index armed, hops inside one run can
                // scan different candidate counts, so the per-hop figure
                // below is a mean rather than an exact per-hop cost.
                if !config.mem_index.enabled {
                    debug_assert_eq!(hop_cycles % c.run.hops_executed as u64, 0);
                }
                prune.cycles_saved +=
                    hop_cycles / c.run.hops_executed as u64 * c.run.hops_saved as u64;
            }
        }
        prune.energy_saved_j = config.active_energy_j(prune.cycles_saved);
        // A disabled report stays `IndexReport::default()` (not a config
        // echo), so structs parsed from pre-index golden JSON — where the
        // key is absent and deserialization falls back to the default —
        // compare equal to freshly built ones.
        let mut index = IndexReport::default();
        if config.mem_index.enabled {
            index.enabled = true;
            index.k = config.mem_index.k;
            index.nprobe = config.mem_index.nprobe;
            index.band = config.mem_index.band;
            for c in completions {
                index.scanned_slots += c.run.index.scanned_slots;
                index.skipped_slots += c.run.index.skipped_slots;
                index.fallbacks += c.run.index.fallbacks;
                index.build_cycles += c.run.index.build_cycles;
                index.cycles_saved += c.run.index.cycles_saved;
            }
            index.energy_saved_j = config.active_energy_j(index.cycles_saved);
        }
        let link = &self.arb;
        ServeReport {
            shards: 1,
            replication: 1,
            requests: self.trace.requests.len(),
            completed: completions.len(),
            rejected: self.rejections.len(),
            shed,
            accuracy: stats.accuracy,
            makespan_s,
            throughput_rps: stats.throughput_rps,
            latency: stats.latency,
            mean_queue_wait_s: stats.mean_queue_wait_s,
            max_queue_depth: self.max_queue_depth,
            instances,
            failover: ClusterFailover::default(),
            link: LinkReport {
                grants: link.grants(),
                bytes: link.bytes_moved(),
                busy_s: link.busy_time().as_s(),
                utilization: if makespan_s > 0.0 {
                    (link.busy_time().as_s() / makespan_s).clamp(0.0, 1.0)
                } else {
                    0.0
                },
            },
            cache,
            phase_totals: completions.iter().map(|c| c.run.phases).sum(),
            speculated: completions.iter().filter(|c| c.run.speculated).count(),
            total_energy_j,
            setup_s: self.server.setup_time_s(),
            answers_digest: stats.answers_digest,
            fault,
            numeric,
            batch,
            prune,
            index,
            // The durable driver (`crate::store`) patches this section in
            // after persisting the journal; the pure serve never fills it.
            durability: DurabilityReport::default(),
            membership: MembershipReport::default(),
            fail_stopped: config.fail_stop.is_some(),
            per_shard: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;
    use mann_babi::TaskId;
    use mann_core::SuiteConfig;

    fn suite() -> TaskSuite {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 100,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        };
        TaskSuite::build(&cfg)
    }

    fn trace(suite: &TaskSuite, requests: usize) -> ArrivalTrace {
        ArrivalTrace::generate(
            &TraceConfig {
                requests,
                seed: 11,
                mean_interarrival_s: 150e-6,
                ..TraceConfig::default()
            },
            suite,
        )
    }

    #[test]
    fn serves_every_request_with_monotone_timelines() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 64);
        let out = server.serve(&t);
        assert_eq!(out.completions.len(), 64);
        assert!(out.rejections.is_empty());
        for c in &out.completions {
            assert!(c.timestamps.is_monotone());
            assert!(c.instance < server.config().instances);
            assert!(c.timestamps.latency() > SimTime::ZERO);
        }
        // Ids stay in order.
        assert!(out
            .completions
            .windows(2)
            .all(|w| w[0].request.id < w[1].request.id));
        let r = &out.report;
        assert_eq!(r.completed, 64);
        assert!(r.makespan_s > 0.0 && r.throughput_rps > 0.0);
        assert!(r.latency.p50_s <= r.latency.p99_s);
        assert!(r.total_energy_j > 0.0);
        assert!(r.setup_s > 0.0);
        assert_eq!(r.instances.len(), 2);
        // Both instances did work under shortest-queue at this load.
        assert!(r.instances.iter().all(|i| i.completed > 0));
        // Every drain crossed the link, plus at least one upload grant.
        assert!(r.link.grants > 64);
        assert!(r.link.utilization > 0.0 && r.link.utilization <= 1.0);
        // Cache accounting is coherent: every completion was admitted once.
        assert_eq!(r.cache.hits + r.cache.misses, 64);
        assert_eq!(
            r.instances.iter().map(|i| i.cache_hits).sum::<u64>(),
            r.cache.hits
        );
        // 24 test samples, 64 draws: repeats are certain, and with capacity
        // 16 per instance the cache must convert some into hits.
        assert!(r.cache.unique_stories <= 24);
        assert!(r.cache.hits > 0);
        assert!(r.cache.write_cycles_saved > 0);
        assert!(r.cache.upload_bytes_saved > 0);
        assert!(r.cache.write_energy_saved_j > 0.0);
    }

    #[test]
    fn serve_is_deterministic() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 48);
        let a = server.serve(&t);
        let b = server.serve(&t);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn serial_and_parallel_engines_agree_bit_for_bit() {
        let s = suite();
        let t = trace(&s, 48);
        let serve_with = |engine| {
            let server = Server::new(
                &s,
                ServeConfig {
                    engine,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        };
        let serial = serve_with(EngineMode::Serial);
        let parallel = serve_with(EngineMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
    }

    #[test]
    fn cache_off_matches_standalone_runs_exactly() {
        let s = suite();
        let server = Server::new(
            &s,
            ServeConfig {
                story_cache: 0,
                ..ServeConfig::default()
            },
        );
        let t = trace(&s, 32);
        let out = server.serve(&t);
        assert_eq!(out.report.cache.hits, 0);
        assert_eq!(out.report.cache.capacity, 0);
        for c in &out.completions {
            let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
            let direct = server.accelerator(c.request.task_idx).run(sample);
            assert_eq!(c.run, direct);
        }
    }

    #[test]
    fn cache_hits_change_write_phase_only() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = trace(&s, 64);
        let out = server.serve(&t);
        let hits = out.completions.iter().filter(|c| c.run.cache_hit).count();
        assert!(hits > 0, "no cache hits in a repeat-heavy trace");
        for c in &out.completions {
            let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
            let direct = server.accelerator(c.request.task_idx).run(sample);
            assert_eq!(c.run.answer, direct.answer);
            assert_eq!(c.run.comparisons, direct.comparisons);
            assert_eq!(c.run.phases.addressing, direct.phases.addressing);
            assert_eq!(c.run.phases.read, direct.phases.read);
            assert_eq!(c.run.phases.controller, direct.phases.controller);
            assert_eq!(c.run.phases.output, direct.phases.output);
            if c.run.cache_hit {
                assert!(c.run.phases.write < direct.phases.write);
                assert!(c.run.interface_s < direct.interface_s);
            } else {
                assert_eq!(c.run, direct);
            }
        }
    }

    #[test]
    fn story_affinity_beats_shortest_queue_on_hits() {
        let s = suite();
        // Few stories, many questions: residency matters.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 17,
                mean_interarrival_s: 120e-6,
                story_pool: 3,
            },
            &s,
        );
        let serve_with = |policy| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances: 3,
                    story_cache: 2,
                    policy,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let sq = serve_with(SchedulePolicy::ShortestQueue);
        let af = serve_with(SchedulePolicy::StoryAffinity);
        assert_eq!(sq.answers_digest, af.answers_digest);
        assert!(
            af.cache.hits > sq.cache.hits,
            "affinity hits {} !> shortest-queue hits {}",
            af.cache.hits,
            sq.cache.hits
        );
    }

    #[test]
    fn tiny_queue_rejects_under_burst() {
        let s = suite();
        let server = Server::new(
            &s,
            ServeConfig {
                instances: 1,
                queue_capacity: 2,
                ..ServeConfig::default()
            },
        );
        // A burst: everything arrives nearly at once.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 40,
                seed: 3,
                mean_interarrival_s: 1e-9,
                ..TraceConfig::default()
            },
            &s,
        );
        let out = server.serve(&t);
        assert!(!out.rejections.is_empty(), "no backpressure under burst");
        assert_eq!(out.completions.len() + out.rejections.len(), 40);
        assert_eq!(out.report.rejected, out.rejections.len());
        for r in &out.rejections {
            assert_eq!(r.queue_depth, 2);
        }
        // Rejected ids are absent from completions.
        let done: std::collections::HashSet<u64> =
            out.completions.iter().map(|c| c.request.id).collect();
        assert!(out.rejections.iter().all(|r| !done.contains(&r.request.id)));
    }

    #[test]
    fn more_instances_reduce_tail_latency() {
        let s = suite();
        // A near-simultaneous burst on a fast link, so the fabric compute
        // time — not the shared-link serialization — is the bottleneck and
        // replication can actually help. Caching off keeps service times
        // instance-independent for a clean comparison.
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 13,
                mean_interarrival_s: 1e-9,
                ..TraceConfig::default()
            },
            &s,
        );
        let fast_link = mann_hw::PcieLink {
            bandwidth_bytes_per_s: 1.5e9,
            latency_per_transfer_s: 1e-6,
        };
        let serve = |instances: usize| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances,
                    queue_capacity: 256,
                    story_cache: 0,
                    pcie: fast_link,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let one = serve(1);
        let four = serve(4);
        assert!(
            four.latency.p99_s < one.latency.p99_s,
            "p99 {} !< {} with 4x instances",
            four.latency.p99_s,
            one.latency.p99_s
        );
        assert!(
            four.makespan_s < 0.6 * one.makespan_s,
            "makespan {} !< 0.6 * {}",
            four.makespan_s,
            one.makespan_s
        );
        // Replication never changes an answer.
        assert_eq!(one.answers_digest, four.answers_digest);
    }

    #[test]
    fn caching_improves_throughput_under_story_reuse() {
        let s = suite();
        let t = ArrivalTrace::generate(
            &TraceConfig {
                requests: 128,
                seed: 23,
                mean_interarrival_s: 1e-9,
                story_pool: 4,
            },
            &s,
        );
        let serve_with = |story_cache| {
            let server = Server::new(
                &s,
                ServeConfig {
                    queue_capacity: 256,
                    story_cache,
                    policy: SchedulePolicy::StoryAffinity,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t).report
        };
        let cold = serve_with(0);
        let warm = serve_with(8);
        assert_eq!(cold.answers_digest, warm.answers_digest);
        assert!(warm.cache.hits > 0);
        assert!(
            warm.makespan_s < cold.makespan_s,
            "warm {} !< cold {}",
            warm.makespan_s,
            cold.makespan_s
        );
    }

    #[test]
    fn policies_agree_on_answers_but_may_differ_in_timing() {
        let s = suite();
        let t = trace(&s, 48);
        let serve_with = |policy| {
            let server = Server::new(
                &s,
                ServeConfig {
                    instances: 3,
                    policy,
                    ..ServeConfig::default()
                },
            );
            server.serve(&t)
        };
        let rr = serve_with(SchedulePolicy::RoundRobin);
        let sq = serve_with(SchedulePolicy::ShortestQueue);
        let af = serve_with(SchedulePolicy::StoryAffinity);
        assert_eq!(rr.report.answers_digest, sq.report.answers_digest);
        assert_eq!(rr.report.completed, sq.report.completed);
        assert_eq!(sq.report.answers_digest, af.report.answers_digest);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let s = suite();
        let server = Server::new(&s, ServeConfig::default());
        let t = ArrivalTrace {
            requests: Vec::new(),
            config: TraceConfig::default(),
        };
        let out = server.serve(&t);
        assert!(out.completions.is_empty());
        assert_eq!(out.report.makespan_s, 0.0);
        assert_eq!(out.report.total_energy_j, 0.0);
        assert_eq!(out.report.cache.hits + out.report.cache.misses, 0);
    }

    #[test]
    fn numeric_ignore_emits_no_key_and_flag_is_clean_at_babi_scale() {
        let s = suite();
        let t = trace(&s, 16);
        let out = Server::new(&s, ServeConfig::default()).serve(&t);
        assert!(!out.report.numeric.enabled);
        assert!(
            !serde_json::to_string(&out.report)
                .unwrap()
                .contains("\"numeric\""),
            "ignore policy must not emit the numeric key"
        );
        // A flag policy on the clean suite publishes the section but every
        // counter is zero and no answer moves.
        let flagged = Server::new(
            &s,
            ServeConfig {
                numeric_policy: NumericPolicy::Flag,
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        let nh = &flagged.report.numeric;
        assert!(nh.enabled);
        assert_eq!(nh.policy, "flag");
        assert_eq!((nh.flagged, nh.vetoed, nh.failed_over), (0, 0, 0));
        assert!(nh.histogram.is_clean());
        assert_eq!(flagged.report.answers_digest, out.report.answers_digest);
        assert!(flagged.completions.iter().all(|c| !c.numeric_flagged));
    }

    #[test]
    fn failover_reroutes_stressed_completions_to_the_reference_model() {
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 24);
        let serve_with = |numeric_policy| {
            Server::new(
                &s,
                ServeConfig {
                    use_ith: true,
                    numeric_policy,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let flagged = serve_with(NumericPolicy::Flag);
        let nh = &flagged.report.numeric;
        assert!(nh.flagged > 0, "stress campaign produced no flags");
        assert!(nh.histogram.add_sat > 0 && nh.histogram.mul_sat > 0);
        assert!(nh.histogram.nan_boundary > 0, "±inf weights at load");
        assert_eq!(nh.failed_over, 0, "flag policy must not fail over");
        assert_eq!(nh.failover_cycles, 0);

        let failover = serve_with(NumericPolicy::Failover);
        let nf = &failover.report.numeric;
        assert_eq!(nf.flagged, nh.flagged, "same flags, different response");
        assert_eq!(nf.failed_over, nf.flagged);
        assert!(nf.failover_cycles > 0 && nf.failover_energy_j > 0.0);
        for c in &failover.completions {
            if c.failed_over {
                let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
                assert_eq!(
                    c.run.answer,
                    s.tasks[c.request.task_idx].model.predict(sample),
                    "failover answer must come from the f32 reference"
                );
                assert!(c.numeric_flagged);
            }
        }
    }

    #[test]
    fn numeric_health_is_engine_invariant_under_stress() {
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 24);
        let serve_with = |engine| {
            Server::new(
                &s,
                ServeConfig {
                    engine,
                    use_ith: true,
                    numeric_policy: NumericPolicy::Failover,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let serial = serve_with(EngineMode::Serial);
        let parallel = serve_with(EngineMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
    }

    #[test]
    fn seu_scrubs_do_not_double_count_numeric_events() {
        // An SEU-poisoned story is repaired by re-writing the *same*
        // numeric-phase story: the scrub costs cycles in the fault report,
        // but the story's saturation events are counted once per
        // completion either way.
        let s = suite().with_embedding_scale(f32::MAX);
        let t = trace(&s, 32);
        let serve_with = |faults| {
            Server::new(
                &s,
                ServeConfig {
                    numeric_policy: NumericPolicy::Flag,
                    faults,
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let clean = serve_with(FaultConfig::none());
        let seus = serve_with(FaultConfig {
            seed: 9,
            seus: 8,
            ..FaultConfig::none()
        });
        assert!(seus.report.fault.seu_events > 0);
        assert_eq!(
            clean.report.numeric, seus.report.numeric,
            "scrub re-writes leaked into the numeric section"
        );
    }

    /// A burst of same-story questions against one instance over a fast
    /// link: uploads outrun the fabric, the ready FIFO backs up, and the
    /// batcher has real groups to fuse.
    fn reuse_trace(s: &TaskSuite) -> ArrivalTrace {
        ArrivalTrace::generate(
            &TraceConfig {
                requests: 96,
                seed: 23,
                mean_interarrival_s: 1e-9,
                story_pool: 3,
            },
            s,
        )
    }

    fn batched_config(window: usize) -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            story_cache: 4,
            // Deep input FIFOs: groups can only form from requests already
            // buffered behind the computing one.
            inflight_limit: 8,
            policy: SchedulePolicy::StoryAffinity,
            pcie: mann_hw::PcieLink {
                bandwidth_bytes_per_s: 1.5e9,
                latency_per_transfer_s: 1e-6,
            },
            batch_window: window,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn batch_window_zero_and_one_are_byte_identical() {
        let s = suite();
        let t = reuse_trace(&s);
        let off = Server::new(&s, batched_config(0)).serve(&t);
        let one = Server::new(&s, batched_config(1)).serve(&t);
        assert_eq!(off.completions, one.completions);
        assert_eq!(off.rejections, one.rejections);
        // Window 0 and 1 differ only in the (disabled) config echo; the
        // emitted JSON must be byte-identical, and neither lever key may
        // appear with the levers off.
        let j0 = serde_json::to_string(&off.report).unwrap();
        let j1 = serde_json::to_string(&one.report).unwrap();
        assert!(!j0.contains("\"batch\""), "disabled batching emitted a key");
        assert!(!j0.contains("\"prune\""), "disabled pruning emitted a key");
        assert_eq!(j0, j1);
    }

    #[test]
    fn batched_compute_fuses_groups_without_changing_answers() {
        let s = suite();
        let t = reuse_trace(&s);
        let unbatched = Server::new(&s, batched_config(0)).serve(&t);
        let batched = Server::new(&s, batched_config(4)).serve(&t);
        let b = &batched.report.batch;
        assert!(b.enabled);
        assert_eq!(b.window, 4);
        assert!(b.fused_groups > 0, "burst trace formed no fused group");
        assert!(b.batched_requests > b.groups, "no group exceeded size 1");
        // The histogram partitions the groups and never exceeds the window.
        assert_eq!(b.size_histogram.iter().sum::<u64>(), b.groups);
        assert!(b.size_histogram.len() <= 4);
        let by_size: u64 = b
            .size_histogram
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        assert_eq!(by_size, b.batched_requests);
        assert!(b.cycles_saved > 0 && b.energy_saved_j > 0.0);
        // Fusing dedups stream cycles; it never touches a datapath result.
        // (Write/control totals may drift: earlier compute completions
        // shift dispatch timing and with it the hit/miss split.)
        assert_eq!(
            unbatched.report.answers_digest,
            batched.report.answers_digest
        );
        let (u, f) = (unbatched.report.phase_totals, batched.report.phase_totals);
        assert_eq!(u.addressing, f.addressing);
        assert_eq!(u.read, f.read);
        assert_eq!(u.controller, f.controller);
        assert_eq!(u.output, f.output);
        assert_eq!(unbatched.report.accuracy, batched.report.accuracy);
        assert!(
            batched.report.makespan_s < unbatched.report.makespan_s,
            "batched {} !< unbatched {}",
            batched.report.makespan_s,
            unbatched.report.makespan_s
        );
    }

    #[test]
    fn batched_and_pruned_serve_is_engine_invariant() {
        let s = suite();
        let t = reuse_trace(&s);
        let serve_with = |engine| {
            Server::new(
                &s,
                ServeConfig {
                    engine,
                    hop_prune: HopPrune::with_threshold(0.5),
                    ..batched_config(4)
                },
            )
            .serve(&t)
        };
        let serial = serve_with(EngineMode::Serial);
        let parallel = serve_with(EngineMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
        let p = &serial.report.prune;
        assert!(p.enabled);
        assert!(p.hops_executed > 0);
        assert!(
            serde_json::to_string(&serial.report)
                .unwrap()
                .contains("\"prune\""),
            "enabled pruning must publish its section"
        );
    }

    #[test]
    fn batched_and_indexed_serve_shares_the_address_stream_only_without_skips() {
        let s = suite();
        let t = reuse_trace(&s);
        let serve_with = |engine, mem_index| {
            Server::new(
                &s,
                ServeConfig {
                    engine,
                    mem_index,
                    ..batched_config(4)
                },
            )
            .serve(&t)
        };
        let plain = serve_with(EngineMode::Serial, MemIndexConfig::default());
        let plain_stream: HashMap<u64, u64> = plain
            .completions
            .iter()
            .map(|c| (c.request.id, c.run.mem_stream_per_hop))
            .collect();
        // Every hop falls back and scans all slots: a fused partner shares
        // both row streams, exactly as with the index off.
        let fallback = serve_with(EngineMode::Serial, MemIndexConfig::with_params(4, 1, 1.0e9));
        assert!(fallback.report.batch.fused_groups > 0, "no fused group");
        for c in &fallback.completions {
            assert_eq!(c.run.index.skipped_slots, 0);
            assert_eq!(c.run.mem_stream_per_hop, plain_stream[&c.request.id]);
        }
        // A tight band skips rows: those queries streamed only their own
        // candidates on the address side and share the soft-read half.
        let armed = MemIndexConfig::with_params(4, 2, 0.0);
        let serial = serve_with(EngineMode::Serial, armed);
        let parallel = serve_with(EngineMode::Parallel, armed);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
        assert!(serial.report.batch.fused_groups > 0, "no fused group");
        let mut skipped = 0usize;
        for c in &serial.completions {
            let full = plain_stream[&c.request.id];
            assert!(full > 0);
            if c.run.index.skipped_slots > 0 {
                skipped += 1;
                assert_eq!(
                    2 * c.run.mem_stream_per_hop,
                    full,
                    "request {}",
                    c.request.id
                );
            } else {
                assert_eq!(c.run.mem_stream_per_hop, full, "request {}", c.request.id);
            }
        }
        assert!(skipped > 0, "the tight band never skipped a slot");
        // Rebuild the fused groups (one instance, one compute start): the
        // report's credit is the per-group savings summed.
        for out in [&fallback, &serial] {
            let mut groups: HashMap<(usize, SimTime), Vec<&InferenceRun>> = HashMap::new();
            for c in &out.completions {
                let key = (c.instance, c.timestamps.compute_start);
                groups.entry(key).or_default().push(&c.run);
            }
            let saved: u64 = groups
                .values()
                .map(|g| fused_savings(g.iter().copied()))
                .sum();
            assert_eq!(saved, out.report.batch.cycles_saved);
        }
        // A group mixing a full scan with a skipping scan shares only the
        // read stream, whichever member leads.
        let half = serial
            .completions
            .iter()
            .find(|c| c.run.index.skipped_slots > 0);
        let whole = fallback
            .completions
            .iter()
            .find(|c| c.run.hops_executed > 0);
        let (half, whole) = (&half.unwrap().run, &whole.unwrap().run);
        assert!(half.mem_stream_per_hop < whole.mem_stream_per_hop);
        let hops = (half.hops_executed + whole.hops_executed
            - half.hops_executed.max(whole.hops_executed)) as u64;
        let outs = half.out_stream_cycles.min(whole.out_stream_cycles);
        let expect = half.mem_stream_per_hop * hops + outs;
        assert_eq!(fused_savings([half, whole]), expect);
        assert_eq!(fused_savings([whole, half]), expect);
    }

    #[test]
    fn disabled_index_emits_no_key_and_changes_nothing() {
        let s = suite();
        let t = trace(&s, 24);
        let off = Server::new(&s, ServeConfig::default()).serve(&t);
        assert!(!off.report.index.enabled);
        assert_eq!(off.report.index, IndexReport::default());
        assert!(
            !serde_json::to_string(&off.report)
                .unwrap()
                .contains("\"index\""),
            "disabled index emitted a key"
        );
        // An explicit `enabled: false` config is byte-identical to the
        // default: the index is inert until armed.
        let explicit = Server::new(
            &s,
            ServeConfig {
                mem_index: MemIndexConfig {
                    enabled: false,
                    k: 32,
                    nprobe: 4,
                    band: 0.5,
                },
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        assert_eq!(off.completions, explicit.completions);
        assert_eq!(
            serde_json::to_string(&off.report).unwrap(),
            serde_json::to_string(&explicit.report).unwrap()
        );
    }

    #[test]
    fn indexed_serve_is_engine_invariant_and_publishes_counters() {
        let s = suite();
        let t = trace(&s, 32);
        let serve_with = |engine| {
            Server::new(
                &s,
                ServeConfig {
                    engine,
                    mem_index: MemIndexConfig::with_params(4, 2, 0.0),
                    ..ServeConfig::default()
                },
            )
            .serve(&t)
        };
        let serial = serve_with(EngineMode::Serial);
        let parallel = serve_with(EngineMode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(
            serde_json::to_string(&serial.report).unwrap(),
            serde_json::to_string(&parallel.report).unwrap()
        );
        let i = &serial.report.index;
        assert!(i.enabled);
        assert_eq!((i.k, i.nprobe), (4, 2));
        assert!(i.build_cycles > 0, "no centroid construction charged");
        assert!(i.scanned_slots > 0);
        assert_eq!(
            i.scanned_slots + i.skipped_slots,
            serial
                .completions
                .iter()
                .map(|c| {
                    let sample = &s.tasks[c.request.task_idx].test_set[c.request.sample_idx];
                    (sample.sentences.len() * c.run.hops_executed) as u64
                })
                .sum::<u64>(),
            "scanned + skipped must partition story slots x hops"
        );
        assert!(
            serde_json::to_string(&serial.report)
                .unwrap()
                .contains("\"index\""),
            "armed index must publish its section"
        );
        let _ = serial.report.render();
    }

    #[test]
    fn full_fallback_index_matches_unindexed_answers_exactly() {
        let s = suite();
        let t = trace(&s, 24);
        let plain = Server::new(&s, ServeConfig::default()).serve(&t);
        // A huge band forces every hop back to the exact scan: answers,
        // comparisons and the digest are untouched; only timing moves.
        let fb = Server::new(
            &s,
            ServeConfig {
                mem_index: MemIndexConfig::with_params(4, 2, 1e9),
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        assert_eq!(plain.report.answers_digest, fb.report.answers_digest);
        assert_eq!(plain.report.accuracy, fb.report.accuracy);
        let i = &fb.report.index;
        assert!(i.fallbacks > 0);
        assert_eq!(i.skipped_slots, 0, "fallback hops skip nothing");
        assert_eq!(i.cycles_saved, 0);
        for (p, f) in plain.completions.iter().zip(&fb.completions) {
            assert_eq!(p.run.answer, f.run.answer);
            assert_eq!(p.run.comparisons, f.run.comparisons);
        }
    }

    #[test]
    fn aggressive_pruning_prunes_every_unvetoed_completion() {
        let s = suite();
        let t = trace(&s, 24);
        // Attention sums to 1, so a tiny threshold fires on every hop
        // boundary: each completion either prunes or is vetoed.
        let out = Server::new(
            &s,
            ServeConfig {
                hop_prune: HopPrune::with_threshold(0.001),
                ..ServeConfig::default()
            },
        )
        .serve(&t);
        let p = &out.report.prune;
        assert!(p.hops_saved > 0, "aggressive threshold saved nothing");
        assert!(p.cycles_saved > 0 && p.energy_saved_j > 0.0);
        assert_eq!(
            p.pruned_completions + p.vetoes,
            out.report.completed as u64,
            "every completion must prune or veto at threshold 0.001"
        );
        // The render path covers the all-pruned shape without panicking.
        let _ = out.report.render();
    }

    #[test]
    fn single_request_campaign_has_degenerate_percentiles() {
        let s = suite();
        let t = trace(&s, 1);
        let out = Server::new(
            &s,
            ServeConfig {
                hop_prune: HopPrune::with_threshold(0.001),
                ..batched_config(8)
            },
        )
        .serve(&t);
        assert_eq!(out.report.completed, 1);
        let l = &out.report.latency;
        assert_eq!(l.p50_s, l.p99_s);
        assert_eq!(l.p50_s, l.max_s);
        assert!(l.p50_s > 0.0);
        // A lone request forms a group of one: nothing fused, nothing saved.
        assert_eq!(out.report.batch.fused_groups, 0);
        assert_eq!(out.report.batch.cycles_saved, 0);
        let _ = out.report.render();
    }

    #[test]
    #[should_panic(expected = "invalid serve config")]
    fn zero_instances_rejected() {
        let s = suite();
        let _ = Server::new(
            &s,
            ServeConfig {
                instances: 0,
                ..ServeConfig::default()
            },
        );
    }
}
