//! Every optional report section at once.
//!
//! Each lever (fault campaign, numeric policy, batch fusion, hop pruning,
//! candidate index, write-ahead log, live membership) adds one section to
//! the report, and each section's key is absent while its lever is off.
//! The golden fixtures arm at most two levers per campaign, so this test
//! pins the combined shape: with every lever on, the JSON keys come out in
//! one fixed order in both the node and the fleet layout of the one
//! report type, both round-trip through their JSON form unchanged, and
//! the text render carries every section's table in the same order.

use std::path::PathBuf;
use std::sync::OnceLock;

use mann_babi::TaskId;
use mann_core::{SuiteConfig, TaskSuite};
use mann_hw::MemIndexConfig;
use mann_serve::{
    serve_cluster_durable, serve_durable, ArrivalTrace, Cluster, ClusterConfig, FaultConfig,
    HopPrune, MembershipPlan, NumericPolicy, SchedulePolicy, ServeConfig, ServeReport, Server,
    Spec, TraceConfig, WalConfig,
};
use serde::{Deserialize, Serialize};

/// Report keys every serve emits, in emission order.
const CORE_KEYS: [&str; 17] = [
    "requests",
    "completed",
    "rejected",
    "accuracy",
    "makespan_s",
    "throughput_rps",
    "latency",
    "mean_queue_wait_s",
    "max_queue_depth",
    "instances",
    "link",
    "cache",
    "phase_totals",
    "speculated",
    "total_energy_j",
    "setup_s",
    "answers_digest",
];

/// The optional sections shared by both reports, in emission order, with
/// the header of the table each one renders.
const SECTIONS: [(&str, &str); 6] = [
    ("fault", "fault metric"),
    ("numeric", "numeric metric"),
    ("batch", "batch metric"),
    ("prune", "prune metric"),
    ("index", "index metric"),
    ("durability", "durability metric"),
];

fn suite() -> &'static TaskSuite {
    static SUITE: OnceLock<TaskSuite> = OnceLock::new();
    SUITE.get_or_init(|| {
        TaskSuite::build(&SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 100,
            test_samples: 12,
            seed: 5,
            ..SuiteConfig::quick()
        })
    })
}

fn trace() -> ArrivalTrace {
    ArrivalTrace::generate(
        &TraceConfig {
            requests: 160,
            seed: 21,
            mean_interarrival_s: 40e-6,
            story_pool: 6,
        },
        suite(),
    )
}

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mann_serve_all_sections_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every single-node lever armed at once.
fn all_levers(wal: &std::path::Path) -> ServeConfig {
    ServeConfig {
        instances: 2,
        queue_capacity: 128,
        story_cache: 4,
        policy: SchedulePolicy::StoryAffinity,
        faults: FaultConfig::from_arg(
            "seed=7,corrupt=0.05,retries=3,crashes=2,cooldown-us=300,watchdog-us=400,\
             seus=4,degrade-depth=8,degrade-margin=0.5",
        )
        .expect("valid fault spec"),
        numeric_policy: NumericPolicy::Flag,
        batch_window: 4,
        hop_prune: HopPrune::parse("0.8").expect("valid prune threshold"),
        mem_index: MemIndexConfig::parse("4,2,0.4").expect("valid index spec"),
        wal: WalConfig::parse(wal.to_str().expect("utf-8 temp dir")).expect("valid WAL spec"),
        ..ServeConfig::default()
    }
}

fn keys(v: &serde_json::Value) -> Vec<String> {
    match v {
        serde_json::Value::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("report must serialize to an object, got {other:?}"),
    }
}

/// Asserts that `render` holds each header once, in the given order.
fn assert_tables_in_order(render: &str, headers: &[&str]) {
    let mut last = 0;
    for h in headers {
        let at = render
            .find(h)
            .unwrap_or_else(|| panic!("render lacks the {h:?} table:\n{render}"));
        assert!(at >= last, "{h:?} table rendered out of order:\n{render}");
        last = at;
    }
}

#[test]
fn single_node_report_emits_every_section_in_order() {
    let dir = wal_dir("node");
    let server = Server::new(suite(), all_levers(&dir));
    let r = serve_durable(&server, &trace())
        .expect("durable serve succeeds")
        .report;
    let _ = std::fs::remove_dir_all(&dir);

    let v = r.to_value();
    let expected: Vec<&str> = CORE_KEYS
        .iter()
        .copied()
        .chain(SECTIONS.iter().map(|&(k, _)| k))
        .collect();
    assert_eq!(keys(&v), expected);
    assert_eq!(ServeReport::from_value(&v).expect("report parses back"), r);

    let headers: Vec<&str> = SECTIONS.iter().map(|&(_, h)| h).collect();
    assert_tables_in_order(&r.render(), &headers);
}

#[test]
fn cluster_report_emits_every_section_in_order() {
    let dir = wal_dir("cluster");
    let config = ClusterConfig {
        shards: 4,
        replication: 2,
        membership: MembershipPlan::parse("drain=1@2000").expect("valid membership spec"),
        base: all_levers(&dir),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(suite(), config);
    let r = serve_cluster_durable(&cluster, &trace())
        .expect("durable cluster serve succeeds")
        .report;
    let _ = std::fs::remove_dir_all(&dir);

    let v = r.to_value();
    let expected: Vec<&str> = [
        "shards",
        "replication",
        "requests",
        "completed",
        "rejected",
        "shed",
        "accuracy",
        "makespan_s",
        "throughput_rps",
        "latency",
        "mean_queue_wait_s",
        "max_queue_depth",
        "failover",
        "cache",
        "link",
        "phase_totals",
        "speculated",
        "total_energy_j",
        "setup_s",
        "answers_digest",
    ]
    .into_iter()
    .chain(SECTIONS.iter().map(|&(k, _)| k))
    .chain(["membership", "per_shard"])
    .collect();
    assert_eq!(keys(&v), expected);
    assert_eq!(
        ServeReport::from_value(&v).expect("fleet report parses back"),
        r
    );
    for shard in &r.per_shard {
        let sv = shard.to_value();
        assert_eq!(
            ServeReport::from_value(&sv).expect("shard report parses back"),
            *shard
        );
    }

    let headers: Vec<&str> = SECTIONS
        .iter()
        .map(|&(_, h)| h)
        .chain(["membership", "cache hit rate"])
        .collect();
    assert_tables_in_order(&r.render(), &headers);
}
