//! The `serve` binary's command line: every malformed or unknown flag
//! exits with status 2 and a message, before any training, within a
//! deadline, and never panics or overflows its stack; and a one-shard
//! cluster serve is the single-node serve, byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a rejected invocation may run; a hang fails the test instead
/// of stalling it.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `serve` with `args` (and `env` set), killing it at the deadline;
/// returns the exit status and stderr.
fn run(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .envs(env.iter().copied())
        .env("MANN_SUITE_CACHE", "off")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve binary runs");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on serve") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve {args:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().expect("piped stderr"), &mut stderr)
        .expect("read stderr");
    (status.code(), stderr)
}

fn assert_usage_error_with_env(args: &[&str], env: &[(&str, &str)]) -> String {
    let (code, stderr) = run(args, env);
    assert_eq!(
        code,
        Some(2),
        "serve {args:?} must exit 2, stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "serve {args:?} panicked:\n{stderr}"
    );
    assert!(
        !stderr.contains("overflowed its stack"),
        "serve {args:?} overflowed its stack:\n{stderr}"
    );
    assert!(
        !stderr.contains("training"),
        "serve {args:?} trained before rejecting its flags:\n{stderr}"
    );
    stderr
}

fn assert_usage_error(args: &[&str]) -> String {
    assert_usage_error_with_env(args, &[])
}

/// Values that pass a naive parse but overflow the simulated clock, panic
/// the link model, or poison the datapath: each is named in the message.
#[test]
fn out_of_range_values_are_rejected_by_name() {
    for (args, name) in [
        (
            &["--fault-plan", "crashes=1,watchdog-us=1e14"][..],
            "watchdog-us",
        ),
        (&["--watchdog", "1e14"], "--watchdog"),
        (&["--fault-plan", "cooldown-us=1e300"], "cooldown-us"),
        (&["--link-gbps", "0"], "--link-gbps"),
        (&["--link-gbps", "NaN"], "--link-gbps"),
        (&["--link-gbps", "-1"], "--link-gbps"),
        (&["--link-gbps", "1e-12"], "--link-gbps"),
        (&["--rate-us", "1e300"], "--rate-us"),
        (&["--link-latency-us", "-5"], "--link-latency-us"),
        (&["--embed-scale", "NaN"], "--embed-scale"),
        (&["--embed-scale", "1e39"], "--embed-scale"),
        (
            &["--shards", "2", "--membership-plan", "drain=1@1e8"],
            "drain",
        ),
    ] {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains(name),
            "serve {args:?} must name {name}:\n{stderr}"
        );
    }
}

#[test]
fn malformed_environment_values_are_rejected_by_name() {
    for var in [
        "MANN_WAL",
        "MANN_STORY_CACHE",
        "MANN_SERVE_ENGINE",
        "MANN_NUMERIC_POLICY",
        "MANN_HOP_PRUNE",
        "MANN_MEM_INDEX",
    ] {
        let stderr = assert_usage_error_with_env(&[], &[(var, "dir,snap=x")]);
        assert!(stderr.contains(var), "{var} must be named:\n{stderr}");
    }
}

/// A typo or an unknown flag never falls back to a default serve.
#[test]
fn unknown_flags_are_rejected_by_name() {
    for (args, name) in [
        (&["--shard", "4"][..], "\"--shard\""),
        (&["--bogus"], "\"--bogus\""),
        (&["--tasks", "1", "stray"], "\"stray\""),
    ] {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains(name),
            "serve {args:?} must name {name}:\n{stderr}"
        );
    }
}

#[test]
fn zero_shards_or_replicas_are_rejected() {
    assert_usage_error(&["--shards", "0"]);
    assert_usage_error(&["--replication", "0"]);
    assert_usage_error(&["--shards", "2", "--replication", "3"]);
}

#[test]
fn non_positive_or_non_finite_rates_are_rejected() {
    for rate in ["0", "-5", "inf", "NaN", "abc"] {
        assert_usage_error(&["--rate-us", rate]);
    }
}

#[test]
fn malformed_numbers_and_names_are_rejected() {
    assert_usage_error(&["--instances", "abc"]);
    assert_usage_error(&["--requests", "-1"]);
    assert_usage_error(&["--policy", "fifo"]);
    assert_usage_error(&["--tasks", "abc"]);
}

#[test]
fn out_of_range_retry_budget_is_rejected() {
    assert_usage_error(&["--max-retries", "4294967296"]);
}

#[test]
fn flags_without_a_value_are_rejected() {
    for flag in [
        "--instances",
        "--policy",
        "--requests",
        "--rate-us",
        "--max-retries",
        "--shards",
        "--replication",
        "--fault-plan",
        "--tasks",
    ] {
        assert_usage_error(&[flag]);
    }
}

#[test]
fn plan_files_nested_past_the_parser_cap_are_rejected() {
    let dir = std::env::temp_dir().join(format!("mann_serve_cli_deep_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write deep plan");
    let path = path.to_str().expect("utf-8 temp path");
    assert_usage_error(&["--fault-plan", path]);
    assert_usage_error(&["--shards", "2", "--membership-plan", path]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh working directory for one serve run (the binary writes its
/// report under `target/experiments/` of its working directory).
fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mann_serve_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// Runs a serve to completion in `dir`; returns its stdout and the bytes
/// of the report file it wrote.
fn serve_in(dir: &Path, args: &[&str]) -> (String, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .current_dir(dir)
        .env("MANN_SUITE_CACHE", "off")
        .env_remove("MANN_WAL")
        .output()
        .expect("serve binary runs");
    assert!(
        out.status.success(),
        "serve {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read(dir.join("target/experiments/serve_report.json"))
        .expect("a one-shard serve writes serve_report.json");
    assert!(
        !dir.join("target/experiments/serve_cluster_report.json")
            .exists(),
        "a one-shard serve writes no cluster report"
    );
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), report)
}

/// `--shards 1 --replication 1` serves through the same path as a plain
/// serve and prints, writes and journals exactly what it does: the same
/// stdout, the same `serve_report.json` bytes, and a WAL directory that
/// replays as it stands (no per-shard subdirectories).
#[test]
fn one_shard_cluster_is_the_single_node_serve() {
    let base = [
        "--tasks",
        "1",
        "--train",
        "24",
        "--test",
        "8",
        "--requests",
        "48",
        "--policy",
        "affinity",
        "--pool",
        "3",
        "--fault-plan",
        "seed=3,crashes=1,cooldown-us=300,watchdog-us=400",
    ];
    for wal in [false, true] {
        let with = |extra: &[&'static str]| {
            let mut args = base.to_vec();
            if wal {
                args.extend(["--wal-dir", "wal", "--snapshot-every", "16"]);
            }
            args.extend(extra);
            args
        };
        let plain_dir = work_dir(&format!("plain_{wal}"));
        let k1_dir = work_dir(&format!("k1_{wal}"));
        let plain = serve_in(&plain_dir, &with(&[]));
        let k1 = serve_in(&k1_dir, &with(&["--shards", "1", "--replication", "1"]));
        assert_eq!(k1.0, plain.0, "stdout differs (wal {wal})");
        assert_eq!(k1.1, plain.1, "serve_report.json differs (wal {wal})");
        if wal {
            for dir in [&plain_dir, &k1_dir] {
                let replay = mann_store::replay_dir(&dir.join("wal"))
                    .unwrap_or_else(|e| panic!("{} must replay: {e}", dir.display()));
                assert!(
                    replay.replayed_records > 0,
                    "{} replayed nothing",
                    dir.display()
                );
            }
        }
        for dir in [plain_dir, k1_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
