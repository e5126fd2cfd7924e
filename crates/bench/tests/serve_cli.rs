//! The `serve` binary's usage errors: every malformed flag exits with
//! status 2 and a message, before any training, within a deadline, and
//! never panics or overflows its stack.

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
