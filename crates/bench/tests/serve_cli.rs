//! The `serve` binary's usage errors: every malformed flag exits with
//! status 2 and a message, before any training, and never panics or
//! overflows its stack.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .env("MANN_SUITE_CACHE", "off")
        .output()
        .expect("serve binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
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
