//! Hostile-input properties of every outside-input knob (each [`Spec`]
//! impl), driven from one table with a row per knob.
//!
//! For every knob:
//!
//! 1. arbitrary strings and `key=value` soups, given inline and as a plan
//!    file, return `Ok` or a [`SpecError`] — never a panic — and each
//!    call finishes well inside a fixed deadline, long inputs included;
//! 2. an `Ok` value passes the knob's own checks (plans validate, every
//!    simulated time stays within [`SIM_HORIZON_S`], fault-event counts
//!    within [`MAX_FAULT_EVENTS`]);
//! 3. a knob with a `Display` round-trips through it;
//! 4. the known bad texts are rejected with the expected key and value,
//!    reported against the knob's own name.

use std::fmt::{Debug, Display};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mann_hw::MemIndexConfig;
use mann_serve::{
    EngineMode, FaultConfig, HopPrune, MembershipPlan, NumericPolicy, SchedulePolicy, Spec,
    SpecError, StoryCacheSize, WalConfig, MAX_FAULT_EVENTS, SIM_HORIZON_S,
};
use proptest::prelude::*;

/// One knob under test.
struct Knob {
    /// The knob's `Spec::NAME`.
    name: &'static str,
    /// Parses text and checks an `Ok` value; returns its shown form.
    parse: fn(&str) -> Result<String, SpecError>,
    /// Texts that must parse.
    valid: &'static [&'static str],
    /// `(text, key, value)`: texts that must be rejected with that key
    /// and value.
    invalid: &'static [(&'static str, &'static str, &'static str)],
}

/// Parses a knob with a `Display` and checks the round trip.
fn displayed<T: Spec + Display + PartialEq + Debug>(text: &str) -> Result<String, SpecError> {
    let v = T::parse(text)?;
    let shown = v.to_string();
    assert_eq!(
        T::parse(&shown).as_ref(),
        Ok(&v),
        "{text:?} shown as {shown:?}"
    );
    Ok(shown)
}

fn within_horizon(s: f64) -> bool {
    (0.0..=SIM_HORIZON_S).contains(&s)
}

fn fault(text: &str) -> Result<String, SpecError> {
    let c = FaultConfig::parse(text)?;
    c.validate().expect("a parsed plan validates");
    assert!([c.backoff_base_s, c.crash_cooldown_s, c.watchdog_s]
        .into_iter()
        .all(within_horizon));
    assert!(c.crashes <= MAX_FAULT_EVENTS && c.seus <= MAX_FAULT_EVENTS);
    Ok(format!("{c:?}"))
}

fn membership(text: &str) -> Result<String, SpecError> {
    let p = MembershipPlan::parse(text)?;
    p.validate().expect("a parsed plan validates");
    assert!(p.events.iter().all(|e| within_horizon(e.at_s)));
    Ok(format!("{p:?}"))
}

fn wal(text: &str) -> Result<String, SpecError> {
    let c = WalConfig::parse(text)?;
    c.validate().expect("a parsed spec validates");
    Ok(format!("{c:?}"))
}

const KNOBS: &[Knob] = &[
    Knob {
        name: "fault plan",
        parse: fault,
        valid: &[
            "seed=7,corrupt=0.05,retries=3,crashes=2,cooldown-us=300,watchdog-us=400,seus=4,\
             degrade-depth=8,degrade-margin=0.5",
            "crashes=1,watchdog-us=10000000,cooldown-us=10000000,backoff-us=10000000",
            "node-kills=1,",
            "crashes=100000,watchdog-us=400,seus=100000",
        ],
        invalid: &[
            ("crashes=1,watchdog-us=1e14", "watchdog-us", "1e14"),
            ("cooldown-us=1e300", "cooldown-us", "1e300"),
            ("backoff-us=-1", "backoff-us", "-1"),
            ("corupt=0.1", "corupt", "0.1"),
            ("corrupt=lots", "corrupt", "lots"),
            ("corrupt=1", "link_corrupt_prob", "1"),
            ("crashes=1", "watchdog_s", "0"),
            ("seed=1,retries", "retries", ""),
            ("retries=4294967296", "retries", "4294967296"),
            ("crashes=4294967295", "crashes", "4294967295"),
            ("seus=100001", "seus", "100001"),
        ],
    },
    Knob {
        name: "membership plan",
        parse: membership,
        valid: &[
            "join=3@800,drain=1@2000,fail=2@3000,retune-threshold=0.02,hot-key=9",
            "drain=0@10000000",
        ],
        invalid: &[
            ("drain=1", "drain", "1"),
            ("drain=x@5", "drain", "x"),
            ("evict=1@100", "evict", "1@100"),
            ("drain=1@0", "events", "0"),
            ("fail=1@1e8", "fail", "1e8"),
            ("drain=1@100,fail=1@200", "events", "1"),
            ("hot-key=1", "hot_key_threshold", "1"),
            ("retune-threshold=0.5,retune-factor=1", "retune_factor", "1"),
            ("retune-threshold=1.5", "retune-threshold", "1.5"),
        ],
    },
    Knob {
        name: "write-ahead log spec",
        parse: wal,
        valid: &[
            "",
            "off",
            "0",
            "/tmp/wal,snap=64,fsync-batch=4,fsync-us=10.5,replay-us=1",
        ],
        invalid: &[
            (",snap=4", "", ",snap=4"),
            ("/tmp/w,snap", "snap", ""),
            ("/tmp/w,snapshots=4", "snapshots", "4"),
            ("/tmp/w,snap=abc", "snap", "abc"),
            ("/tmp/w,fsync-batch=0", "fsync_batch", "0"),
            ("/tmp/w,fsync-us=-1", "fsync-us", "-1"),
            ("/tmp/w,replay-us=NaN", "replay-us", "NaN"),
        ],
    },
    Knob {
        name: "mem-index spec",
        parse: displayed::<MemIndexConfig>,
        valid: &["off", "64,8,0.5", "1,1,0", "32, 8, 0.4"],
        invalid: &[
            ("", "", ""),
            ("of", "", "of"),
            ("64", "", "64"),
            ("64,8", "", "64,8"),
            ("64,8,0.5,9", "", "64,8,0.5,9"),
            ("0,1,0", "k", "0"),
            ("8,0,0", "nprobe", "0"),
            ("8,9,0", "nprobe", "9"),
            ("8,4,-1", "band", "-1"),
            ("8,4,NaN", "band", "NaN"),
            ("8,4,inf", "band", "inf"),
            ("8,4,1e39", "band", "1e39"),
            ("x,4,0", "k", "x"),
            ("8,y,0", "nprobe", "y"),
            ("8,4,z", "band", "z"),
        ],
    },
    Knob {
        name: "hop-prune threshold",
        parse: displayed::<HopPrune>,
        valid: &["off", "0.9", "1", "0.001"],
        invalid: &[
            ("", "", ""),
            ("of", "", "of"),
            ("O.9", "", "O.9"),
            ("0", "", "0"),
            ("-0.5", "", "-0.5"),
            ("1.5", "", "1.5"),
            ("NaN", "", "NaN"),
            ("inf", "", "inf"),
            ("0.9x", "", "0.9x"),
        ],
    },
    Knob {
        name: "numeric policy",
        parse: displayed::<NumericPolicy>,
        valid: &["ignore", "flag", "failover"],
        invalid: &[("strict", "", "strict"), ("Failover", "", "Failover")],
    },
    Knob {
        name: "engine mode",
        parse: displayed::<EngineMode>,
        valid: &["serial", "parallel"],
        invalid: &[("paralel", "", "paralel"), ("", "", "")],
    },
    Knob {
        name: "schedule policy",
        parse: displayed::<SchedulePolicy>,
        valid: &[
            "rr",
            "round-robin",
            "sq",
            "shortest-queue",
            "af",
            "affinity",
            "story-affinity",
        ],
        invalid: &[("lifo", "", "lifo"), ("RR", "", "RR")],
    },
    Knob {
        name: "story cache size",
        parse: displayed::<StoryCacheSize>,
        valid: &["0", "8", "16"],
        invalid: &[
            ("sixteen", "", "sixteen"),
            ("-1", "", "-1"),
            ("1.5", "", "1.5"),
        ],
    },
];

/// How long one parse may take, however hostile the text.
const DEADLINE: Duration = Duration::from_secs(2);

/// Runs every knob on `text`; each call returns (no panic) in time.
fn parse_all(text: &str) {
    for knob in KNOBS {
        let start = Instant::now();
        let result = (knob.parse)(text);
        assert!(
            start.elapsed() < DEADLINE,
            "{} took {:?} on {} bytes",
            knob.name,
            start.elapsed(),
            text.len()
        );
        if let Err(e) = result {
            assert!(
                !e.reason.is_empty(),
                "{}: empty reason for {text:?}",
                knob.name
            );
        }
    }
}

/// Writes `contents` to a per-test plan file and parses its path.
fn parse_all_as_file(test: &str, contents: &str) {
    let path = plan_path(test);
    std::fs::write(&path, contents).expect("write plan file");
    parse_all(path.to_str().expect("utf-8 temp path"));
}

fn plan_path(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mann_spec_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join("plan.json")
}

/// Fragments arbitrary text is built from: separators, number shapes,
/// names the knobs know, and bytes a parser might trip on.
const TOKENS: &[&str] = &[
    "=",
    ",",
    "@",
    ".",
    "-",
    "+",
    "e",
    "E",
    "_",
    " ",
    "\t",
    "\n",
    "\0",
    "/",
    "\"",
    "{",
    "}",
    "[",
    "]",
    ":",
    "é",
    "∞",
    "0",
    "1",
    "7",
    "9",
    "00",
    "1e14",
    "1e300",
    "-1",
    "NaN",
    "inf",
    "off",
    "on",
    "dir",
    "flag",
    "serial",
    "rr",
    "drain",
    "seed",
    "watchdog-us",
    "snap",
    "4294967296",
    "18446744073709551616",
];

/// Every inline key any knob reads, plus near misses.
const KEYS: &[&str] = &[
    "seed",
    "corrupt",
    "retries",
    "backoff-us",
    "crashes",
    "cooldown-us",
    "watchdog-us",
    "seus",
    "degrade-depth",
    "degrade-margin",
    "node-kills",
    "drain",
    "fail",
    "join",
    "retune-threshold",
    "retune-factor",
    "hot-key",
    "snap",
    "fsync-batch",
    "fsync-us",
    "replay-us",
    "",
    "SEED",
    "evict",
    "seed ",
];

/// Values that probe every range rule and every value shape.
const VALUES: &[&str] = &[
    "",
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "0.5",
    "1.5",
    "1e14",
    "1e300",
    "-1e300",
    "1e-300",
    "NaN",
    "inf",
    "-inf",
    "10000000",
    "10000000.001",
    "4294967296",
    "18446744073709551616",
    "abc",
    "1@100",
    "3@1e300",
    "0@0",
    "1@-5",
    "2@10000000",
    "@",
    "1@",
    "@5",
    "1@2@3",
    "off",
];

/// Field names and JSON values for plan files.
const JSON_KEYS: &[&str] = &[
    "seed",
    "link_corrupt_prob",
    "max_retries",
    "backoff_base_s",
    "crashes",
    "crash_cooldown_s",
    "watchdog_s",
    "seus",
    "degrade_depth",
    "degrade_margin",
    "node_kills",
    "events",
    "retune_threshold",
    "retune_factor",
    "hot_key_threshold",
    "bogus",
];
const JSON_VALUES: &[&str] = &[
    "0",
    "1",
    "-1",
    "0.5",
    "1e300",
    "1e-300",
    "10",
    "10.000001",
    "true",
    "null",
    "\"x\"",
    "[]",
    "{}",
    "18446744073709551616",
    "4294967296",
    r#"[{"kind":"drain","shard":1,"at_s":0.001}]"#,
    r#"[{"kind":"fail","shard":0,"at_s":1e300}]"#,
    r#"[{"kind":"evict","shard":0,"at_s":1}]"#,
    r#"[{"kind":"join","shard":-1,"at_s":0.5}]"#,
];

fn text_from(tokens: &[usize]) -> String {
    tokens.iter().map(|&i| TOKENS[i]).collect()
}

fn soup_from(prefix: usize, items: &[(usize, usize)]) -> String {
    let head = ["", "dir,", "off,", "/tmp/wal,"][prefix];
    let body: Vec<String> = items
        .iter()
        .map(|&(k, v)| format!("{}={}", KEYS[k], VALUES[v]))
        .collect();
    format!("{head}{}", body.join(","))
}

fn json_from(items: &[(usize, usize)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|&(k, v)| format!("\"{}\": {}", JSON_KEYS[k], JSON_VALUES[v]))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[test]
fn known_texts_parse_and_round_trip() {
    for knob in KNOBS {
        for text in knob.valid {
            if let Err(e) = (knob.parse)(text) {
                panic!("{} rejected {text:?}: {e}", knob.name);
            }
        }
    }
}

#[test]
fn known_bad_texts_are_rejected_by_key_and_value() {
    for knob in KNOBS {
        for &(text, key, value) in knob.invalid {
            let e = (knob.parse)(text).expect_err(text);
            assert_eq!(e.knob, knob.name, "{text:?}");
            assert_eq!(
                (e.key.as_str(), e.value.as_str()),
                (key, value),
                "{}: {text:?} gave {e}",
                knob.name
            );
        }
    }
}

#[test]
fn long_inputs_parse_in_bounded_time() {
    let soup = vec!["seed=1"; 50_000].join(",");
    let junk = "1@".repeat(100_000);
    for text in [soup.as_str(), junk.as_str()] {
        parse_all(text);
    }
    parse_all_as_file(
        "long",
        &format!("{{{}}}", vec!["\"seed\": 1"; 50_000].join(",")),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text, inline and as a plan file.
    #[test]
    fn arbitrary_text_never_panics(
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..48)
    ) {
        let text = text_from(&tokens);
        parse_all(&text);
        parse_all_as_file("text", &text);
    }

    /// `key=value` soups over every known key and value shape, inline and
    /// as a plan file.
    #[test]
    fn key_value_soups_never_panic(
        prefix in 0usize..4,
        items in proptest::collection::vec((0..KEYS.len(), 0..VALUES.len()), 0..12)
    ) {
        let soup = soup_from(prefix, &items);
        parse_all(&soup);
        parse_all_as_file("soup", &soup);
    }

    /// JSON plan files with arbitrary fields and values.
    #[test]
    fn json_plan_files_never_panic(
        items in proptest::collection::vec((0..JSON_KEYS.len(), 0..JSON_VALUES.len()), 0..8)
    ) {
        parse_all_as_file("json", &json_from(&items));
    }
}
