//! Outside input: one parsing layer for every serve knob.
//!
//! Every value that reaches the serve stack from outside the process — a
//! CLI flag, an environment variable, an inline `key=value` spec or a
//! JSON plan file — is read through a [`Spec`] impl. The trait owns the
//! knob's name (used in every message), its environment variable and the
//! one `from_env` body. The helpers here split `key=value` lists, choose
//! between a plan file and an inline spec, and parse each value kind with
//! its range check, so a knob keeps only its own key table and its
//! cross-field `validate`. Every failure is one [`SpecError`] naming the
//! knob, the key and the rejected text.
//!
//! Simulated-time durations and instants taken from outside are bounded
//! by [`SIM_HORIZON_S`], which keeps every sum the event loop forms on
//! the picosecond clock inside `u64`.

use std::fmt;
use std::str::FromStr;

use mann_hw::{MemIndexConfig, DEFAULT_STORY_CACHE};
use mann_ith::HopPrune;
use serde::Deserialize;

/// The longest simulated duration, and the latest simulated instant,
/// accepted from outside: 10 s.
///
/// The event loop adds durations to the current instant on the `u64`
/// picosecond clock, and the largest product it forms is the
/// retransmission backoff `backoff_base_s · 2^min(attempt, 20)`. At the
/// horizon that product is 10 s · 2^20 ≈ 1.05e19 ps, which leaves
/// ~7.9e18 ps (~91 simulated days) of `u64::MAX` for the instant it is
/// added to.
pub const SIM_HORIZON_S: f64 = 10.0;

/// The slowest host-link bandwidth accepted from outside: 1 MB/s.
///
/// At this floor a 10 MB upload — a story of 2.5 million words, far past
/// any the generator builds — streams in exactly [`SIM_HORIZON_S`], so one
/// story upload always fits inside the horizon. Slower links only push
/// every request past it (`--link-gbps 1e-12` reports a makespan of
/// ~14 simulated days).
pub const MIN_LINK_BYTES_PER_S: f64 = 1e6;

/// The most crash events, and the most SEU events, one fault plan may
/// schedule: 100,000 each.
///
/// A materialized plan holds one entry per event, so an unbounded count
/// from outside would size that allocation directly (`seus=4294967295`
/// asks for ~100 GB). A campaign this dense is already far past any
/// plausible fault rate over the [`SIM_HORIZON_S`] horizon.
pub const MAX_FAULT_EVENTS: u32 = 100_000;

/// Why a piece of outside text was not a valid knob value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Where the text came from: the knob's [`Spec::NAME`], its
    /// environment variable, or the CLI flag that carried it.
    pub knob: &'static str,
    /// The offending key or field; empty when the whole text was rejected.
    pub key: String,
    /// The rejected text (for a field check, the field's value).
    pub value: String,
    /// Why it was rejected.
    pub reason: String,
}

impl SpecError {
    /// An error about `value` of `key` in `knob`.
    pub(crate) fn new(
        knob: &'static str,
        key: impl Into<String>,
        value: impl fmt::Display,
        reason: impl Into<String>,
    ) -> Self {
        Self {
            knob,
            key: key.into(),
            value: value.to_string(),
            reason: reason.into(),
        }
    }

    /// The same error, reported against `source` (an environment variable
    /// or a CLI flag) instead of the knob's own name.
    #[must_use]
    pub fn from_source(self, source: &'static str) -> Self {
        Self {
            knob: source,
            ..self
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}", self.knob)?;
        if !self.key.is_empty() {
            write!(f, " key {}", self.key)?;
        }
        write!(f, " {:?}: {}", self.value, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// A serve knob that can be read from outside text.
pub trait Spec: Sized + Default {
    /// The knob's name in messages.
    const NAME: &'static str;
    /// The environment variable that sets the knob, if any.
    const ENV: Option<&'static str> = None;

    /// Parses outside text into a valid knob value.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first bad key and value.
    fn parse(text: &str) -> Result<Self, SpecError>;

    /// The knob from [`Spec::ENV`], or its default when the variable is
    /// unset. A set but malformed value is an error, never a silent
    /// fallback.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] reported against the variable.
    fn from_env() -> Result<Self, SpecError> {
        match Self::ENV.map(|var| (var, std::env::var(var))) {
            Some((var, Ok(text))) => Self::parse(&text).map_err(|e| e.from_source(var)),
            _ => Ok(Self::default()),
        }
    }
}

/// A range rule: the value back, or why it is out of range.
pub type Rule = fn(f64) -> Result<f64, String>;

/// `Ok(v)` when `ok`, else `reason`.
fn rule(ok: bool, v: f64, reason: impl Into<String>) -> Result<f64, String> {
    if ok {
        Ok(v)
    } else {
        Err(reason.into())
    }
}

/// A finite number `>= 0`.
pub(crate) fn non_negative(v: f64) -> Result<f64, String> {
    rule(v.is_finite() && v >= 0.0, v, "must be a finite number >= 0")
}

/// A finite number.
pub fn finite(v: f64) -> Result<f64, String> {
    rule(v.is_finite(), v, "must be a finite number")
}

/// A finite number `> 0`.
pub fn positive(v: f64) -> Result<f64, String> {
    rule(v.is_finite() && v > 0.0, v, "must be a finite number > 0")
}

/// A probability in `[0, 1]`.
pub(crate) fn probability(v: f64) -> Result<f64, String> {
    rule(
        (0.0..=1.0).contains(&v),
        v,
        "must be a probability in [0, 1]",
    )
}

/// A simulated-time duration or instant in seconds, within
/// [`SIM_HORIZON_S`].
pub(crate) fn duration_s(s: f64) -> Result<f64, String> {
    rule(
        (0.0..=SIM_HORIZON_S).contains(&s),
        s,
        format!("must be a simulated time between 0 and the {SIM_HORIZON_S} s horizon"),
    )
}

/// A simulated-time interval given in microseconds (returned unchanged):
/// above 0 and at most [`SIM_HORIZON_S`].
pub fn interval_us(us: f64) -> Result<f64, String> {
    rule(
        us > 0.0 && us * 1e-6 <= SIM_HORIZON_S,
        us,
        format!("must be a simulated time above 0 and within the {SIM_HORIZON_S} s horizon"),
    )
}

/// A host-link bandwidth in bytes per second: finite and at least
/// [`MIN_LINK_BYTES_PER_S`].
pub fn link_bandwidth(bytes_per_s: f64) -> Result<f64, String> {
    rule(
        bytes_per_s.is_finite() && bytes_per_s >= MIN_LINK_BYTES_PER_S,
        bytes_per_s,
        format!(
            "must be a finite bandwidth of at least {MIN_LINK_BYTES_PER_S} B/s \
             (0.001 GB/s), so one story upload fits the {SIM_HORIZON_S} s horizon"
        ),
    )
}

/// A fault-event count within [`MAX_FAULT_EVENTS`].
pub(crate) fn event_count(n: f64) -> Result<f64, String> {
    rule(
        n <= f64::from(MAX_FAULT_EVENTS),
        n,
        format!("must be at most {MAX_FAULT_EVENTS} events per plan"),
    )
}

/// Checks field `key` of `knob` against `rule`; the `validate` half of
/// the range checks.
///
/// # Errors
///
/// Returns a [`SpecError`] carrying the field's value.
pub(crate) fn check(
    knob: &'static str,
    key: &str,
    value: f64,
    rule: Rule,
) -> Result<(), SpecError> {
    rule(value)
        .map(drop)
        .map_err(|reason| SpecError::new(knob, key, value, reason))
}

/// One piece of outside text: a `key=value` item of an inline spec, or
/// the value of a single-valued knob (empty key). Its parsers are the
/// parse half of the range checks.
#[derive(Debug, Clone, Copy)]
pub struct Field<'a> {
    /// The knob or flag the text belongs to.
    pub knob: &'static str,
    /// The key (empty for a single-valued knob).
    pub key: &'a str,
    /// The raw value text.
    pub value: &'a str,
}

impl<'a> Field<'a> {
    /// A single-valued field of `knob`.
    pub fn new(knob: &'static str, value: &'a str) -> Self {
        Self {
            knob,
            key: "",
            value,
        }
    }

    /// An error about this field.
    pub fn err(&self, reason: impl Into<String>) -> SpecError {
        SpecError::new(self.knob, self.key, self.value, reason)
    }

    /// The same key carrying another piece of text.
    #[must_use]
    pub fn with_value(self, value: &'a str) -> Self {
        Self { value, ..self }
    }

    /// The text parsed as `T`, or an error saying what was `expected`.
    fn parsed<T: FromStr>(&self, expected: &str) -> Result<T, SpecError> {
        self.value.trim().parse().map_err(|_| self.err(expected))
    }

    /// A non-negative integer that fits `T`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for anything else.
    pub fn count<T: FromStr>(&self) -> Result<T, SpecError> {
        self.parsed("expected a non-negative integer")
    }

    /// A number of type `T` (`f32` or `f64`), finite or not.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the text is not a number.
    pub fn number<T: FromStr>(&self) -> Result<T, SpecError> {
        self.parsed("expected a number")
    }

    /// A number of type `T` that passes `rule`, widened to `f64` (an
    /// `f32` narrows back exactly).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the text is not a number or breaks
    /// the rule.
    pub fn ranged<T: FromStr + Into<f64>>(&self, rule: Rule) -> Result<f64, SpecError> {
        rule(self.number::<T>()?.into()).map_err(|reason| self.err(reason))
    }

    /// A duration given in microseconds, returned in seconds, within
    /// [`SIM_HORIZON_S`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the text is not a number or the
    /// duration is negative, non-finite or past the horizon.
    pub fn micros(&self) -> Result<f64, SpecError> {
        duration_s(self.number::<f64>()? * 1e-6).map_err(|reason| self.err(reason))
    }

    /// The value read as knob `T`, reported against this field's knob.
    ///
    /// # Errors
    ///
    /// Returns the knob's [`SpecError`].
    pub fn spec<T: Spec>(&self) -> Result<T, SpecError> {
        T::parse(self.value).map_err(|e| e.from_source(self.knob))
    }
}

/// How one key of an inline spec lands in its knob.
pub type Setter<T> = fn(&mut T, Field<'_>) -> Result<(), SpecError>;

/// Applies a comma-separated `key=value` list to `out` through `keys`.
/// Empty items are skipped; an item without `=` or with a key not in the
/// table is an error.
///
/// # Errors
///
/// Returns the first item's [`SpecError`].
pub(crate) fn apply_pairs<T>(
    knob: &'static str,
    text: &str,
    keys: &[(&str, Setter<T>)],
    out: &mut T,
) -> Result<(), SpecError> {
    for item in text.split(',').map(str::trim).filter(|i| !i.is_empty()) {
        let Some((key, value)) = item.split_once('=') else {
            return Err(SpecError::new(knob, item, "", "expected key=value"));
        };
        let field = Field {
            knob,
            key: key.trim(),
            value: value.trim(),
        };
        let Some((_, set)) = keys.iter().find(|(k, _)| *k == field.key) else {
            let known: Vec<&str> = keys.iter().map(|(k, _)| *k).collect();
            return Err(field.err(format!("unknown key; expected one of {}", known.join(", "))));
        };
        set(out, field)?;
    }
    Ok(())
}

/// Reads a plan knob: an inline `key=value` list through `keys` when the
/// text contains `=`, otherwise the JSON file at that path (omitted
/// fields keep their defaults). The caller validates the result.
///
/// # Errors
///
/// Returns a [`SpecError`] for a bad item, an unreadable file or
/// malformed JSON.
pub(crate) fn inline_or_file<T: Spec + Deserialize>(
    text: &str,
    keys: &[(&str, Setter<T>)],
) -> Result<T, SpecError> {
    if text.contains('=') {
        let mut out = T::default();
        apply_pairs(T::NAME, text, keys, &mut out)?;
        return Ok(out);
    }
    let json = std::fs::read_to_string(text)
        .map_err(|e| SpecError::new(T::NAME, "", text, format!("cannot read plan file: {e}")))?;
    serde_json::from_str(&json)
        .map_err(|e| SpecError::new(T::NAME, "", text, format!("cannot parse plan file: {e}")))
}

/// Reads one of a fixed set of names.
///
/// # Errors
///
/// Returns a [`SpecError`] listing the accepted names.
pub(crate) fn one_of<T: Copy>(
    knob: &'static str,
    text: &str,
    names: &[(&str, T)],
) -> Result<T, SpecError> {
    names
        .iter()
        .find(|(name, _)| *name == text)
        .map(|&(_, v)| v)
        .ok_or_else(|| {
            let known: Vec<String> = names.iter().map(|(n, _)| format!("`{n}`")).collect();
            SpecError::new(
                knob,
                "",
                text,
                format!("expected one of {}", known.join(", ")),
            )
        })
}

/// The per-instance resident-story capacity (`--story-cache`,
/// `MANN_STORY_CACHE`); 0 disables caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoryCacheSize(pub usize);

impl Default for StoryCacheSize {
    fn default() -> Self {
        Self(DEFAULT_STORY_CACHE)
    }
}

impl fmt::Display for StoryCacheSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Spec for StoryCacheSize {
    const NAME: &'static str = "story cache size";
    const ENV: Option<&'static str> = Some("MANN_STORY_CACHE");

    fn parse(text: &str) -> Result<Self, SpecError> {
        Field::new(Self::NAME, text).count().map(Self)
    }
}

impl Spec for HopPrune {
    const NAME: &'static str = "hop-prune threshold";
    const ENV: Option<&'static str> = Some("MANN_HOP_PRUNE");

    /// `off`, or a convergence threshold in `(0, 1]`.
    fn parse(text: &str) -> Result<Self, SpecError> {
        if text == "off" {
            return Ok(Self::default());
        }
        let field = Field::new(Self::NAME, text);
        match field.number::<f32>()? {
            t if t > 0.0 && t <= 1.0 => Ok(Self::with_threshold(t)),
            _ => Err(field.err("expected `off` or a threshold in (0, 1]")),
        }
    }
}

impl Spec for MemIndexConfig {
    const NAME: &'static str = "mem-index spec";
    const ENV: Option<&'static str> = Some("MANN_MEM_INDEX");

    /// `off`, or `k,nprobe,band` with `k >= 1`, `1 <= nprobe <= k` and a
    /// finite `band >= 0`.
    fn parse(text: &str) -> Result<Self, SpecError> {
        if text == "off" {
            return Ok(Self::default());
        }
        let parts: Vec<&str> = text.split(',').collect();
        let [k, nprobe, band] = parts.as_slice() else {
            return Err(SpecError::new(
                Self::NAME,
                "",
                text,
                "expected `off` or `k,nprobe,band`",
            ));
        };
        let [k_field, nprobe_field, band] =
            [("k", k), ("nprobe", nprobe), ("band", band)].map(|(key, value)| Field {
                knob: Self::NAME,
                key,
                value,
            });
        let k: usize = k_field.count()?;
        if k < 1 {
            return Err(k_field.err("must be at least 1"));
        }
        let nprobe: usize = nprobe_field.count()?;
        if !(1..=k).contains(&nprobe) {
            return Err(nprobe_field.err(format!("must be in 1..={k}")));
        }
        let band = band.ranged::<f32>(non_negative)? as f32;
        Ok(Self::with_params(k, nprobe, band))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_defaults_when_unset() {
        // Set/invalid paths go through `parse`; mutating the process
        // environment would race other tests.
        if std::env::var("MANN_HOP_PRUNE").is_err() {
            assert_eq!(HopPrune::from_env(), Ok(HopPrune::default()));
        }
        if std::env::var("MANN_MEM_INDEX").is_err() {
            assert_eq!(MemIndexConfig::from_env(), Ok(MemIndexConfig::default()));
        }
        if std::env::var("MANN_STORY_CACHE").is_err() {
            assert_eq!(StoryCacheSize::from_env(), Ok(StoryCacheSize(16)));
        }
    }

    #[test]
    fn errors_name_knob_key_and_value() {
        let e = Field {
            knob: "fault plan",
            key: "watchdog-us",
            value: "1e14",
        }
        .micros()
        .unwrap_err();
        assert_eq!((e.key.as_str(), e.value.as_str()), ("watchdog-us", "1e14"));
        let text = e.from_source("--fault-plan").to_string();
        assert!(
            text.starts_with("invalid --fault-plan key watchdog-us \"1e14\": "),
            "{text}"
        );
    }

    #[test]
    fn durations_stop_at_the_horizon() {
        let us = |v: &str| Field::new("t", v).micros();
        assert_eq!(us("0"), Ok(0.0));
        assert_eq!(us(&(SIM_HORIZON_S * 1e6).to_string()), Ok(SIM_HORIZON_S));
        for bad in ["10000000.001", "1e14", "1e300", "-1", "NaN", "inf", "-inf"] {
            assert!(us(bad).is_err(), "{bad} must be rejected");
        }
        assert!(duration_s(f64::from_bits(SIM_HORIZON_S.to_bits() + 1)).is_err());
    }

    #[test]
    fn intervals_and_bandwidths_stop_at_the_horizon() {
        assert_eq!(interval_us(80.0), Ok(80.0));
        assert_eq!(interval_us(SIM_HORIZON_S * 1e6), Ok(SIM_HORIZON_S * 1e6));
        for bad in [0.0, -5.0, 1.000_001e7, 1e300, f64::NAN, f64::INFINITY] {
            assert!(interval_us(bad).is_err(), "{bad} us must be rejected");
        }
        assert_eq!(link_bandwidth(1.5e9), Ok(1.5e9));
        assert_eq!(
            link_bandwidth(MIN_LINK_BYTES_PER_S),
            Ok(MIN_LINK_BYTES_PER_S)
        );
        for bad in [0.0, -1.0, 1e-3, 999_999.0, f64::NAN, f64::INFINITY] {
            assert!(link_bandwidth(bad).is_err(), "{bad} B/s must be rejected");
        }
        // At the floor, a 10 MB upload takes the whole horizon.
        assert_eq!(1e7 / MIN_LINK_BYTES_PER_S, SIM_HORIZON_S);
    }
}
