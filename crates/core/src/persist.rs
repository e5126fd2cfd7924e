//! Saving and loading trained models and calibrations.
//!
//! The paper's workflow ships a *pre-trained* model to the accelerator;
//! this module provides the equivalent artifact: a JSON bundle of the
//! trained weights, the encoder (vocabulary), and the calibrated
//! thresholding model, loadable by the `infer` binary or downstream users.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use mann_ith::ThresholdingModel;
use memn2n::TrainedModel;
use serde::{Deserialize, Serialize};

use crate::{SuiteConfig, TaskSuite};

/// A deployable model artifact: weights + encoder + thresholds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBundle {
    /// The trained model (weights and encoder).
    pub model: TrainedModel,
    /// The calibrated thresholding model (Steps 1–3 of Algorithm 1).
    pub ith: ThresholdingModel,
    /// Exhaustive test accuracy recorded at training time.
    pub test_accuracy: f32,
}

/// Errors from bundle (de)serialization.
#[derive(Debug, thiserror::Error)]
pub enum PersistError {
    /// Filesystem failure.
    #[error("bundle io error: {0}")]
    Io(#[from] io::Error),
    /// Malformed JSON or schema mismatch.
    #[error("bundle format error: {0}")]
    Format(#[from] serde_json::Error),
    /// Durable-store failure (WAL, snapshot, or recovery).
    #[error("store error: {0}")]
    Store(#[from] mann_store::StoreError),
}

impl ModelBundle {
    /// Builds a bundle from a trained task (cloning its artifacts).
    pub fn from_trained_task(task: &crate::TrainedTask) -> Self {
        Self {
            model: task.model.clone(),
            ith: task.ith.clone(),
            test_accuracy: task.test_accuracy,
        }
    }

    /// Writes the bundle as JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let json = serde_json::to_string(self)?;
        fs::write(path, json)?;
        Ok(())
    }

    /// Reads a bundle back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] when the file is missing or malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let json = fs::read_to_string(path)?;
        Ok(serde_json::from_str(&json)?)
    }
}

/// Writes any serializable report as pretty-printed JSON, creating parent
/// directories as needed. The experiment and serving binaries share this
/// for their `target/experiments/*.json` artifacts.
///
/// # Errors
///
/// Returns [`PersistError`] on filesystem or serialization failure.
pub fn write_json_report<T: Serialize>(
    path: impl AsRef<Path>,
    value: &T,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let json = serde_json::to_string_pretty(value)?;
    fs::write(path, json)?;
    Ok(())
}

/// A disk-backed cache of trained suites, keyed by a hash of the generating
/// [`SuiteConfig`] (plus a build-variant tag, so per-task and joint builds
/// of the same config do not collide).
///
/// Training dominates every experiment binary's runtime; `table1`, `fig3`,
/// `fig4` and `ablation` all consume the *same* trained suite, so the first
/// binary to run trains it and the rest load it. A load costs a fraction of
/// a rebuild: on a 2-vCPU Xeon, 0.04 s against 0.16 s for a 1 MB ten-task
/// quick suite, and 0.17 s against 2.75 s for a 4 MB twenty-task suite
/// with 1000 training samples per task. Suites are stored as one JSON file
/// per key under the cache directory. A cache hit is only returned when the
/// stored config equals the requested one, so a hash collision, a stale
/// schema or a truncated or corrupt file degrades to a rebuild, never to
/// wrong results.
#[derive(Debug, Clone)]
pub struct SuiteCache {
    dir: PathBuf,
}

impl SuiteCache {
    /// Default cache location, relative to the working directory.
    pub const DEFAULT_DIR: &'static str = "target/suite-cache";

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache configured by the `MANN_SUITE_CACHE` environment variable:
    /// unset uses [`SuiteCache::DEFAULT_DIR`]; `0`, `off`, or the empty
    /// string disables caching (`None`); anything else is the directory.
    pub fn from_env() -> Option<Self> {
        match std::env::var("MANN_SUITE_CACHE") {
            Err(_) => Some(Self::new(Self::DEFAULT_DIR)),
            Ok(v) => {
                let v = v.trim().to_owned();
                if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
                    None
                } else {
                    Some(Self::new(v))
                }
            }
        }
    }

    /// The cache key for `config` built as `variant` (e.g. `"per-task"` or
    /// `"joint"`): an FNV-1a hash of the serialized config.
    ///
    /// # Panics
    ///
    /// Panics if the config fails to serialize (it never does).
    pub fn config_key(config: &SuiteConfig, variant: &str) -> String {
        let json = serde_json::to_string(config).expect("config serializes");
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in json.bytes().chain(variant.bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("suite-{hash:016x}")
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the suite cached under `(config, variant)`, if present, valid,
    /// and generated by an identical config.
    pub fn load(&self, config: &SuiteConfig, variant: &str) -> Option<TaskSuite> {
        let path = self.path_for(&Self::config_key(config, variant));
        let json = fs::read_to_string(path).ok()?;
        let suite: TaskSuite = serde_json::from_str(&json).ok()?;
        (suite.config == *config).then_some(suite)
    }

    /// Stores `suite` under `(suite.config, variant)`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn store(&self, suite: &TaskSuite, variant: &str) -> Result<(), PersistError> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(&Self::config_key(&suite.config, variant));
        let json = serde_json::to_string(suite)?;
        fs::write(path, json)?;
        Ok(())
    }

    /// Loads the cached suite or builds it with `build` and stores the
    /// result (best effort — a failed store still returns the suite).
    pub fn load_or_build(
        &self,
        config: &SuiteConfig,
        variant: &str,
        build: impl FnOnce(&SuiteConfig) -> TaskSuite,
    ) -> TaskSuite {
        if let Some(suite) = self.load(config, variant) {
            return suite;
        }
        let suite = build(config);
        let _ = self.store(&suite, variant);
        suite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mann_babi::TaskId;

    fn bundle() -> ModelBundle {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::AgentMotivations],
            train_samples: 60,
            test_samples: 10,
            ..SuiteConfig::quick()
        };
        let suite = TaskSuite::build(&cfg);
        ModelBundle::from_trained_task(&suite.tasks[0])
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let b = bundle();
        let dir = std::env::temp_dir().join("mann_accel_persist_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("bundle.json");
        b.save(&path).expect("save");
        let back = ModelBundle::load(&path).expect("load");
        assert_eq!(b, back);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn loading_missing_file_reports_io_error() {
        let err = ModelBundle::load("/nonexistent/mann/bundle.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("io error"));
    }

    #[test]
    fn suite_cache_round_trips_and_validates_config() {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::AgentMotivations],
            train_samples: 50,
            test_samples: 8,
            ..SuiteConfig::quick()
        };
        let dir = std::env::temp_dir().join("mann_accel_suite_cache_test");
        let _ = fs::remove_dir_all(&dir);
        let cache = SuiteCache::new(&dir);

        assert!(cache.load(&cfg, "per-task").is_none(), "cold cache");
        let built = cache.load_or_build(&cfg, "per-task", TaskSuite::build);
        let cached = cache.load(&cfg, "per-task").expect("warm cache");
        assert_eq!(cached, built);

        // A different config (or variant) misses.
        let mut other = cfg.clone();
        other.seed += 1;
        assert!(cache.load(&other, "per-task").is_none());
        assert!(cache.load(&cfg, "joint").is_none());
        // Distinct keys for distinct configs/variants.
        assert_ne!(
            SuiteCache::config_key(&cfg, "per-task"),
            SuiteCache::config_key(&other, "per-task")
        );
        assert_ne!(
            SuiteCache::config_key(&cfg, "per-task"),
            SuiteCache::config_key(&cfg, "joint")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_cache_files_degrade_to_a_rebuild() {
        let cfg = SuiteConfig {
            tasks: vec![TaskId::AgentMotivations],
            train_samples: 40,
            test_samples: 6,
            seed: 3,
            ..SuiteConfig::quick()
        };
        let dir = std::env::temp_dir().join("mann_accel_suite_cache_hostile_test");
        let _ = fs::remove_dir_all(&dir);
        let cache = SuiteCache::new(&dir);
        let expected = TaskSuite::build(&cfg);
        cache.store(&expected, "per-task").expect("store");
        let path = cache.path_for(&SuiteCache::config_key(&cfg, "per-task"));
        let good = fs::read_to_string(&path).expect("read cache file");

        let truncated = good[..good.len() / 2].to_owned();
        // A file written before `SuiteConfig::story_sentences` existed.
        let stale = good.replacen("\"story_sentences\":0,", "", 1);
        assert_ne!(stale, good, "cache file no longer has the dropped field");
        let too_deep = format!("{{\"tasks\":{}", "[".repeat(200_000));

        for (what, text) in [
            ("truncated", truncated),
            ("stale-schema", stale),
            ("over-nested", too_deep),
        ] {
            fs::write(&path, text).expect("write hostile file");
            assert!(cache.load(&cfg, "per-task").is_none(), "{what} file loaded");
            let rebuilt = cache.load_or_build(&cfg, "per-task", TaskSuite::build);
            assert_eq!(rebuilt, expected, "{what} file: rebuild differs");
            // The rebuild repaired the cache entry.
            assert_eq!(cache.load(&cfg, "per-task").as_ref(), Some(&expected));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_report_creates_directories() {
        let dir = std::env::temp_dir().join("mann_accel_json_report_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/report.json");
        write_json_report(&path, &vec![1u32, 2, 3]).expect("write");
        let back: Vec<u32> =
            serde_json::from_str(&fs::read_to_string(&path).expect("read")).expect("parse");
        assert_eq!(back, vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn loading_garbage_reports_format_error() {
        let dir = std::env::temp_dir().join("mann_accel_persist_test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("garbage.json");
        fs::write(&path, "{not json").expect("write");
        let err = ModelBundle::load(&path).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        let _ = fs::remove_file(&path);
    }
}
