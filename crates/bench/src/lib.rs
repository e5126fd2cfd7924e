//! Benchmark harnesses for the reproduction.
//!
//! * Binaries (`src/bin/`) regenerate the paper's tables and figures:
//!   `table1`, `fig2b`, `fig3`, `fig4`, `ablation`. Each accepts
//!   `--tasks N`, `--train N`, `--test N` and `--seed N` to trade fidelity
//!   for runtime (defaults reproduce the full 20-task suite).
//! * Criterion benches (`benches/`) measure the component kernels: the
//!   softmax/attention datapath, MIPS strategies, the cycle-level modules,
//!   and the end-to-end simulator.

use mann_babi::TaskId;
use mann_core::SuiteConfig;

/// Parsed command-line options shared by the reproduction binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Number of tasks (1–20, taken from the front of the paper ordering).
    pub tasks: usize,
    /// Training samples per task.
    pub train: usize,
    /// Test samples per task.
    pub test: usize,
    /// Master seed.
    pub seed: u64,
    /// Timing repetitions (Table I uses 100).
    pub reps: u64,
    /// Train one joint model over all tasks (the paper's setting) instead
    /// of per-task models.
    pub joint: bool,
    /// Exact sentence count per generated story (0 = task defaults).
    /// Large values put the serve path in the regime the MEM candidate
    /// index targets (DESIGN.md §15).
    pub story_sentences: usize,
}

impl Default for HarnessArgs {
    /// Paper-scale defaults: all 20 tasks, 1000/100 splits, 100 reps.
    fn default() -> Self {
        Self {
            tasks: 20,
            train: 1000,
            test: 100,
            seed: 0,
            reps: 100,
            joint: false,
            story_sentences: 0,
        }
    }
}

impl HarnessArgs {
    /// Parses the shared `--key value` flags of a binary that takes no
    /// flags of its own. A missing or unparsable value, or any other
    /// argument, prints a usage message and exits with status 2.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::parse_with(args, &[])
    }

    /// [`HarnessArgs::parse`] for a binary that also reads its own `own`
    /// flags, each followed by a value.
    pub fn parse_with<I: IntoIterator<Item = String>>(args: I, own: &[&str]) -> Self {
        Self::try_parse_with(args, own, &[]).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses the shared flags, stepping over the binary's own flags:
    /// `own_values` (each followed by a value) and `own_switches` (none).
    /// Together they are the binary's whole flag list, so an argument in
    /// neither is an error that names it — a typo never silently falls
    /// back to a default.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown argument, a flag missing
    /// its value, or an unparsable shared value.
    pub fn try_parse_with<I: IntoIterator<Item = String>>(
        args: I,
        own_values: &[&str],
        own_switches: &[&str],
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let mut grab = |name: &str| -> Result<u64, String> {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("usage: {name} <number>"))
            };
            match key.as_str() {
                "--tasks" => out.tasks = grab("--tasks")? as usize,
                "--train" => out.train = grab("--train")? as usize,
                "--test" => out.test = grab("--test")? as usize,
                "--seed" => out.seed = grab("--seed")?,
                "--reps" => out.reps = grab("--reps")?,
                "--story-sentences" => {
                    out.story_sentences = grab("--story-sentences")? as usize;
                }
                "--joint" => out.joint = true,
                k if own_values.contains(&k) => {
                    it.next().ok_or_else(|| format!("usage: {k} <value>"))?;
                }
                k if own_switches.contains(&k) => {}
                k => return Err(format!("unknown argument {k:?}")),
            }
        }
        out.tasks = out.tasks.clamp(1, 20);
        Ok(out)
    }

    /// Converts the arguments into a suite configuration (quick model
    /// hyper-parameters, the requested data sizes).
    pub fn suite_config(&self) -> SuiteConfig {
        let mut cfg = SuiteConfig::quick();
        cfg.tasks = TaskId::all()[..self.tasks].to_vec();
        cfg.train_samples = self.train;
        cfg.test_samples = self.test;
        cfg.seed = self.seed;
        cfg.story_sentences = self.story_sentences;
        cfg
    }

    /// Builds the suite per the `--joint` flag, going through the shared
    /// disk cache: the first experiment binary to run a configuration
    /// trains it, the rest (`table1`, `fig3`, `fig4`, `ablation`, …) load
    /// the trained suite from `target/suite-cache/` in milliseconds. Set
    /// `MANN_SUITE_CACHE=<dir>` to relocate the cache or
    /// `MANN_SUITE_CACHE=off` to always retrain.
    pub fn build_suite(&self) -> mann_core::TaskSuite {
        let cfg = self.suite_config();
        let (variant, build): (_, fn(&SuiteConfig) -> mann_core::TaskSuite) = if self.joint {
            ("joint", mann_core::TaskSuite::build_joint)
        } else {
            ("per-task", mann_core::TaskSuite::build)
        };
        match mann_core::SuiteCache::from_env() {
            Some(cache) => {
                let hit = cache.load(&cfg, variant);
                if hit.is_some() {
                    eprintln!("[suite] loaded trained suite from cache");
                }
                hit.unwrap_or_else(|| {
                    let suite = build(&cfg);
                    if cache.store(&suite, variant).is_ok() {
                        eprintln!("[suite] cached trained suite for reuse");
                    }
                    suite
                })
            }
            None => build(&cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_reads_known_flags_and_rejects_others() {
        let a = HarnessArgs::try_parse_with(
            strings(&[
                "--tasks",
                "3",
                "--own",
                "--tasks",
                "--train",
                "50",
                "--reps",
                "7",
                "--switch",
                "--story-sentences",
                "500",
                "--joint",
            ]),
            &["--own"],
            &["--switch"],
        )
        .expect("every flag is known");
        assert_eq!(a.tasks, 3, "an own flag's value is skipped, not read");
        assert_eq!(a.train, 50);
        assert_eq!(a.reps, 7);
        assert_eq!(a.story_sentences, 500);
        assert!(a.joint);
        assert_eq!(a.test, HarnessArgs::default().test);

        for (args, named) in [
            (&["--zzz"][..], "--zzz"),
            (&["--tasks", "3", "--shard", "4"], "--shard"),
            (&["stray"], "stray"),
            (&["--own"], "--own"),
            (&["--tasks"], "--tasks"),
            (&["--tasks", "x"], "--tasks"),
        ] {
            let e = HarnessArgs::try_parse_with(strings(args), &["--own"], &[]).unwrap_err();
            assert!(e.contains(named), "{args:?}: {e}");
        }
    }

    #[test]
    fn tasks_are_clamped() {
        let a = HarnessArgs::parse(strings(&["--tasks", "99"]));
        assert_eq!(a.tasks, 20);
    }

    #[test]
    fn suite_config_reflects_args() {
        let a = HarnessArgs {
            tasks: 2,
            train: 10,
            test: 5,
            seed: 9,
            reps: 1,
            joint: false,
            story_sentences: 321,
        };
        let cfg = a.suite_config();
        assert_eq!(cfg.tasks.len(), 2);
        assert_eq!(cfg.train_samples, 10);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.story_sentences, 321);
    }
}
