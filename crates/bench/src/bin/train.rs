//! Trains one task's memory network, calibrates inference thresholding, and
//! saves the deployable model bundle (weights + vocabulary + thresholds) —
//! the "pre-trained model" artifact the accelerator consumes.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin train -- --task 1 --train 1000 --test 100 --out model.json
//! ```

use mann_babi::TaskId;
use mann_bench::HarnessArgs;
use mann_core::{ModelBundle, SuiteConfig, TaskSuite};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = HarnessArgs::parse_with(raw.clone(), &["--task", "--out"]);
    let mut task_no = 1usize;
    let mut out = "model.json".to_owned();
    let mut it = raw.iter();
    while let Some(k) = it.next() {
        match k.as_str() {
            "--task" => {
                task_no = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--task <1-20>")
            }
            "--out" => out = it.next().expect("--out <path>").clone(),
            _ => {}
        }
    }
    let task = TaskId::from_number(task_no).expect("task number in 1..=20");
    let cfg = SuiteConfig {
        tasks: vec![task],
        ..args.suite_config()
    };
    eprintln!(
        "[train] {task}: {} train / {} test samples ...",
        cfg.train_samples, cfg.test_samples
    );
    let suite = TaskSuite::build(&cfg);
    let trained = &suite.tasks[0];
    eprintln!(
        "[train] test accuracy {:.1}%, {} of {} classes thresholdable",
        trained.test_accuracy * 100.0,
        trained.ith.active_classes(),
        trained.ith.classes()
    );
    let bundle = ModelBundle::from_trained_task(trained);
    bundle.save(&out).expect("write bundle");
    println!("model bundle written to {out}");
}
