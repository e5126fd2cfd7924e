//! Loads a trained model bundle and answers freshly generated questions on
//! the simulated accelerator — the deployment half of the train/infer
//! workflow.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin train -- --task 1 --out model.json
//! cargo run -p mann-bench --release --bin infer -- --model model.json --questions 5 --mhz 100
//! ```

use mann_babi::DatasetBuilder;
use mann_core::ModelBundle;
use mann_hw::{AccelConfig, Accelerator, ClockDomain};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut path = "model.json".to_owned();
    let mut questions = 5usize;
    let mut mhz = 100.0f64;
    let mut ith = true;
    let mut it = raw.iter();
    while let Some(k) = it.next() {
        match k.as_str() {
            "--model" => path = it.next().expect("--model <path>").clone(),
            "--questions" => {
                questions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--questions <n>")
            }
            "--mhz" => mhz = it.next().and_then(|v| v.parse().ok()).expect("--mhz <f>"),
            "--no-ith" => ith = false,
            other => {
                eprintln!("[infer] unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let bundle = ModelBundle::load(&path).expect("load bundle");
    let task = bundle.model.task;
    eprintln!(
        "[infer] loaded {task} model ({} classes, recorded accuracy {:.1}%)",
        bundle.ith.classes(),
        bundle.test_accuracy * 100.0
    );

    let config = if ith {
        AccelConfig::with_thresholding(ClockDomain::mhz(mhz), bundle.ith.clone())
    } else {
        AccelConfig {
            clock: ClockDomain::mhz(mhz),
            ..AccelConfig::default()
        }
    };
    let accel = Accelerator::new(bundle.model.clone(), config);

    // Fresh questions from the same generator (an unseen split).
    let data = DatasetBuilder::new()
        .train_samples(0)
        .test_samples(questions)
        .seed(0xFEED)
        .build_task(task);
    let vocab = bundle.model.encoder.vocab();
    let mut correct = 0usize;
    for (text, sample) in data.test.iter().zip(
        data.test
            .iter()
            .filter_map(|s| bundle.model.encoder.encode(s)),
    ) {
        let run = accel.run(&sample);
        let predicted = vocab.token(run.answer).unwrap_or("?");
        let ok = run.answer == sample.answer;
        if ok {
            correct += 1;
        }
        let verdict = if ok {
            "correct".to_owned()
        } else {
            format!("expected {}", text.answer)
        };
        println!(
            "Q: {} ? -> {predicted} ({verdict}; {} cycles, {:.1} us{})",
            text.question.join(" "),
            run.cycles.get(),
            run.total_s * 1e6,
            if run.speculated { ", speculated" } else { "" },
        );
    }
    println!("accuracy on fresh questions: {correct}/{questions}");
}
