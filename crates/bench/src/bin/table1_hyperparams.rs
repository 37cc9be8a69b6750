//! Table I — training hyper-parameters. The reproduction's defaults *are*
//! the paper's values; this binary prints the table and fails loudly if
//! any default drifts.

use hero_bench::ExperimentArgs;
use hero_core::config::HeroConfig;

fn main() {
    let args = ExperimentArgs::from_env(ExperimentArgs::defaults(1));
    let _telemetry = hero_bench::init_telemetry(&args, "table1");
    let c = HeroConfig::default();
    println!("Table I: Hyperparameters for Training (paper vs this reproduction)");
    println!("{:<32} {:>10} {:>12}", "Hyperparameter", "Paper", "Ours");
    let rows: Vec<(&str, String, String)> = vec![
        ("Training episode", "14,000".into(), c.training_episodes.to_string()),
        ("Episode length", "30".into(), c.episode_length.to_string()),
        ("Buffer capacity", "100,000".into(), c.buffer_capacity.to_string()),
        ("Batch size", "1024".into(), c.batch_size.to_string()),
        ("Learning rate", "0.01".into(), c.lr.to_string()),
        ("Discount factor gamma", "0.95".into(), c.gamma.to_string()),
        ("Dimension of the hidden layer", "32".into(), c.hidden.to_string()),
        ("Target network update rate", "0.01".into(), c.tau.to_string()),
    ];
    for (name, paper, ours) in &rows {
        println!("{name:<32} {paper:>10} {ours:>12}");
    }
    assert_eq!(c.training_episodes, 14_000);
    assert_eq!(c.episode_length, 30);
    assert_eq!(c.buffer_capacity, 100_000);
    assert_eq!(c.batch_size, 1024);
    assert_eq!(c.lr, 0.01);
    assert_eq!(c.gamma, 0.95);
    assert_eq!(c.hidden, 32);
    assert_eq!(c.tau, 0.01);
    println!("\nAll defaults match the paper's Table I.");
}
