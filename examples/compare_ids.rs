//! Run the full IDS × dataset grid (a scaled-down Table IV) and print the
//! comparison table.
//!
//! ```text
//! cargo run --release --example compare_ids
//! ```

use idsbench::core::report;
use idsbench::core::runner::{run_grid, DetectorFactory, EvalConfig};
use idsbench::core::{CoreError, Dataset, EventDetector};
use idsbench::datasets::{scenarios, ScenarioScale};
use idsbench::dnn::Dnn;
use idsbench::helad::Helad;
use idsbench::kitsune::Kitsune;
use idsbench::slips::Slips;

fn main() -> Result<(), CoreError> {
    let scenarios = scenarios::table4_scenarios(ScenarioScale::Small);
    let datasets: Vec<&dyn Dataset> = scenarios.iter().map(|s| s as &dyn Dataset).collect();

    let detectors: Vec<(String, DetectorFactory)> = vec![
        ("Kitsune".into(), Box::new(|| Box::new(Kitsune::default()) as Box<dyn EventDetector>)),
        ("HELAD".into(), Box::new(|| Box::new(Helad::default()) as Box<dyn EventDetector>)),
        ("DNN".into(), Box::new(|| Box::new(Dnn::default()) as Box<dyn EventDetector>)),
        ("Slips".into(), Box::new(|| Box::new(Slips::default()) as Box<dyn EventDetector>)),
    ];

    eprintln!(
        "running {} cells — this takes a minute in release mode…",
        detectors.len() * datasets.len()
    );
    let experiments = run_grid(&detectors, &datasets, &EvalConfig::default())?;

    println!("{}", report::render_console(&experiments));
    println!("(run `idsbench table4 --scale full` for the paper-scale grid)");
    Ok(())
}
