//! Reproduces the paper's motivating frequency analysis (Figures 1, 2 and
//! 4): where does the sticker attack inject energy, and why is the *first*
//! layer the right place to filter?
//!
//! ```sh
//! cargo run --release --example spectrum_analysis
//! ```

use blurnet::experiments::grid::ExperimentGrid;
use blurnet::{CellOutput, ExperimentScheduler, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::from_env();
    // The three analyses share one trained baseline and one RP2 sticker,
    // which the scheduler produces once.
    let grid = ExperimentGrid::named("figure1,figure2,figure4", scale)?;
    let report = ExperimentScheduler::new(scale, 7).run(&grid)?.report;

    for cell in &report.cells {
        match cell.output.as_ref() {
            // Figure 1: the input-space spectra barely move.
            Some(CellOutput::Figure1(fig1)) => {
                println!("{}", fig1.table());
                println!(
                    "input spectra change little ({:.3} -> {:.3}), so filtering the input is a \
                     weak defense\n",
                    fig1.clean_high_fraction, fig1.adversarial_high_fraction
                );
            }
            // Figure 2: the *feature-map* difference is concentrated in
            // high frequencies, and a 5x5 blur removes it.
            Some(CellOutput::Figure2(fig2)) => {
                println!("{}", fig2.table());
                println!(
                    "feature-map difference high-frequency fraction {:.3} drops to {:.3} after \
                     a 5x5 blur\n",
                    fig2.mean_difference_fraction(),
                    fig2.mean_blurred_difference_fraction()
                );
            }
            // Figure 4: second-layer maps inherently carry high
            // frequencies, which is why BlurNet only filters after the
            // first layer.
            Some(CellOutput::Figure4(fig4)) => {
                println!("{}", fig4.table());
                println!(
                    "second-layer maps carry {:.2}x the high-frequency share of first-layer maps \
                     — filtering them would destroy information the classifier needs",
                    fig4.second_layer_mean_fraction / fig4.first_layer_mean_fraction.max(1e-6)
                );
            }
            _ => {
                return Err(
                    format!("{} did not complete: {:?}", cell.experiment, cell.status).into(),
                )
            }
        }
    }
    Ok(())
}
