//! Figure 10: instruction throughput under cosmic rays for the MBBE-free
//! reference, the doubled-distance baseline and Q3DE.
//!
//! `--samples` sets the number of meas_ZZ instructions (default 2000); run
//! with `--help` for the shared engine flag set.  Every cell uses the same
//! random stream, so the rows of one column differ only by architecture.

use q3de::control::{ArchitectureMode, ThroughputConfig, ThroughputSimulator};
use q3de_bench::{print_row, Cli};

/// The RNG salt shared by every cell of the table.
const SALT: u64 = 1;

fn main() {
    let (args, _) = Cli::new(
        "fig10",
        "instruction throughput under cosmic rays: MBBE-free vs 2d baseline vs Q3DE (paper Fig. 10)",
        2_000,
    )
    .parse();
    let frequencies = [1e-6, 1e-5, 1e-4, 1e-3];
    let durations = [100u64, 1000];

    println!(
        "Figure 10: completed meas_ZZ per d code cycles ({} instructions, 25 logical qubits, 11x11 blocks)",
        args.samples
    );
    print_row(
        "d*tau*f_ano ->",
        &frequencies
            .iter()
            .map(|f| format!("{f:9.0e}"))
            .collect::<Vec<_>>(),
    );

    // Every cell replays one instruction stream and one sequence of strike
    // draws (common random numbers), so rows differ only by architecture and
    // columns only by strike frequency.  The MBBE-free and baseline modes
    // never sample strikes, so each of their rows is a single run.
    let run = |mode, prob, duration| {
        let mut config = ThroughputConfig::fig10(mode, prob, duration);
        config.num_instructions = args.samples;
        let mut rng = args.rng(SALT);
        format!(
            "{:9.2}",
            ThroughputSimulator::new(config)
                .run(&mut rng)
                .instructions_per_d_cycles
        )
    };

    for (label, mode) in [
        ("MBBE free", ArchitectureMode::MbbeFree),
        ("baseline (2d)", ArchitectureMode::Baseline),
    ] {
        print_row(label, &vec![run(mode, 0.0, 100); frequencies.len()]);
    }
    for &duration in &durations {
        let q3de: Vec<String> = frequencies
            .iter()
            .map(|&f| run(ArchitectureMode::Q3de, f, duration))
            .collect();
        print_row(&format!("Q3DE tau_ano/(d tau_cyc)={duration}"), &q3de);
    }
    println!("\nExpected shape: at realistic MBBE rates (~1e-5) Q3DE throughput approaches the MBBE-free");
    println!(
        "bound and roughly doubles the baseline; very frequent/long bursts erode the advantage."
    );
}
