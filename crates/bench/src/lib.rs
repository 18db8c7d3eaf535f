//! # sa-bench — the experiment harness
//!
//! The paper is a theory paper: its "evaluation" consists of theorem-level
//! quantitative claims plus three artifacts (Table 1, Figure 1, Figure 2). This crate
//! regenerates every one of them by simulation. Each experiment has
//!
//! * a library function (in [`au_experiments`], [`protocol_experiments`] or
//!   [`bio_experiments`]) that runs the sweep and returns structured rows, and
//! * a `harness = false` bench target in `benches/` that prints the table
//!   (`cargo bench --bench exp_*`), plus Criterion micro-benchmarks in
//!   `benches/criterion_micro.rs` for raw simulator throughput.
//!
//! | experiment | paper artifact / claim | bench target |
//! |------------|------------------------|--------------|
//! | E1 | Table 1 + Figure 1 (AlgAU transition relation) | `exp_table1_fig1` |
//! | E2 | Thm 1.1 state space `O(D)` | `exp_state_space` |
//! | E3 | Thm 1.1 stabilization `O(D³)` | `exp_au_stabilization` |
//! | E4 | Thm 3.1 Restart exits concurrently in `O(D)` | `exp_restart` |
//! | E5 | Thm 1.4 MIS stabilization `O((D+log n)·log n)` | `exp_mis` |
//! | E6 | Thm 1.3 LE stabilization `O(D·log n)` | `exp_le` |
//! | E7 | Cor 1.2 synchronizer overhead | `exp_synchronizer` |
//! | E8 | Appendix A / Figure 2 live-lock | `exp_livelock` |
//! | E9 | §5 comparison with unbounded-state unison | `exp_baselines` |
//! | E10 | biological fault recovery | `exp_bio_recovery` |
//!
//! The sweeps default to a *quick* scale so `cargo bench` completes in minutes; set
//! `EXPERIMENT_SCALE=full` for the larger parameter ranges recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod au_experiments;
pub mod bio_experiments;
pub(crate) mod family;
pub mod jobs;
pub mod protocol_experiments;
pub mod report;
pub mod sweep;
pub mod verify;

pub use report::{print_experiment, ExperimentReport};

/// The scale at which the experiment sweeps run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small parameter ranges, few seeds — finishes in seconds per experiment.
    Quick,
    /// The full parameter ranges recorded in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Reads the scale from the `EXPERIMENT_SCALE` environment variable
    /// (`full` → [`Scale::Full`], anything else → [`Scale::Quick`]).
    pub fn from_env() -> Self {
        match std::env::var("EXPERIMENT_SCALE") {
            Ok(v) if v.eq_ignore_ascii_case("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Number of independent seeds per configuration.
    pub fn seeds(&self) -> u64 {
        match self {
            Scale::Quick => 5,
            Scale::Full => 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // the variable is not set in the test environment
        assert_eq!(Scale::from_env(), Scale::Quick);
        assert!(Scale::Quick.seeds() < Scale::Full.seeds());
    }
}
