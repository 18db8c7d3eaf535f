//! # sa-bench — the experiment harness
//!
//! The paper is a theory paper: its "evaluation" consists of theorem-level
//! quantitative claims plus three artifacts (Table 1, Figure 1, Figure 2).
//! This crate regenerates every one of them through one experiment path:
//! a declarative JSON spec ([`sweep`]) run by `sa run` (batch) or
//! `sa serve` (daemon) on the job scheduler ([`jobs`]), with checkpoints,
//! byte-deterministic `EXPERIMENTS.json`/`.md` reports and golden files
//! under `tests/golden/`. Exhaustive model checking is the `verify` task
//! kind ([`verify`], `sa verify`). Criterion micro-benchmarks for raw
//! simulator throughput live in `benches/criterion_micro.rs`.
//!
//! | experiment | paper artifact / claim | committed spec (`examples/specs/`) |
//! |------------|------------------------|------------------------------------|
//! | E1 | Table 1 + Figure 1 (AlgAU transition relation) | `e1.json` |
//! | E2 | Thm 1.1 state space `O(D)` | `e2.json` |
//! | E3 | Thm 1.1 stabilization `O(D³)` | `e3.json` |
//! | E4 | Thm 3.1 Restart exits concurrently in `O(D)` | `claims/thm-3.1-restart.json` |
//! | E5 | Thm 1.4 MIS stabilization `O((D+log n)·log n)` | `claims/thm-1.4-mis.json` |
//! | E6 | Thm 1.3 LE stabilization `O(D·log n)` | `claims/thm-1.3-le.json` |
//! | E7 | Cor 1.2 synchronizer overhead | `claims/cor-1.2-synchronizer.json` |
//! | E8 | Appendix A / Figure 2 live-lock | `verify-broken.json` (`sa verify`) |
//! | E9 | §5 comparison with unbounded-state unison | `scenarios/baselines.json`, plus the `register_keeps_growing_unbounded_state_usage` test of `unison-core` |
//! | E10 | biological fault recovery | the `scenario` tasks of `scenarios/recovery-smoke.json`, plus `examples/tissue_mis.rs` |
//!
//! Every claims spec ends in rows whose `failures` column CI asserts to be
//! zero; `tests/sweep_golden.rs` pins each spec's reports byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod family;
pub mod jobs;
pub mod sweep;
pub mod verify;
