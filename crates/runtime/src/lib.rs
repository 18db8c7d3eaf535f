//! # sa-runtime — shared thread-pool runtime
//!
//! The workspace has two distinct parallel workloads:
//!
//! * **unit fan-out** — experiment sweeps run thousands of *independent*
//!   executions (one per seed); the job scheduler in `sa_bench` spreads them
//!   over [`parallel::thread_count`] workers and stops them through
//!   [`parallel::CancelToken`]s, and
//! * **intra-execution sharding** — the sharded step engine splits *one*
//!   execution's activation set across a persistent [`pool::WorkerPool`],
//!   whose workers stay parked between steps so a step costs a broadcast,
//!   not a thread spawn.
//!
//! The build environment has no access to crates.io (so no `rayon`); both
//! primitives are built on `std::thread` only. A `rayon` upgrade remains a
//! drop-in once a registry is available.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod faultfs;
pub mod parallel;
pub mod pool;
