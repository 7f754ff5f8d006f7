//! # mrsim — Hadoop-like MapReduce job model
//!
//! The MapReduce substrate of the reproduction: workload
//! characterizations matching the paper's three benchmarks
//! ([`WorkloadSpec`]), job-level math (blocks, slots, the Table II wave
//! formula — [`JobSpec`]), task I/O programs encoding the Hadoop 0.19
//! data flow ([`plan`]), a data-local slot-scheduling JobTracker with
//! shuffle availability ([`tracker`]), and the paper's three-phase
//! decomposition with the Table II non-concurrent-shuffle metric
//! ([`phases`]).
//!
//! This crate is pure bookkeeping — no event loop, no I/O timing. The
//! `vcluster` crate interprets the task programs against the simulated
//! disk stacks and network.

#![warn(missing_docs)]

pub mod job;
pub mod phases;
pub mod plan;
pub mod tracker;
pub mod workload;

pub use job::{ClusterShape, JobSpec};
pub use phases::{JobPhase, PhaseTimes};
pub use plan::{map_output_file, map_plan, reduce_plan, FileRef, TaskId, TaskOp};
pub use tracker::{Assignment, JobEvent, JobTracker, TaskKind};
pub use workload::WorkloadSpec;
