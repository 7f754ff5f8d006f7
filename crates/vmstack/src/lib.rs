//! # vmstack — Xen-style two-level virtualized block stack
//!
//! One physical node's disk path as the paper's testbed saw it: guest
//! elevators (DomU) over a bounded blkfront/blkback ring into a Dom0
//! elevator that treats each VM as a single process, feeding one
//! mechanical disk — plus Linux-faithful *hot elevator switching*
//! (quiesce → drain → swap → stall), whose measured cost is the
//! paper's Fig. 5.
//!
//! The stack ([`NodeStack`]) is a pure state machine driven by events;
//! [`runner::NodeRunner`] is a self-contained event loop for synthetic
//! single-node workloads (dd / Sysbench), while whole-cluster MapReduce
//! runs are driven by the `vcluster` crate.
//!
//! ```
//! use vmstack::runner::{NodeRunner, SyntheticProc};
//! use vmstack::NodeParams;
//! use iosched::SchedPair;
//!
//! let mut r = NodeRunner::new(NodeParams::default(), 2, SchedPair::DEFAULT);
//! for vm in 0..2 {
//!     r.add_proc(SyntheticProc::dd_writer(vm, 0, 0, 16 * 1024 * 1024));
//! }
//! let out = r.run();
//! assert!(out.makespan.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod node;
pub mod runner;
pub mod switching;
pub mod telemetry;

pub use node::{LevelCounters, NodeParams, NodeStack, StackAction, StackEvent, VmId};
pub use switching::{SwitchState, SwitchTiming};
pub use telemetry::NodeTelemetry;
