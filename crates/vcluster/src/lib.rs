//! # vcluster — whole-cluster MapReduce simulation
//!
//! Ties every substrate together: `mrsim` task programs run on per-VM
//! VCPUs ([`cpu::Vcpu`], processor sharing), issue disk I/O through the
//! per-node two-level `vmstack` block path, and move shuffle/replica
//! traffic over a max-min fair flow network ([`network::Network`]) —
//! all inside one deterministic event loop ([`ClusterSim`]).
//!
//! A job executes under a [`SwitchPlan`]: the elevator pair to install
//! per phase, with hot switches at the phase boundaries — exactly the
//! knob the paper's meta-scheduler turns.
//!
//! ```no_run
//! use vcluster::{run_job, ClusterParams, SwitchPlan};
//! use mrsim::{JobSpec, WorkloadSpec};
//! use iosched::SchedPair;
//!
//! let params = ClusterParams::default(); // 4 nodes x 4 VMs (paper testbed)
//! let job = JobSpec::new(WorkloadSpec::sort());
//! let outcome = run_job(&params, &job, SwitchPlan::single(SchedPair::DEFAULT));
//! println!("sort took {}", outcome.makespan);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cpu;
pub mod driver;
pub mod files;
pub mod jobs;
pub mod network;
pub mod sweep;

pub use jobs::{
    poisson_arrivals, run_service, ArrivalSpec, FixedPolicy, PhaseMix, ServiceOutcome,
    ServiceParams, ServicePolicy, SlotLedger, Tenant, TenantMix, TenantProfile,
};

pub use driver::{
    run_job, ClusterParams, ClusterSim, ClusterSnapshot, JobOutcome, OnlinePolicy, PolicyAudit,
    SwitchPlan,
};
pub use network::{FlowId, NetParams, Network};
pub use sweep::{run_sweep, CellResult, SweepCell, SweepGrid, SweepReport};
