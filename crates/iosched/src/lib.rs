//! # iosched — Linux 2.6-style disk elevators
//!
//! Behaviourally faithful re-implementations of the four disk I/O
//! schedulers the paper studies — [`noop::Noop`],
//! [`deadline::DeadlineSched`], [`anticipatory::Anticipatory`] and
//! [`cfq::Cfq`] — behind one [`Elevator`] trait and the [`AnyElevator`]
//! enum over all four, plus the [`SchedPair`] type naming a
//! (VMM-level, VM-level) combination.
//!
//! Elevators are pure queueing state machines: they never block or keep
//! time themselves. A driver (see `vmstack`) feeds them runs of
//! requests via [`Elevator::add_run`], asks for work via
//! [`Elevator::dispatch`] (which may answer *"idle until T"* —
//! anticipation and slice idling are explicit, testable decisions),
//! and reports completions via [`Elevator::completed`].
//!
//! ```
//! use iosched::{build_elevator, Dispatch, Elevator, SchedKind, Tunables};
//! use iosched::request::{Dir, IoRequest};
//! use simcore::SimTime;
//!
//! let mut ele = build_elevator(SchedKind::Deadline, &Tunables::default());
//! ele.add(IoRequest {
//!     id: 1, stream: 0, sector: 2048, sectors: 8,
//!     dir: Dir::Read, sync: true, submitted: SimTime::ZERO,
//! }, SimTime::ZERO);
//! assert!(matches!(ele.dispatch(SimTime::ZERO), Dispatch::Request(_)));
//! ```

#![warn(missing_docs)]

pub mod anticipatory;
pub mod cfq;
pub mod deadline;
pub mod elevator;
pub mod noop;
pub mod pool;
pub mod request;

pub use elevator::{
    build_elevator, AnyElevator, Dispatch, Elevator, ParseSchedError, SchedKind, SchedPair,
    Tunables,
};
pub use pool::{PoolKernel, Qid, RqPool};
pub use request::{
    AddOutcome, Dir, IoRequest, QueuedRq, RequestId, RunStep, Sector, SegRun, StreamId,
};
