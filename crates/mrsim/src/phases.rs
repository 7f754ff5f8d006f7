//! Phase bookkeeping — the paper's §IV-A three-phase decomposition.
//!
//! * **Ph1**: job start → all maps done (CPU + disk + network);
//! * **Ph2**: all maps done → shuffle done (disk + network only) — the
//!   *non-concurrent shuffle*, whose share shrinks as the number of map
//!   waves grows (Table II);
//! * **Ph3**: shuffle done → job done (sort/reduce: CPU + disk).
//!
//! The paper's meta-scheduler actually switches at **two** boundaries at
//! most, and merges Ph2 into Ph3 when Ph2 is short (many waves); the
//! meta-scheduler's `choose_split` applies that rule to the measured
//! [`PhaseTimes::non_concurrent_shuffle_pct`] of the default pair.

use simcore::{SimDuration, SimTime};

/// The paper's phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobPhase {
    /// Maps (and concurrent shuffle) running.
    Ph1,
    /// Non-concurrent shuffle tail.
    Ph2,
    /// Sort + reduce.
    Ph3,
}

impl JobPhase {
    /// All phases in order.
    pub const ALL: [JobPhase; 3] = [JobPhase::Ph1, JobPhase::Ph2, JobPhase::Ph3];

    /// One-byte code for trace records (1/2/3, matching the paper's
    /// phase numbering; the trace oracle checks monotonicity).
    pub fn code(self) -> u8 {
        match self {
            JobPhase::Ph1 => 1,
            JobPhase::Ph2 => 2,
            JobPhase::Ph3 => 3,
        }
    }
}

impl std::fmt::Display for JobPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobPhase::Ph1 => f.write_str("Ph1"),
            JobPhase::Ph2 => f.write_str("Ph2"),
            JobPhase::Ph3 => f.write_str("Ph3"),
        }
    }
}

/// Milestone timestamps of one executed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Job submission.
    pub start: SimTime,
    /// All maps committed.
    pub maps_done: SimTime,
    /// All reducers finished fetching.
    pub shuffle_done: SimTime,
    /// Job committed.
    pub job_done: SimTime,
}

impl PhaseTimes {
    /// Construct, validating monotonicity.
    pub fn new(
        start: SimTime,
        maps_done: SimTime,
        shuffle_done: SimTime,
        job_done: SimTime,
    ) -> Self {
        assert!(
            start <= maps_done && maps_done <= shuffle_done && shuffle_done <= job_done,
            "phase milestones out of order: {start} {maps_done} {shuffle_done} {job_done}"
        );
        PhaseTimes {
            start,
            maps_done,
            shuffle_done,
            job_done,
        }
    }

    /// Duration of one phase.
    pub fn duration(&self, p: JobPhase) -> SimDuration {
        match p {
            JobPhase::Ph1 => self.maps_done - self.start,
            JobPhase::Ph2 => self.shuffle_done - self.maps_done,
            JobPhase::Ph3 => self.job_done - self.shuffle_done,
        }
    }

    /// Whole-job elapsed time (the paper's "performance score").
    pub fn total(&self) -> SimDuration {
        self.job_done - self.start
    }

    /// Table II: percentage of the job spent in the non-concurrent
    /// shuffle phase.
    pub fn non_concurrent_shuffle_pct(&self) -> f64 {
        100.0 * self.duration(JobPhase::Ph2).as_secs_f64() / self.total().as_secs_f64()
    }

    /// Named absolute milestone instants, in order — the cut points a
    /// metrics consumer needs to slice sim-time series per phase.
    pub fn boundaries(&self) -> [(&'static str, SimTime); 4] {
        [
            ("start_s", self.start),
            ("maps_done_s", self.maps_done),
            ("shuffle_done_s", self.shuffle_done),
            ("job_done_s", self.job_done),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(ph1: u64, ph2: u64, ph3: u64) -> PhaseTimes {
        let start = SimTime::from_secs(10);
        let m = start + SimDuration::from_secs(ph1);
        let s = m + SimDuration::from_secs(ph2);
        let j = s + SimDuration::from_secs(ph3);
        PhaseTimes::new(start, m, s, j)
    }

    #[test]
    fn durations_and_total() {
        let t = times(100, 20, 80);
        assert_eq!(t.duration(JobPhase::Ph1), SimDuration::from_secs(100));
        assert_eq!(t.duration(JobPhase::Ph2), SimDuration::from_secs(20));
        assert_eq!(t.duration(JobPhase::Ph3), SimDuration::from_secs(80));
        assert_eq!(t.total(), SimDuration::from_secs(200));
    }

    #[test]
    fn table2_percentage() {
        let t = times(100, 59, 41);
        assert!((t.non_concurrent_shuffle_pct() - 29.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn monotonicity_enforced() {
        PhaseTimes::new(
            SimTime::from_secs(5),
            SimTime::from_secs(4),
            SimTime::from_secs(6),
            SimTime::from_secs(7),
        );
    }
}
