//! Hot elevator-switch state machine.
//!
//! Linux switches elevators (`echo <name> > /sys/block/<dev>/queue/
//! scheduler`) by quiescing the queue: new requests stop entering the
//! old elevator, everything it holds is drained to the device, then the
//! new elevator is initialized and the queue is released. Under load
//! this is expensive — the drain runs at whatever throughput the *old*
//! elevator achieves, submitters stall behind the frozen queue, and the
//! re-init adds a fixed stall. Those three components are exactly why
//! the paper's Fig. 5 switch costs are large, state-dependent and
//! non-commutative; all three are modelled here and the cost is
//! *measured* by experiments, never asserted.

use iosched::{IoRequest, SchedKind};
use simcore::{SimDuration, SimTime};

/// Fixed re-initialization stalls, calibrated to the testbed-scale
/// switch costs the paper reports (its Fig. 5 diagonal — re-installing
/// the *same* pair — bottoms out around 4 s on a loaded 4-VM node,
/// which is dominated by these stalls plus the drain).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchTiming {
    /// Stall after the Dom0 elevator swap before dispatching resumes.
    pub dom0_reinit: SimDuration,
    /// Stall after each guest elevator swap.
    pub guest_reinit: SimDuration,
}

impl Default for SwitchTiming {
    fn default() -> Self {
        SwitchTiming {
            dom0_reinit: SimDuration::from_millis(1500),
            guest_reinit: SimDuration::from_millis(700),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No switch in progress.
    Idle,
    /// Old elevator refusing new work, draining to the device.
    Draining { target: SchedKind },
    /// New elevator installed, stalled until the given time.
    Frozen { until: SimTime },
}

/// Per-elevator switch state: where staged requests wait while the
/// queue is quiesced.
#[derive(Debug, Clone)]
pub struct SwitchState {
    phase: Phase,
    staged: Vec<IoRequest>,
}

impl Default for SwitchState {
    fn default() -> Self {
        Self::new()
    }
}

impl SwitchState {
    /// Not switching.
    pub fn new() -> Self {
        SwitchState {
            phase: Phase::Idle,
            staged: Vec::new(),
        }
    }

    /// Start a switch towards `target`. If a switch was already in
    /// progress the target is replaced; staged requests are kept.
    pub fn begin(&mut self, target: SchedKind) {
        self.phase = Phase::Draining { target };
    }

    /// True while the old elevator is draining.
    pub fn is_draining(&self) -> bool {
        matches!(self.phase, Phase::Draining { .. })
    }

    /// The switch target while draining.
    pub fn target(&self) -> Option<SchedKind> {
        match self.phase {
            Phase::Draining { target } => Some(target),
            _ => None,
        }
    }

    /// Park a request submitted while the queue is quiesced.
    pub fn stage(&mut self, r: IoRequest) {
        debug_assert!(
            !matches!(self.phase, Phase::Idle),
            "staging outside a switch"
        );
        self.staged.push(r);
    }

    /// Number of parked requests.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The drain finished and the new elevator is installed; stall
    /// until `until`.
    pub fn swap_done(&mut self, until: SimTime) {
        debug_assert!(self.is_draining(), "swap_done outside a drain");
        self.phase = Phase::Frozen { until };
    }

    /// The freeze deadline, while frozen.
    pub fn frozen_until(&self) -> Option<SimTime> {
        match self.phase {
            Phase::Frozen { until } => Some(until),
            _ => None,
        }
    }

    /// Release the queue: returns the staged requests for re-insertion
    /// into the new elevator, in submission order.
    pub fn thaw(&mut self) -> Vec<IoRequest> {
        debug_assert!(
            matches!(self.phase, Phase::Frozen { .. }),
            "thaw outside a freeze"
        );
        self.phase = Phase::Idle;
        std::mem::take(&mut self.staged)
    }

    /// True when no switch activity remains.
    pub fn is_settled(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::Dir;

    fn req(id: u64) -> IoRequest {
        IoRequest {
            id,
            stream: 0,
            sector: id * 100,
            sectors: 8,
            dir: Dir::Write,
            sync: false,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn lifecycle() {
        let mut s = SwitchState::new();
        assert!(s.is_settled());
        s.begin(SchedKind::Deadline);
        assert!(s.is_draining());
        assert_eq!(s.target(), Some(SchedKind::Deadline));
        s.stage(req(1));
        s.stage(req(2));
        assert_eq!(s.staged_len(), 2);
        s.swap_done(SimTime::from_secs(3));
        assert!(!s.is_draining());
        assert_eq!(s.frozen_until(), Some(SimTime::from_secs(3)));
        // Still staging while frozen.
        s.stage(req(3));
        let staged = s.thaw();
        assert_eq!(staged.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(s.is_settled());
        assert_eq!(s.staged_len(), 0);
    }

    #[test]
    fn retarget_mid_drain_keeps_staged() {
        let mut s = SwitchState::new();
        s.begin(SchedKind::Noop);
        s.stage(req(9));
        s.begin(SchedKind::Cfq);
        assert_eq!(s.target(), Some(SchedKind::Cfq));
        assert_eq!(s.staged_len(), 1);
    }
}
