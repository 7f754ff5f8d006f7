//! The paper's future-work extension: a *fine-grained* reactive
//! switcher that picks the pair from the live status of the VMs' I/O
//! ("i.e. the number of requests") instead of offline phase profiling.
//!
//! Two policies are provided:
//!
//! * [`PhaseReactivePolicy`] — switches on the observable job progress
//!   (all maps done ⇒ install the reduce-phase pair), the online
//!   equivalent of the offline two-phase plan;
//! * [`QueueDepthPolicy`] — pure I/O-status control with hysteresis:
//!   deep Dom0 queues mean the disk is the bottleneck and the
//!   throughput-oriented pair pays; shallow queues mean the job is
//!   CPU/network bound and switching cannot pay, so it returns to the
//!   preferred baseline. Matches the paper's sketch most closely.

use iosched::SchedPair;
use vcluster::{ClusterSnapshot, OnlinePolicy, PolicyAudit};

/// Online mirror of the offline two-phase plan: install `map_pair`
/// while maps are running, `reduce_pair` afterwards.
#[derive(Debug, Clone)]
pub struct PhaseReactivePolicy {
    /// Pair while any map is still running.
    pub map_pair: SchedPair,
    /// Pair once every map committed.
    pub reduce_pair: SchedPair,
}

impl OnlinePolicy for PhaseReactivePolicy {
    fn decide(&mut self, snap: &ClusterSnapshot) -> (Option<SchedPair>, PolicyAudit) {
        let in_reduce = snap.maps_done_fraction >= 1.0;
        let audit = PolicyAudit {
            signal: "maps_done_fraction",
            observed: snap.maps_done_fraction,
            threshold: 1.0,
            streak: 0,
            confirm: 1,
            // Stateless policy: "flipped" mirrors the trigger condition.
            flipped: in_reduce,
        };
        let pair = if in_reduce { self.reduce_pair } else { self.map_pair };
        (Some(pair), audit)
    }
}

/// Queue-depth hysteresis policy.
#[derive(Debug, Clone)]
pub struct QueueDepthPolicy {
    /// Pair installed when the disk path is saturated.
    pub busy_pair: SchedPair,
    /// Pair installed when queues are shallow.
    pub idle_pair: SchedPair,
    /// Average Dom0 queue depth above which the cluster counts as busy.
    pub high_watermark: f64,
    /// Depth below which it counts as idle again (must be lower —
    /// hysteresis prevents switch thrashing, which Fig. 5 shows is
    /// expensive).
    pub low_watermark: f64,
    busy: bool,
    /// Consecutive ticks the condition must hold before acting.
    pub confirm_ticks: u32,
    streak: u32,
}

impl QueueDepthPolicy {
    /// Policy with the given pairs and watermarks.
    pub fn new(
        busy_pair: SchedPair,
        idle_pair: SchedPair,
        high_watermark: f64,
        low_watermark: f64,
    ) -> Self {
        assert!(
            low_watermark < high_watermark,
            "hysteresis needs low < high"
        );
        QueueDepthPolicy {
            busy_pair,
            idle_pair,
            high_watermark,
            low_watermark,
            busy: false,
            confirm_ticks: 2,
            streak: 0,
        }
    }

    fn avg_depth(snap: &ClusterSnapshot) -> f64 {
        if snap.dom0_queue_lens.is_empty() {
            return 0.0;
        }
        snap.dom0_queue_lens.iter().sum::<usize>() as f64 / snap.dom0_queue_lens.len() as f64
    }
}

impl OnlinePolicy for QueueDepthPolicy {
    fn decide(&mut self, snap: &ClusterSnapshot) -> (Option<SchedPair>, PolicyAudit) {
        let depth = Self::avg_depth(snap);
        // The active watermark depends on which side of the hysteresis
        // band we are on — exactly what the audit must expose.
        let threshold = if self.busy {
            self.low_watermark
        } else {
            self.high_watermark
        };
        let trigger = if self.busy {
            depth <= threshold
        } else {
            depth >= threshold
        };
        let mut flipped = false;
        if trigger {
            self.streak += 1;
            if self.streak >= self.confirm_ticks {
                self.busy = !self.busy;
                self.streak = 0;
                flipped = true;
            }
        } else {
            self.streak = 0;
        }
        let audit = PolicyAudit {
            signal: "dom0_avg_qdepth",
            observed: depth,
            threshold,
            streak: self.streak,
            confirm: self.confirm_ticks,
            flipped,
        };
        (Some(if self.busy { self.busy_pair } else { self.idle_pair }), audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::SchedKind;

    fn snap(maps: f64, depths: &[usize]) -> ClusterSnapshot {
        ClusterSnapshot {
            maps_done_fraction: maps,
            dom0_queue_lens: depths.to_vec(),
            current_pair: SchedPair::DEFAULT,
            switching: false,
        }
    }

    fn asdl() -> SchedPair {
        SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline)
    }

    #[test]
    fn phase_reactive_tracks_map_completion() {
        let mut p = PhaseReactivePolicy {
            map_pair: asdl(),
            reduce_pair: SchedPair::DEFAULT,
        };
        assert_eq!(p.decide(&snap(0.5, &[4])).0, Some(asdl()));
        assert_eq!(p.decide(&snap(1.0, &[4])).0, Some(SchedPair::DEFAULT));
    }

    #[test]
    fn queue_policy_hysteresis() {
        let mut p = QueueDepthPolicy::new(asdl(), SchedPair::DEFAULT, 8.0, 2.0);
        // Starts idle; needs two confirming ticks above the watermark.
        assert_eq!(p.decide(&snap(0.0, &[10, 10])).0, Some(SchedPair::DEFAULT));
        assert_eq!(p.decide(&snap(0.0, &[12, 12])).0, Some(asdl()));
        // Stays busy at intermediate depths (no thrashing).
        assert_eq!(p.decide(&snap(0.0, &[5, 5])).0, Some(asdl()));
        // Falls back only after two confirmed shallow ticks.
        assert_eq!(p.decide(&snap(0.0, &[1, 1])).0, Some(asdl()));
        assert_eq!(p.decide(&snap(0.0, &[0, 1])).0, Some(SchedPair::DEFAULT));
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn watermark_order_enforced() {
        QueueDepthPolicy::new(asdl(), SchedPair::DEFAULT, 2.0, 8.0);
    }

    #[test]
    fn queue_policy_audit_explains_each_step() {
        let mut p = QueueDepthPolicy::new(asdl(), SchedPair::DEFAULT, 8.0, 2.0);
        // Tick 1: deep queues, first confirming tick — no flip yet.
        let (d, a) = p.decide(&snap(0.0, &[10, 10]));
        assert_eq!(d, Some(SchedPair::DEFAULT));
        assert_eq!(a.signal, "dom0_avg_qdepth");
        assert_eq!(a.observed, 10.0);
        assert_eq!(a.threshold, 8.0, "idle side compares against high watermark");
        assert_eq!((a.streak, a.confirm, a.flipped), (1, 2, false));
        // Tick 2: second confirming tick flips to busy, streak resets.
        let (d, a) = p.decide(&snap(0.0, &[12, 12]));
        assert_eq!(d, Some(asdl()));
        assert_eq!((a.streak, a.flipped), (0, true));
        // Tick 3: busy side now audits against the low watermark.
        let (_, a) = p.decide(&snap(0.0, &[5, 5]));
        assert_eq!(a.threshold, 2.0);
        assert!(!a.flipped);
    }

    #[test]
    fn phase_policy_audit_reports_trigger_sample() {
        let mut p = PhaseReactivePolicy {
            map_pair: asdl(),
            reduce_pair: SchedPair::DEFAULT,
        };
        let (_, a) = p.decide(&snap(0.4, &[4]));
        assert_eq!(a.signal, "maps_done_fraction");
        assert_eq!((a.observed, a.threshold, a.flipped), (0.4, 1.0, false));
        let (_, a) = p.decide(&snap(1.0, &[4]));
        assert!(a.flipped);
    }
}
