//! Time-resolved telemetry for one node stack.
//!
//! [`NodeTelemetry`] holds the level-gated histograms and sim-time
//! series a [`crate::NodeStack`] records beyond its flat
//! [`crate::LevelCounters`]: per-level request latency (guest latency
//! split by job phase, which is what the paper's per-phase argument
//! needs), dispatched merge-run lengths, physical seek distances,
//! switch drain/re-init durations, and windowed series of queue depth,
//! disk busy time, ring occupancy and per-VM completed bytes.
//!
//! Every recording method checks [`Telemetry::full`] first and
//! returns immediately below that level, so a stack built with
//! [`Telemetry::Off`] or [`Telemetry::Counters`] pays one branch per
//! site and allocates nothing.

use simcore::{
    Histogram, MetricsRegistry, SeriesKind, SimTime, Telemetry, TimeSeries,
};

/// Histograms + time series of one node, recorded only at
/// [`Telemetry::Full`].
#[derive(Debug, Clone)]
pub struct NodeTelemetry {
    /// The instrumentation level every recording site checks.
    pub level: Telemetry,
    /// Current job phase code (1–3; 0 before the driver sets it).
    phase: u8,
    /// Guest submit → completion latency, ns, split by phase (index =
    /// `phase.saturating_sub(1)`).
    guest_lat: [Histogram; 3],
    /// Dom0 ring-entry → completion latency, ns.
    dom0_lat: Histogram,
    /// Guest-dispatched extent lengths, sectors (merge run length).
    guest_run: Histogram,
    /// Dom0-dispatched extent lengths, sectors.
    dom0_run: Histogram,
    /// Absolute head movement between consecutive dispatches, sectors.
    seek_dist: Histogram,
    /// Switch drain durations (begin → swap), ns, both levels.
    drain: Histogram,
    /// Switch re-init stalls (swap → thaw), ns, both levels.
    reinit: Histogram,
    /// Where the previous physical request ended.
    last_sector: Option<u64>,
    /// Dom0 elevator queue depth, sampled after each arrival.
    dom0_qdepth: TimeSeries,
    /// Guest elevator queue depth, all VMs folded.
    guest_qdepth: TimeSeries,
    /// Physical service ns accumulated per bucket: value / bucket_ns =
    /// disk utilisation.
    disk_busy: TimeSeries,
    /// Ring occupancy after each change, all VMs folded.
    ring_occ: TimeSeries,
    /// Completed bytes per VM (throughput when divided by the bucket).
    vm_bytes: Vec<TimeSeries>,
}

impl NodeTelemetry {
    /// Telemetry state for a node with `vm_count` guests.
    pub fn new(level: Telemetry, vm_count: u32) -> Self {
        NodeTelemetry {
            level,
            phase: 0,
            guest_lat: [Histogram::new(), Histogram::new(), Histogram::new()],
            dom0_lat: Histogram::new(),
            guest_run: Histogram::new(),
            dom0_run: Histogram::new(),
            seek_dist: Histogram::new(),
            drain: Histogram::new(),
            reinit: Histogram::new(),
            last_sector: None,
            dom0_qdepth: TimeSeries::standard(SeriesKind::Mean),
            guest_qdepth: TimeSeries::standard(SeriesKind::Mean),
            disk_busy: TimeSeries::standard(SeriesKind::Rate),
            ring_occ: TimeSeries::standard(SeriesKind::Mean),
            vm_bytes: (0..vm_count)
                .map(|_| TimeSeries::standard(SeriesKind::Rate))
                .collect(),
        }
    }

    /// The driver announces the job phase (1–3) so guest latency can be
    /// recorded per phase.
    pub fn set_phase(&mut self, phase: u8) {
        self.phase = phase;
    }

    fn phase_idx(&self) -> usize {
        (self.phase.saturating_sub(1) as usize).min(2)
    }

    /// A request entered an elevator; `depth` is the queue depth after.
    pub fn on_arrival(&mut self, now: SimTime, host_level: bool, depth: usize) {
        if !self.level.full() {
            return;
        }
        let s = if host_level { &mut self.dom0_qdepth } else { &mut self.guest_qdepth };
        s.record(now, depth as f64);
    }

    /// A guest elevator dispatched a merged extent into the ring.
    pub fn on_guest_dispatch(&mut self, sectors: u64) {
        if !self.level.full() {
            return;
        }
        self.guest_run.record(sectors);
    }

    /// Dom0 dispatched `sectors` at `sector`; the physical service will
    /// keep the disk busy for `service_ns`.
    pub fn on_dom0_dispatch(&mut self, now: SimTime, sector: u64, sectors: u64, service_ns: u64) {
        if !self.level.full() {
            return;
        }
        self.dom0_run.record(sectors);
        if let Some(last) = self.last_sector {
            self.seek_dist.record(last.abs_diff(sector));
        }
        self.last_sector = Some(sector + sectors);
        self.disk_busy.record(now, service_ns as f64);
    }

    /// A Dom0-level request part completed `lat_ns` after ring entry.
    pub fn on_dom0_complete(&mut self, lat_ns: u64) {
        if !self.level.full() {
            return;
        }
        self.dom0_lat.record(lat_ns);
    }

    /// A guest-submitted request part completed `lat_ns` after submit.
    pub fn on_guest_complete(&mut self, lat_ns: u64) {
        if !self.level.full() {
            return;
        }
        let i = self.phase_idx();
        self.guest_lat[i].record(lat_ns);
    }

    /// A VM's completed bytes (per-VM throughput series).
    pub fn on_vm_bytes(&mut self, now: SimTime, vm: u32, bytes: u64) {
        if !self.level.full() {
            return;
        }
        self.vm_bytes[vm as usize].record(now, bytes as f64);
    }

    /// Ring occupancy changed.
    pub fn on_ring_occ(&mut self, now: SimTime, occupied: u32) {
        if !self.level.full() {
            return;
        }
        self.ring_occ.record(now, occupied as f64);
    }

    /// A switch finished draining after `drain_ns`.
    pub fn on_drain(&mut self, drain_ns: u64) {
        if !self.level.full() {
            return;
        }
        self.drain.record(drain_ns);
    }

    /// A switch froze its level for `reinit_ns`.
    pub fn on_reinit(&mut self, reinit_ns: u64) {
        if !self.level.full() {
            return;
        }
        self.reinit.record(reinit_ns);
    }

    /// Fold this node's telemetry into `reg` as the `hist` and
    /// `series` sections of the metrics document. `vm_base` is the
    /// cluster-global index of this node's VM 0, so per-VM series get
    /// distinct names across nodes. No-op below [`Telemetry::Full`],
    /// so lower levels keep the document free of empty sections.
    pub fn export(&self, reg: &mut MetricsRegistry, vm_base: usize) {
        if !self.level.full() {
            return;
        }
        for (i, h) in self.guest_lat.iter().enumerate() {
            reg.merge_hist("hist", &format!("guest_lat_ph{}_ns", i + 1), h);
        }
        reg.merge_hist("hist", "dom0_lat_ns", &self.dom0_lat);
        reg.merge_hist("hist", "guest_run_sectors", &self.guest_run);
        reg.merge_hist("hist", "dom0_run_sectors", &self.dom0_run);
        reg.merge_hist("hist", "seek_sectors", &self.seek_dist);
        reg.merge_hist("hist", "drain_ns", &self.drain);
        reg.merge_hist("hist", "reinit_ns", &self.reinit);
        reg.merge_series("series", "dom0_qdepth", &self.dom0_qdepth);
        reg.merge_series("series", "guest_qdepth", &self.guest_qdepth);
        reg.merge_series("series", "disk_busy_ns", &self.disk_busy);
        reg.merge_series("series", "ring_occ", &self.ring_occ);
        for (v, s) in self.vm_bytes.iter().enumerate() {
            reg.merge_series("series", &format!("vm{}_bytes", vm_base + v), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing_and_exports_nothing() {
        let mut t = NodeTelemetry::new(Telemetry::Counters, 2);
        t.on_guest_complete(1000);
        t.on_dom0_dispatch(SimTime::from_millis(1), 100, 8, 500);
        t.on_vm_bytes(SimTime::from_millis(2), 1, 4096);
        let mut reg = MetricsRegistry::new();
        t.export(&mut reg, 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn full_level_records_per_phase_latency_and_series() {
        let mut t = NodeTelemetry::new(Telemetry::Full, 1);
        t.set_phase(1);
        t.on_guest_complete(1_000);
        t.set_phase(3);
        t.on_guest_complete(9_000);
        t.on_dom0_dispatch(SimTime::from_millis(1), 1000, 8, 500);
        t.on_dom0_dispatch(SimTime::from_millis(2), 2000, 8, 500);
        let mut reg = MetricsRegistry::new();
        t.export(&mut reg, 4);
        let j = reg.into_json().to_string();
        assert!(j.contains("guest_lat_ph1_ns"), "{j}");
        assert!(j.contains("guest_lat_ph3_ns"), "{j}");
        // Seek distance needs two dispatches: |2000 - 1008| = 992.
        assert!(j.contains("\"seek_sectors\":{\"count\":1"), "{j}");
        assert!(j.contains("vm4_bytes"), "{j}");
    }
}
