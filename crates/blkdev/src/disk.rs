//! The disk device: stateful head/platter model turning (LBA, length)
//! requests into service times.
//!
//! The device services one request at a time (queue depth 1): ordering
//! and merging are the job of the elevator above it, which is precisely
//! the division of labour in the Linux block layer and the reason the
//! choice of elevator is visible in end-to-end performance.

use crate::geometry::{DiskParams, Sector, SECTOR_BYTES};
use simcore::{SimDuration, SimTime};

/// Timing decomposition of one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Command/controller overhead.
    pub overhead: SimDuration,
    /// Arm movement time.
    pub seek: SimDuration,
    /// Rotational wait after the seek.
    pub rotation: SimDuration,
    /// Media transfer time.
    pub transfer: SimDuration,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }

    /// True if the request was serviced without repositioning
    /// (sequential continuation).
    pub fn is_sequential(&self) -> bool {
        self.seek.is_zero() && self.rotation.is_zero()
    }
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Default)]
pub struct DiskStats {
    /// Requests serviced.
    pub requests: u64,
    /// Requests serviced without repositioning.
    pub sequential_requests: u64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Time spent seeking.
    pub seek_time: SimDuration,
    /// Time spent in rotational waits.
    pub rotation_time: SimDuration,
    /// Time spent transferring.
    pub transfer_time: SimDuration,
    /// Total busy time (all components).
    pub busy_time: SimDuration,
}

/// A mechanical disk with a head position and a spinning platter.
#[derive(Debug, Clone)]
pub struct Disk {
    params: DiskParams,
    /// LBA one past the end of the last serviced request — the sector
    /// under the head, for sequential detection.
    head: Sector,
    stats: DiskStats,
}

impl Disk {
    /// New disk with the head parked at LBA 0.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            head: 0,
            stats: DiskStats::default(),
        }
    }

    /// The disk's parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Current head LBA.
    pub fn head(&self) -> Sector {
        self.head
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Service a request beginning at absolute simulated time `now`,
    /// updating head position and statistics. Returns the timing
    /// decomposition; the caller schedules the completion event at
    /// `now + breakdown.total()`.
    ///
    /// Reads and writes are costed identically: on the paper's workloads
    /// the drive's write-back cache saturates almost immediately (Hadoop
    /// spills and dd runs are far larger than any on-drive cache), so
    /// sustained writes are positioning-bound exactly like reads. See
    /// DESIGN.md §2.
    pub fn service(
        &mut self,
        now: SimTime,
        start: Sector,
        sectors: u64,
        _write: bool,
    ) -> ServiceBreakdown {
        assert!(sectors > 0, "zero-length disk request");
        assert!(
            start + sectors <= self.params.capacity_sectors,
            "request [{start}, {}) beyond capacity {}",
            start + sectors,
            self.params.capacity_sectors
        );

        let overhead = self.params.controller_overhead;
        let (seek, rotation) = if start == self.head {
            // Sequential continuation: the head is already there and the
            // target sector is rotating under it (drives use track skew
            // to make cross-track sequential access seamless).
            (SimDuration::ZERO, SimDuration::ZERO)
        } else {
            let seek = self.params.seek_time(self.head, start);
            // The platter angle is a pure function of absolute time, so
            // rotational waits are deterministic.
            let arrive = now + overhead + seek;
            let rev = self.params.revolution();
            let angle_now = (arrive.as_nanos() % rev.as_nanos()) as f64 / rev.as_nanos() as f64;
            let target = self.params.angle_of(start);
            let frac = (target - angle_now).rem_euclid(1.0);
            let rotation = SimDuration::from_nanos((frac * rev.as_nanos() as f64) as u64);
            (seek, rotation)
        };
        let transfer = self.params.transfer_time(start, sectors);

        let b = ServiceBreakdown {
            overhead,
            seek,
            rotation,
            transfer,
        };
        self.head = start + sectors;
        self.stats.requests += 1;
        if b.is_sequential() {
            self.stats.sequential_requests += 1;
        }
        self.stats.bytes += sectors * SECTOR_BYTES;
        self.stats.seek_time += seek;
        self.stats.rotation_time += rotation;
        self.stats.transfer_time += transfer;
        self.stats.busy_time += b.total();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::default())
    }

    #[test]
    fn sequential_run_streams_at_media_rate() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        // Position once, then stream 64 x 256 KiB sequentially.
        let req_sectors = 512; // 256 KiB
        let mut start = 0;
        let first = d.service(now, start, req_sectors, false);
        now += first.total();
        start += req_sectors;
        let mut seq_total = SimDuration::ZERO;
        for _ in 0..64 {
            let b = d.service(now, start, req_sectors, false);
            assert!(b.is_sequential(), "continuation must not reposition");
            seq_total += b.total();
            now += b.total();
            start += req_sectors;
        }
        let bytes = 64.0 * 256.0 * 1024.0;
        let rate = bytes / seq_total.as_secs_f64() / (1024.0 * 1024.0);
        // Outer zone is 110 MiB/s; controller overhead shaves a little.
        assert!((95.0..111.0).contains(&rate), "sequential rate {rate} MiB/s");
    }

    #[test]
    fn random_requests_are_positioning_bound() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        let cap = d.params().capacity_sectors;
        let mut total = SimDuration::ZERO;
        let mut lba = 1_000_000;
        for i in 0..64u64 {
            // Deterministic scatter across the whole disk.
            lba = (lba + 314_159_265 + i * 2_718_281) % (cap - 1024);
            let b = d.service(now, lba, 512, false);
            total += b.total();
            now += b.total();
        }
        let avg_ms = total.as_secs_f64() * 1e3 / 64.0;
        // ~settle + sqrt-seek + half-rev + 2.4ms transfer: 8–25 ms.
        assert!((6.0..30.0).contains(&avg_ms), "avg random svc {avg_ms} ms");
        let bytes = 64.0 * 256.0 * 1024.0;
        let rate = bytes / total.as_secs_f64() / (1024.0 * 1024.0);
        assert!(
            rate < 35.0,
            "random 256 KiB I/O should be far below media rate, got {rate} MiB/s"
        );
    }

    #[test]
    fn rotation_bounded_by_one_revolution() {
        let mut d = disk();
        let rev = d.params().revolution();
        for i in 0..200 {
            let b = d.service(
                SimTime::from_millis(i * 17),
                (i * 7_654_321) % 1_900_000_000,
                64,
                false,
            );
            assert!(b.rotation < rev, "rotational wait exceeds a revolution");
        }
    }

    #[test]
    fn head_tracks_request_end() {
        let mut d = disk();
        d.service(SimTime::ZERO, 1000, 64, true);
        assert_eq!(d.head(), 1064);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        let b1 = d.service(now, 5000, 128, false); // head parked at 0: repositions
        now += b1.total();
        let b2 = d.service(now, 5128, 128, true); // sequential
        let _ = b2;
        let s = d.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.sequential_requests, 1);
        assert_eq!(s.bytes, 256 * SECTOR_BYTES);
        assert!(s.busy_time > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn rejects_out_of_range() {
        let mut d = disk();
        let cap = d.params().capacity_sectors;
        d.service(SimTime::ZERO, cap - 10, 64, false);
    }

    #[test]
    fn service_is_deterministic() {
        let mut a = disk();
        let mut b = disk();
        for i in 0..50u64 {
            let lba = (i * 97_003) % 1_000_000;
            let x = a.service(SimTime::from_micros(i * 911), lba, 32, false);
            let y = b.service(SimTime::from_micros(i * 911), lba, 32, false);
            assert_eq!(x, y);
        }
    }
}
