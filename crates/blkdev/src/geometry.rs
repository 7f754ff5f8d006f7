//! Disk geometry and parameter sets.
//!
//! The model is a classic mechanical-disk abstraction: logical block
//! addresses map linearly onto (cylinder, track, sector-on-track), seeks
//! cost `settle + factor * sqrt(cylinder distance)`, the platter spins
//! at a fixed RPM (rotational position is a pure function of absolute
//! simulated time), and the media transfer rate is zoned — outer tracks
//! stream faster than inner ones, like a real drive.
//!
//! This is exactly the cost structure the Linux 2.6 elevators were built
//! to optimize (merge adjacent requests, sort by LBA to shorten seeks,
//! anticipate to preserve sequential streams), so reproducing it is what
//! makes scheduler choice matter in the experiments.

use simcore::SimDuration;

/// Bytes per logical sector (fixed, as in the Linux block layer).
pub const SECTOR_BYTES: u64 = 512;

/// Logical block address, in sectors.
pub type Sector = u64;

/// Static description of one disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Total capacity in sectors.
    pub capacity_sectors: Sector,
    /// Sectors per track (assumed constant; zoning is captured in the
    /// transfer rate instead, which is what matters for timing).
    pub sectors_per_track: u64,
    /// Tracks (heads) per cylinder.
    pub tracks_per_cylinder: u64,
    /// Spindle speed in revolutions per minute.
    pub rpm: u64,
    /// Head settle time added to every non-zero seek.
    pub seek_settle: SimDuration,
    /// Seek factor: seek time grows as `factor * sqrt(cylinders)`.
    pub seek_factor_ns_per_sqrt_cyl: u64,
    /// Sequential media rate at the outermost zone, bytes/second.
    pub media_rate_outer: u64,
    /// Sequential media rate at the innermost zone, bytes/second.
    pub media_rate_inner: u64,
    /// Fixed controller/command overhead per request.
    pub controller_overhead: SimDuration,
}

impl Default for DiskParams {
    /// A 1 TB 7200 RPM SATA drive, matching the testbed disks in the
    /// paper (one dedicated SATA disk per node): ~8.3 ms full rotation,
    /// ~0.8–17 ms seeks, 110 MB/s outer / 55 MB/s inner media rate.
    fn default() -> Self {
        let capacity_sectors = 1_953_125_000; // ~1 TB of 512 B sectors
        DiskParams {
            capacity_sectors,
            sectors_per_track: 1024, // 512 KiB per track
            tracks_per_cylinder: 4,
            rpm: 7200,
            seek_settle: SimDuration::from_micros(500),
            // Full stroke (~477 k cylinders) => 0.5 ms + ~16.6 ms.
            seek_factor_ns_per_sqrt_cyl: 24_000,
            media_rate_outer: 110 * 1024 * 1024,
            media_rate_inner: 55 * 1024 * 1024,
            controller_overhead: SimDuration::from_micros(100),
        }
    }
}

impl DiskParams {
    /// Duration of one platter revolution.
    pub fn revolution(&self) -> SimDuration {
        SimDuration::from_nanos(60_000_000_000 / self.rpm)
    }

    /// Sectors per cylinder.
    pub fn sectors_per_cylinder(&self) -> u64 {
        self.sectors_per_track * self.tracks_per_cylinder
    }

    /// Cylinder containing `lba`.
    pub fn cylinder_of(&self, lba: Sector) -> u64 {
        lba / self.sectors_per_cylinder()
    }

    /// Angular position of a sector on its track, in `[0, 1)`.
    pub fn angle_of(&self, lba: Sector) -> f64 {
        (lba % self.sectors_per_track) as f64 / self.sectors_per_track as f64
    }

    /// Zoned media rate at `lba`, bytes/second (linear interpolation
    /// outer→inner; real drives step through discrete zones but the
    /// trend is what matters for timing).
    pub fn media_rate_at(&self, lba: Sector) -> u64 {
        debug_assert!(lba <= self.capacity_sectors);
        let frac = lba as f64 / self.capacity_sectors as f64;
        let outer = self.media_rate_outer as f64;
        let inner = self.media_rate_inner as f64;
        (outer - (outer - inner) * frac) as u64
    }

    /// Seek time between two LBAs (zero when they share a cylinder).
    pub fn seek_time(&self, from: Sector, to: Sector) -> SimDuration {
        let c0 = self.cylinder_of(from);
        let c1 = self.cylinder_of(to);
        let dist = c0.abs_diff(c1);
        if dist == 0 {
            return SimDuration::ZERO;
        }
        let ns = self.seek_settle.as_nanos()
            + (self.seek_factor_ns_per_sqrt_cyl as f64 * (dist as f64).sqrt()) as u64;
        SimDuration::from_nanos(ns)
    }

    /// Transfer time for `sectors` starting at `lba` at the zoned rate.
    pub fn transfer_time(&self, lba: Sector, sectors: u64) -> SimDuration {
        let bytes = sectors * SECTOR_BYTES;
        let rate = self.media_rate_at(lba);
        SimDuration::from_nanos(bytes.saturating_mul(1_000_000_000) / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = DiskParams::default();
        assert_eq!(p.revolution(), SimDuration::from_nanos(8_333_333));
        assert!(p.media_rate_outer > p.media_rate_inner);
        assert!(p.capacity_sectors > 1_000_000_000);
    }

    #[test]
    fn seek_zero_within_cylinder() {
        let p = DiskParams::default();
        let spc = p.sectors_per_cylinder();
        assert_eq!(p.seek_time(0, spc - 1), SimDuration::ZERO);
        assert!(p.seek_time(0, spc) > SimDuration::ZERO);
    }

    #[test]
    fn seek_grows_sublinearly() {
        let p = DiskParams::default();
        let spc = p.sectors_per_cylinder();
        let near = p.seek_time(0, 10 * spc);
        let far = p.seek_time(0, 1000 * spc);
        assert!(far > near);
        // sqrt law: 100x the distance => ~10x the (settle-less) time.
        let near_ns = (near - p.seek_settle).as_nanos() as f64;
        let far_ns = (far - p.seek_settle).as_nanos() as f64;
        assert!((far_ns / near_ns - 10.0).abs() < 0.5);
    }

    #[test]
    fn full_stroke_seek_realistic() {
        let p = DiskParams::default();
        let t = p.seek_time(0, p.capacity_sectors - 1);
        let ms = t.as_secs_f64() * 1e3;
        assert!((10.0..25.0).contains(&ms), "full stroke {ms} ms");
    }

    #[test]
    fn seek_symmetry() {
        let p = DiskParams::default();
        assert_eq!(
            p.seek_time(12345, 9_876_543),
            p.seek_time(9_876_543, 12345)
        );
    }

    #[test]
    fn zoned_rate_monotone_decreasing() {
        let p = DiskParams::default();
        assert_eq!(p.media_rate_at(0), p.media_rate_outer);
        let mid = p.media_rate_at(p.capacity_sectors / 2);
        assert!(mid < p.media_rate_outer && mid > p.media_rate_inner);
    }

    #[test]
    fn transfer_time_outer_zone() {
        let p = DiskParams::default();
        // 1 MiB at the outer zone at 110 MiB/s ≈ 9.09 ms.
        let t = p.transfer_time(0, 2048);
        let ms = t.as_secs_f64() * 1e3;
        assert!((8.9..9.3).contains(&ms), "1 MiB transfer {ms} ms");
    }

    #[test]
    fn angle_wraps_per_track() {
        let p = DiskParams::default();
        assert_eq!(p.angle_of(0), 0.0);
        assert_eq!(p.angle_of(p.sectors_per_track), 0.0);
        let half = p.angle_of(p.sectors_per_track / 2);
        assert!((half - 0.5).abs() < 1e-12);
    }
}
