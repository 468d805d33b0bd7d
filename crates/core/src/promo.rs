//! Promotion buffers: batched, explicit asynchronous I/O for H1→H2 moves.
//!
//! Moving marked objects to H2 happens during the compaction phase of major
//! GC. Writing each (usually small, <1 MB) object with its own system call
//! or through demand paging would be slow, so TeraHeap keeps a 2 MB
//! *promotion buffer per open region* and writes objects to the device in
//! batches (§3.2). This module tracks buffer occupancy and reports when a
//! batch flush happens; the [`crate::h2::H2`] facade charges the device
//! write cost at flush time.

use crate::region::RegionId;

/// Default promotion-buffer size: 2 MB, as in the paper.
pub const DEFAULT_BUFFER_BYTES: usize = 2 << 20;

/// Tracks per-region promotion buffers during a major GC's compaction phase.
#[derive(Debug)]
pub struct Promoter {
    buffer_bytes: usize,
    /// Staged, unflushed bytes by region id (grown on first use of an id).
    pending: Vec<usize>,
    flushes: u64,
    bytes_flushed: u64,
}

impl Promoter {
    /// Creates a promoter with `buffer_bytes`-sized per-region buffers.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_bytes` is zero.
    pub fn new(buffer_bytes: usize) -> Self {
        assert!(buffer_bytes > 0, "promotion buffer must be non-empty");
        Promoter { buffer_bytes, pending: Vec::new(), flushes: 0, bytes_flushed: 0 }
    }

    /// Buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// Total batch flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Total bytes written to the device through the buffers.
    pub fn bytes_flushed(&self) -> u64 {
        self.bytes_flushed
    }

    /// Stages `bytes` of object data headed for `region`. Returns the bytes
    /// flushed to the device by this call (0 if the buffer still has room).
    pub fn stage(&mut self, region: RegionId, bytes: usize) -> usize {
        let buffer_bytes = self.buffer_bytes;
        let slot = self.slot(region);
        *slot += bytes;
        // Closed form: a staged run crossing the buffer boundary n times
        // flushes n full batches, however large the object.
        let batches = *slot / buffer_bytes;
        let flushed = batches * buffer_bytes;
        *slot -= flushed;
        self.flushes += batches as u64;
        self.bytes_flushed += flushed as u64;
        flushed
    }

    fn slot(&mut self, region: RegionId) -> &mut usize {
        let i = region.0 as usize;
        if i >= self.pending.len() {
            self.pending.resize(i + 1, 0);
        }
        &mut self.pending[i]
    }

    /// All regions with pending bytes, in region-id order — the snapshot
    /// [`Promoter::flush_all`] callers take first when a fault plane may
    /// fail the flush and force [`Promoter::unstage`].
    pub fn pending_regions(&self) -> Vec<(RegionId, usize)> {
        self.pending
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot > 0)
            .map(|(i, &slot)| (RegionId(i as u32), slot))
            .collect()
    }

    /// Rolls back one reported flush of `bytes` for `region` after the
    /// device write failed past its retry budget: the bytes go back to
    /// pending (they are still only in DRAM) and the flush counters are
    /// un-charged, so accounting reflects what actually reached the device.
    pub fn unstage(&mut self, region: RegionId, bytes: usize) {
        if bytes == 0 {
            return;
        }
        *self.slot(region) += bytes;
        self.bytes_flushed = self.bytes_flushed.saturating_sub(bytes as u64);
        self.flushes = self.flushes.saturating_sub(1);
    }

    /// Drops all pending bytes without flushing (crash recovery: the staged
    /// data died with DRAM).
    pub fn reset_pending(&mut self) {
        self.pending.clear();
    }

    /// Flushes every partially-filled buffer (end of compaction), one flush
    /// per region with pending bytes. Returns the total bytes written.
    pub fn flush_all(&mut self) -> usize {
        let mut flushed = 0;
        for &slot in self.pending.iter().filter(|&&slot| slot > 0) {
            flushed += slot;
            self.flushes += 1;
        }
        self.pending.clear();
        self.bytes_flushed += flushed as u64;
        flushed
    }
}

impl Default for Promoter {
    fn default() -> Self {
        Self::new(DEFAULT_BUFFER_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_objects_batch_until_full() {
        let mut p = Promoter::new(1000);
        assert_eq!(p.stage(RegionId(0), 400), 0);
        assert_eq!(p.stage(RegionId(0), 400), 0);
        // Third stage crosses the 1000-byte boundary: one batch goes out.
        assert_eq!(p.stage(RegionId(0), 400), 1000);
        assert_eq!(p.flushes(), 1);
        // 200 bytes remain pending.
        assert_eq!(p.flush_all(), 200);
        assert_eq!(p.bytes_flushed(), 1200);
    }

    #[test]
    fn regions_have_independent_buffers() {
        let mut p = Promoter::new(1000);
        p.stage(RegionId(0), 600);
        assert_eq!(p.stage(RegionId(1), 600), 0, "separate buffer per region");
        assert_eq!(p.flush_all(), 1200);
    }

    #[test]
    fn huge_object_flushes_multiple_batches() {
        let mut p = Promoter::new(1000);
        assert_eq!(p.stage(RegionId(0), 3500), 3000);
        assert_eq!(p.flushes(), 3);
        assert_eq!(p.flush_all(), 500);
    }

    #[test]
    fn flush_all_is_idempotent() {
        let mut p = Promoter::new(100);
        p.stage(RegionId(0), 50);
        assert_eq!(p.flush_all(), 50);
        assert_eq!(p.flush_all(), 0);
    }
}
