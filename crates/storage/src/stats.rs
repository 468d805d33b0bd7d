//! I/O and page-cache statistics counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O statistics of a mapping.
///
/// The paper reports device traffic repeatedly (e.g. §7.2's "increases
/// device traffic by up to 98% (writes)", §7.5's NVM read/write operation
/// counts), so every simulated component keeps these counters.
///
/// Single writer, like the [`SimClock`](crate::SimClock) its owner charges:
/// one mapping updates a set of counters, on the one thread its
/// simulation runs on, so an update is a relaxed load + store. Any thread
/// may read.
#[derive(Debug, Default)]
pub struct IoStats {
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    page_faults: AtomicU64,
    seq_faults: AtomicU64,
    evictions: AtomicU64,
    io_retries: AtomicU64,
}

/// Single-writer counter update (see [`IoStats`]).
#[inline]
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl IoStats {
    /// Records one read operation of `bytes` transferred.
    #[inline]
    pub fn record_read(&self, bytes: u64) {
        bump(&self.read_bytes, bytes);
        bump(&self.read_ops, 1);
    }

    /// Records one write operation of `bytes` transferred.
    #[inline]
    pub fn record_write(&self, bytes: u64) {
        bump(&self.write_bytes, bytes);
        bump(&self.write_ops, 1);
    }

    /// Records `ops` read operations totalling `bytes` in two counter
    /// updates — the bulk access plane's equivalent of `ops` calls to
    /// [`IoStats::record_read`].
    #[inline]
    pub fn record_reads(&self, bytes: u64, ops: u64) {
        bump(&self.read_bytes, bytes);
        bump(&self.read_ops, ops);
    }

    /// Records `ops` write operations totalling `bytes`, like
    /// [`IoStats::record_reads`].
    #[inline]
    pub fn record_writes(&self, bytes: u64, ops: u64) {
        bump(&self.write_bytes, bytes);
        bump(&self.write_ops, ops);
    }

    /// Records one page fault.
    #[inline]
    pub fn record_fault(&self) {
        bump(&self.page_faults, 1);
    }

    /// Records one sequential (readahead-amortized) page fault.
    #[inline]
    pub fn record_seq_fault(&self) {
        bump(&self.seq_faults, 1);
    }

    /// Number of sequential page faults.
    pub fn seq_faults(&self) -> u64 {
        self.seq_faults.load(Ordering::Relaxed)
    }

    /// Records one page eviction.
    #[inline]
    pub fn record_eviction(&self) {
        bump(&self.evictions, 1);
    }

    /// Records `n` fault-injected I/O retry attempts (no-op for `n == 0`,
    /// the universal fault-free case).
    #[inline]
    pub fn record_retries(&self, n: u64) {
        if n > 0 {
            bump(&self.io_retries, n);
        }
    }

    /// Number of fault-injected I/O retries performed.
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Total bytes read from the device.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes written to the device.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }

    /// Number of read operations.
    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    /// Number of write operations.
    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed)
    }

    /// Number of page faults taken.
    pub fn page_faults(&self) -> u64 {
        self.page_faults.load(Ordering::Relaxed)
    }

    /// Number of resident pages evicted.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.record_read(100);
        s.record_read(50);
        s.record_write(10);
        s.record_fault();
        s.record_eviction();
        assert_eq!(s.read_bytes(), 150);
        assert_eq!(s.read_ops(), 2);
        assert_eq!(s.write_bytes(), 10);
        assert_eq!(s.write_ops(), 1);
        assert_eq!(s.page_faults(), 1);
        assert_eq!(s.evictions(), 1);
    }
}
