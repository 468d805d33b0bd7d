//! Simulated storage devices.
//!
//! The paper's H2 is "agnostic to the specific device" but is evaluated over
//! a block-addressable NVMe SSD (Samsung PM983) and byte-addressable NVM
//! (Intel Optane DC PMem, App Direct mode over ext4-DAX). The distinguishing
//! characteristics that drive the paper's results are captured here:
//!
//! * NVMe is accessed in 4 KB page granularity; every access transfers a
//!   whole page even when a few bytes are needed (§2), so small random
//!   accesses suffer amplification.
//! * NVM is byte-addressable with load/store latency a few times DRAM.
//! * Bandwidth caps: the paper measures 2.9 GB/s peak NVMe read throughput
//!   saturating during ML workload streaming (§7.1).

use crate::clock::{Category, SimClock};
use crate::fault::{self, FaultPlane};
use crate::stats::IoStats;
use crate::PAGE_SIZE;
use std::sync::Arc;
use teraheap_obs::EventKind;
use teraheap_util::sync::Mutex;

/// The kind of device backing a mapping or file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Plain DRAM (used for H1 and as the reference point).
    Dram,
    /// Block-addressable NVMe SSD (page-granularity access).
    NvmeSsd,
    /// Byte-addressable non-volatile memory (Optane-style).
    Nvm,
}

/// Latency/bandwidth model of a storage device.
///
/// All latencies are simulated nanoseconds. The absolute values are scaled
/// but their *ratios* follow the hardware the paper uses, which is what the
/// reproduced result shapes depend on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Which device family this models.
    pub kind: DeviceKind,
    /// Fixed latency charged per read operation.
    pub read_lat_ns: u64,
    /// Fixed latency charged per write operation.
    pub write_lat_ns: u64,
    /// Sustained read bandwidth in bytes per simulated second.
    pub read_bw: u64,
    /// Sustained write bandwidth in bytes per simulated second.
    pub write_bw: u64,
    /// Whether the device supports byte-granularity access. When `false`,
    /// every access is rounded up to whole 4 KB pages.
    pub byte_addressable: bool,
}

impl DeviceSpec {
    /// DRAM: nanosecond-scale latency, tens of GB/s, byte-addressable.
    pub fn dram() -> Self {
        DeviceSpec {
            kind: DeviceKind::Dram,
            read_lat_ns: 80,
            write_lat_ns: 80,
            read_bw: 20_000_000_000,
            write_bw: 20_000_000_000,
            byte_addressable: true,
        }
    }

    /// NVMe SSD modelled after the Samsung PM983 in the paper's NVMe server:
    /// ~80 µs read latency, ~2.9 GB/s read / ~1.4 GB/s write throughput,
    /// page-granularity access.
    pub fn nvme_ssd() -> Self {
        DeviceSpec {
            kind: DeviceKind::NvmeSsd,
            read_lat_ns: 80_000,
            write_lat_ns: 20_000,
            read_bw: 2_900_000_000,
            write_bw: 1_400_000_000,
            byte_addressable: false,
        }
    }

    /// Byte-addressable NVM modelled after Intel Optane DC PMem in App
    /// Direct mode: ~3–4× DRAM load latency, asymmetric bandwidth.
    pub fn optane_nvm() -> Self {
        DeviceSpec {
            kind: DeviceKind::Nvm,
            read_lat_ns: 300,
            write_lat_ns: 100,
            read_bw: 6_000_000_000,
            write_bw: 2_000_000_000,
            byte_addressable: true,
        }
    }

    /// Rounds `bytes` up to the device's access granularity.
    pub fn access_bytes(&self, bytes: usize) -> usize {
        if self.byte_addressable || bytes == 0 {
            bytes
        } else {
            bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE
        }
    }

    /// Simulated cost of reading `bytes` (latency + transfer time).
    pub fn read_cost_ns(&self, bytes: usize) -> u64 {
        let b = self.access_bytes(bytes) as u64;
        self.read_lat_ns + b.saturating_mul(1_000_000_000) / self.read_bw
    }

    /// Simulated cost of writing `bytes` (latency + transfer time).
    pub fn write_cost_ns(&self, bytes: usize) -> u64 {
        let b = self.access_bytes(bytes) as u64;
        self.write_lat_ns + b.saturating_mul(1_000_000_000) / self.write_bw
    }
}

/// A simulated device with real backing bytes.
///
/// Used wherever the system stores actual data off-heap: the serialized
/// off-heap caches of Spark-SD and Giraph-OOC, and spill files. Reads and
/// writes charge their simulated cost to the given [`SimClock`] category and
/// update [`IoStats`].
///
/// Cloning shares the underlying storage (it is an `Arc` inside), mirroring
/// several components holding the same open file.
#[derive(Debug, Clone)]
pub struct SimDevice {
    spec: DeviceSpec,
    data: Arc<Mutex<Vec<u8>>>,
    stats: Arc<IoStats>,
    clock: Arc<SimClock>,
    capacity: usize,
    plane: Option<Arc<FaultPlane>>,
}

impl SimDevice {
    /// Creates a device of `capacity` bytes. Storage is allocated lazily.
    pub fn new(spec: DeviceSpec, capacity: usize, clock: Arc<SimClock>) -> Self {
        SimDevice {
            spec,
            data: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(IoStats::default()),
            clock,
            capacity,
            plane: None,
        }
    }

    /// Arms a fault plane over the device: reads and writes gain the
    /// plane's latency-spike multiplier and may roll per-direction
    /// transient errors, retried with backoff charged to the operation's
    /// category. A write that exhausts its retry budget fails with
    /// [`DeviceError::Io`] before any byte lands.
    pub fn set_fault_plane(&mut self, plane: Arc<FaultPlane>) {
        self.plane = Some(plane);
    }

    /// The device's latency/bandwidth model.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Writes `buf` at `offset`, charging the cost to `cat`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfSpace`] if the write extends past the
    /// device capacity.
    pub fn write(&self, offset: usize, buf: &[u8], cat: Category) -> Result<(), DeviceError> {
        let end = offset
            .checked_add(buf.len())
            .ok_or(DeviceError::OutOfSpace)?;
        if end > self.capacity {
            return Err(DeviceError::OutOfSpace);
        }
        if let Some(plane) = self.plane.as_deref() {
            let mult = plane.spike_multiplier();
            self.clock
                .charge(cat, self.spec.write_cost_ns(buf.len()).saturating_mul(mult));
            let out = fault::inject(plane, &self.clock, cat, true);
            self.stats.record_retries(out.retries as u64);
            if !out.ok {
                // Retry budget exhausted: the write fails before any byte
                // lands (the attempts' cost was already charged above).
                return Err(DeviceError::Io);
            }
        } else {
            self.clock.charge(cat, self.spec.write_cost_ns(buf.len()));
        }
        let mut data = self.data.lock();
        if offset == data.len() {
            // Appending (every blob-cache write): no zero fill to overwrite.
            data.extend_from_slice(buf);
        } else {
            if data.len() < end {
                data.resize(end, 0);
            }
            data[offset..end].copy_from_slice(buf);
        }
        drop(data);
        let bytes = self.spec.access_bytes(buf.len()) as u64;
        self.stats.record_write(bytes);
        self.clock.emit(EventKind::DeviceWrite { bytes });
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset` into `buf`, charging to `cat`.
    ///
    /// Bytes never written read back as zero.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfSpace`] if the read extends past capacity.
    pub fn read(&self, offset: usize, buf: &mut [u8], cat: Category) -> Result<(), DeviceError> {
        let end = offset
            .checked_add(buf.len())
            .ok_or(DeviceError::OutOfSpace)?;
        if end > self.capacity {
            return Err(DeviceError::OutOfSpace);
        }
        let data = self.data.lock();
        // The written prefix in one copy; the never-written tail reads zero.
        let written = data.len().clamp(offset, end) - offset;
        buf[..written].copy_from_slice(&data[offset..offset + written]);
        drop(data);
        buf[written..].fill(0);
        self.account_read(buf.len(), cat);
        Ok(())
    }

    /// Reads `len` bytes at `offset` without copying them out: charges,
    /// counts, fault-injects and emits exactly what [`SimDevice::read`] of
    /// the same range does — all before `f` runs, as a copy followed by its
    /// consumer would — and hands `f` the bytes in place.
    ///
    /// The device's storage stays locked while `f` runs, so `f` must not
    /// touch this device (or a clone of it). Consumers run heap code in `f`
    /// (deserialization allocates, collects and promotes to H2); that is
    /// sound because every blob device is a private `SimDevice` the heap
    /// never writes — H2 lives on a [`SharedDevice`](crate::SharedDevice),
    /// which deliberately offers no `view`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfSpace`] if the range extends past
    /// capacity and [`DeviceError::Unwritten`] if it extends past the
    /// written prefix: there are no bytes to lend there, and a view is never
    /// a short slice. Nothing is charged on error.
    pub fn view<R>(
        &self,
        offset: usize,
        len: usize,
        cat: Category,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, DeviceError> {
        let end = offset.checked_add(len).ok_or(DeviceError::OutOfSpace)?;
        if end > self.capacity {
            return Err(DeviceError::OutOfSpace);
        }
        let data = self.data.lock();
        let bytes = data.get(offset..end).ok_or(DeviceError::Unwritten)?;
        self.account_read(len, cat);
        Ok(f(bytes))
    }

    /// The simulated side of reading `len` bytes: charge (with the fault
    /// plane's spike and retries, if armed), statistics, event.
    fn account_read(&self, len: usize, cat: Category) {
        if let Some(plane) = self.plane.as_deref() {
            let mult = plane.spike_multiplier();
            self.clock.charge(cat, self.spec.read_cost_ns(len).saturating_mul(mult));
            let out = fault::inject(plane, &self.clock, cat, false);
            self.stats.record_retries(out.retries as u64);
        } else {
            self.clock.charge(cat, self.spec.read_cost_ns(len));
        }
        let bytes = self.spec.access_bytes(len) as u64;
        self.stats.record_read(bytes);
        self.clock.emit(EventKind::DeviceRead { bytes });
    }
}

/// Errors returned by [`SimDevice`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The operation extends past the device capacity.
    OutOfSpace,
    /// A borrowed view extends past the bytes written so far.
    Unwritten,
    /// An injected transient write error survived the whole retry budget
    /// (only reachable with an armed fault plane).
    Io,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfSpace => write!(f, "device out of space"),
            DeviceError::Unwritten => write!(f, "view past the device's written prefix"),
            DeviceError::Io => write!(f, "device i/o error (injected, retries exhausted)"),
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn nvme_rounds_to_pages() {
        let spec = DeviceSpec::nvme_ssd();
        assert_eq!(spec.access_bytes(1), PAGE_SIZE);
        assert_eq!(spec.access_bytes(4096), PAGE_SIZE);
        assert_eq!(spec.access_bytes(4097), 2 * PAGE_SIZE);
        assert_eq!(spec.access_bytes(0), 0);
    }

    #[test]
    fn nvm_is_byte_granular() {
        let spec = DeviceSpec::optane_nvm();
        assert_eq!(spec.access_bytes(1), 1);
        assert_eq!(spec.access_bytes(4097), 4097);
    }

    #[test]
    fn device_latency_ordering_matches_hardware() {
        // DRAM < NVM < NVMe for small-access latency; that ordering drives
        // every comparison in the paper.
        let one_word = 8;
        let dram = DeviceSpec::dram().read_cost_ns(one_word);
        let nvm = DeviceSpec::optane_nvm().read_cost_ns(one_word);
        let nvme = DeviceSpec::nvme_ssd().read_cost_ns(one_word);
        assert!(dram < nvm, "dram {dram} !< nvm {nvm}");
        assert!(nvm < nvme, "nvm {nvm} !< nvme {nvme}");
    }

    #[test]
    fn read_back_written_bytes() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, clock.clone());
        dev.write(100, b"hello", Category::Io).unwrap();
        let mut buf = [0u8; 5];
        dev.read(100, &mut buf, Category::Io).unwrap();
        assert_eq!(&buf, b"hello");
        assert!(clock.category_ns(Category::Io) > 0);
    }

    #[test]
    fn unwritten_bytes_read_zero() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 1024, clock);
        let mut buf = [7u8; 16];
        dev.read(0, &mut buf, Category::Io).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_straddling_the_written_prefix_zero_fills_the_tail() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 1024, clock);
        dev.write(100, b"hello", Category::Io).unwrap();
        let mut buf = [7u8; 10];
        dev.read(102, &mut buf, Category::Io).unwrap();
        assert_eq!(&buf, b"llo\0\0\0\0\0\0\0");
    }

    /// What a sequence of reads leaves observable on a device.
    fn read_trace(plan: FaultPlan, by_view: bool) -> (Vec<u8>, Vec<u64>, Vec<teraheap_obs::Event>) {
        let clock = Arc::new(SimClock::new());
        clock.tracer().set_level(teraheap_obs::Level::Full);
        let mut dev = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, clock.clone());
        let plane = plan.enabled.then(|| FaultPlane::new(plan));
        if let Some(plane) = &plane {
            dev.set_fault_plane(plane.clone());
        }
        let blob: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        dev.write(0, &blob, Category::Io).unwrap();
        let mut seen = Vec::new();
        for k in 0..64usize {
            let (offset, len) = (k * 131 % 9000, 1 + k * 97 % 1000);
            if by_view {
                dev.view(offset, len, Category::SerDe, |b| seen.extend_from_slice(b)).unwrap();
            } else {
                let mut buf = vec![0u8; len];
                dev.read(offset, &mut buf, Category::SerDe).unwrap();
                seen.extend_from_slice(&buf);
            }
        }
        let mut counters: Vec<u64> = Category::ALL.iter().map(|&c| clock.category_ns(c)).collect();
        counters.extend(clock.tracer().charge_counts());
        let s = dev.stats();
        counters.extend([
            s.read_bytes(),
            s.read_ops(),
            s.write_bytes(),
            s.write_ops(),
            s.io_retries(),
        ]);
        if let Some(plane) = &plane {
            counters.extend([plane.retries(), plane.faults_injected()]);
        }
        (seen, counters, clock.tracer().events())
    }

    #[test]
    fn view_is_indistinguishable_from_read() {
        let chaos = FaultPlan::zero_rate(11)
            .with_error_ppm(300_000, 0)
            .with_retries(6, 10_000)
            .with_spike(4, 2, 8);
        for plan in [FaultPlan::none(), FaultPlan::zero_rate(11), chaos] {
            let read = read_trace(plan, false);
            assert_eq!(read_trace(plan, true), read, "{plan:?}");
            if plan.read_err_ppm > 0 {
                let retries = read.1[read.1.len() - 2];
                assert!(retries > 0, "the chaos plan must inject read retries");
            }
        }
    }

    #[test]
    fn view_past_the_written_prefix_is_an_error_and_free() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 1024, clock.clone());
        dev.write(100, b"hello", Category::Io).unwrap();
        let before = clock.total_ns();
        assert_eq!(dev.view(102, 10, Category::Io, |b| b.len()), Err(DeviceError::Unwritten));
        assert_eq!(dev.view(105, 1, Category::Io, |b| b.len()), Err(DeviceError::Unwritten));
        assert_eq!(dev.view(1020, 8, Category::Io, |b| b.len()), Err(DeviceError::OutOfSpace));
        assert_eq!(
            dev.view(usize::MAX, 2, Category::Io, |b| b.len()),
            Err(DeviceError::OutOfSpace)
        );
        assert_eq!((clock.total_ns(), dev.stats().read_ops()), (before, 0));
        // Up to the last written byte it is the written bytes, gap included.
        assert_eq!(dev.view(98, 7, Category::Io, |b| b.to_vec()).unwrap(), b"\0\0hello");
        assert_eq!(dev.view(105, 0, Category::Io, |b| b.len()), Ok(0));
    }

    #[test]
    fn appended_and_overlapping_writes_land() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 1024, clock);
        dev.write(0, b"abcd", Category::Io).unwrap(); // append to empty
        dev.write(4, b"efgh", Category::Io).unwrap(); // append at the end
        dev.write(2, b"XY", Category::Io).unwrap(); // overwrite inside
        dev.write(6, b"ZZZZ", Category::Io).unwrap(); // straddle the end
        dev.write(12, b"!", Category::Io).unwrap(); // past the end: gap reads zero
        assert_eq!(dev.view(0, 13, Category::Io, |b| b.to_vec()).unwrap(), b"abXYefZZZZ\0\0!");
    }

    #[test]
    fn out_of_space_errors() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 16, clock);
        assert_eq!(
            dev.write(10, &[0u8; 8], Category::Io),
            Err(DeviceError::OutOfSpace)
        );
        let mut buf = [0u8; 8];
        assert_eq!(
            dev.read(12, &mut buf, Category::Io),
            Err(DeviceError::OutOfSpace)
        );
    }

    #[test]
    fn stats_count_page_granularity() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, clock);
        dev.write(0, &[1u8; 10], Category::Io).unwrap();
        // 10 bytes on NVMe transfer a whole page.
        assert_eq!(dev.stats().write_bytes(), PAGE_SIZE as u64);
        assert_eq!(dev.stats().write_ops(), 1);
    }

    #[test]
    fn clones_share_storage() {
        let clock = Arc::new(SimClock::new());
        let dev = SimDevice::new(DeviceSpec::dram(), 1024, clock);
        let dev2 = dev.clone();
        dev.write(0, b"x", Category::Io).unwrap();
        let mut buf = [0u8; 1];
        dev2.read(0, &mut buf, Category::Io).unwrap();
        assert_eq!(&buf, b"x");
    }
}
