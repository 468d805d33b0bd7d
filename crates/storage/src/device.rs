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
use crate::shared::DeviceLease;
use crate::PAGE_SIZE;
use std::sync::Arc;
use teraheap_obs::EventKind;

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

/// A blob held on a [`SimDevice`]: the serialized bytes themselves, owned by
/// whichever cache slot names them. Dropping the blob frees the bytes, so a
/// slot that is unpersisted, replaced or retired gives its memory back by
/// construction.
#[derive(Debug)]
pub struct Blob(Vec<u8>);

/// A blob's buffer is never smaller than glibc's mmap threshold (as
/// `benchmark/run.sh` pins it). A request that size gets a mapping of its
/// own, which goes back to the system the moment the blob is dropped; a
/// smaller one comes off the heap's free lists, where freed bytes stay
/// resident below whatever was allocated after them (the hundred-odd
/// sub-threshold blobs an RL arm of `spark_batch` holds cost the arms after
/// it 9 MiB of peak RSS). Only the stored bytes are ever touched, so the
/// slack is address space, not memory.
const MIN_BLOB_CAPACITY: usize = 128 << 10;

impl Blob {
    /// Length of the stored bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the blob holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The simulated device under the serialized off-heap caches of Spark-SD
/// and Giraph-OOC, which reach it only through `kryo_sim::offload` and
/// `kryo_sim::reload`: a blob tier. [`SimDevice::store`] takes a serialized
/// buffer and [`SimDevice::load`] lends it back whole; each is one device
/// command served through the device's lease, charged to the given
/// [`Category`] of the tenant's clock. Cost and events depend on the blob's
/// length alone, never on where it lies, which is why the device hands the
/// bytes to the caller as an owned [`Blob`] instead of keeping an address
/// space.
#[derive(Debug)]
pub struct SimDevice {
    spec: DeviceSpec,
    /// The sole tenant's lease on a private one-tenant device.
    lease: DeviceLease,
    capacity: usize,
    /// Bytes ever stored; freed blobs do not give capacity back.
    stored: usize,
    /// The buffer of the last blob handed back, emptied
    /// ([`SimDevice::recycle`]).
    spare: Vec<u8>,
}

impl SimDevice {
    /// Creates a device that accepts `capacity` bytes over its lifetime and
    /// charges its services to `clock`.
    pub fn new(spec: DeviceSpec, capacity: usize, clock: Arc<SimClock>) -> Self {
        SimDevice {
            spec,
            lease: DeviceLease::private(spec, capacity, clock),
            capacity,
            stored: 0,
            spare: Vec::new(),
        }
    }

    /// Bytes ever stored, refused blobs excepted.
    pub fn stored_bytes(&self) -> usize {
        self.stored
    }

    /// Writes `bytes` to the device as one blob, charging the cost to `cat`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfSpace`] if the bytes ever stored would
    /// pass the device capacity; nothing is charged for a refused blob.
    pub fn store(&mut self, mut bytes: Vec<u8>, cat: Category) -> Result<Blob, DeviceError> {
        let end = self.stored.checked_add(bytes.len()).filter(|&end| end <= self.capacity);
        self.stored = end.ok_or(DeviceError::OutOfSpace)?;
        self.lease.serve_now(cat, self.spec.write_cost_ns(bytes.len()), 1);
        let accessed = self.spec.access_bytes(bytes.len()) as u64;
        self.lease.clock().emit(EventKind::DeviceWrite { bytes: accessed });
        bytes.reserve_exact(MIN_BLOB_CAPACITY.saturating_sub(bytes.len()));
        Ok(Blob(bytes))
    }

    /// Takes back a blob its owner is done with, charging nothing: its
    /// buffer, emptied, is the next [`SimDevice::take_spare`], so the next
    /// blob is written into pages the last one already faulted in instead
    /// of a fresh mapping. The device keeps one such buffer, for as long as
    /// it lives.
    pub fn recycle(&mut self, blob: Blob) {
        let mut buffer = blob.0;
        buffer.clear();
        self.spare = buffer;
    }

    /// An empty buffer to write the next blob's bytes into: the last one
    /// [`SimDevice::recycle`] took back, or a new one.
    pub fn take_spare(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.spare)
    }

    /// Reads `blob` back whole, charging the cost to `cat`, and lends its
    /// bytes (consumers deserialize straight from them).
    pub fn load<'b>(&self, blob: &'b Blob, cat: Category) -> &'b [u8] {
        self.lease.serve_now(cat, self.spec.read_cost_ns(blob.len()), 1);
        let accessed = self.spec.access_bytes(blob.len()) as u64;
        self.lease.clock().emit(EventKind::DeviceRead { bytes: accessed });
        &blob.0
    }
}

/// Errors returned by [`SimDevice`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// The blob does not fit the capacity the device has left.
    OutOfSpace,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfSpace => write!(f, "device out of space"),
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_obs::{Event, Level};

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
        let mut dev = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, clock.clone());
        let hello = dev.store(b"hello".to_vec(), Category::Io).unwrap();
        let empty = dev.store(Vec::new(), Category::Io).unwrap();
        assert_eq!((hello.len(), empty.is_empty()), (5, true));
        assert_eq!(dev.load(&hello, Category::Io), b"hello");
        assert_eq!(dev.load(&empty, Category::Io), b"");
        assert!(clock.category_ns(Category::Io) > 0);
    }

    /// `[store ns, load ns, accessed bytes]` of one blob of each length, as
    /// the offset-addressed `write`/`view` pair charged, counted and emitted
    /// them for a range of that length (captured at the parent of PR 20).
    const LENGTHS: [usize; 3] = [1, 4096, 10_000];
    const NVME: [[u64; 3]; 3] =
        [[22_925, 81_412, 4096], [22_925, 81_412, 4096], [28_777, 84_237, 12_288]];
    const NVM: [[u64; 3]; 3] = [[100, 300, 1], [2148, 982, 4096], [5100, 1966, 10_000]];

    #[test]
    fn store_and_load_charge_what_write_and_view_did() {
        for (spec, golden) in [(DeviceSpec::nvme_ssd(), NVME), (DeviceSpec::optane_nvm(), NVM)] {
            for (len, [store_ns, load_ns, accessed]) in LENGTHS.into_iter().zip(golden) {
                let clock = Arc::new(SimClock::new());
                clock.tracer().set_level(Level::Full);
                let mut dev = SimDevice::new(spec, 1 << 20, clock.clone());
                let blob = dev.store(vec![7u8; len], Category::Io).unwrap();
                assert_eq!(dev.load(&blob, Category::SerDe).len(), len);
                let arm = format!("{:?} x {len}", spec.kind);
                let ns: Vec<u64> = Category::ALL.iter().map(|&c| clock.category_ns(c)).collect();
                assert_eq!(ns.iter().sum::<u64>(), store_ns + load_ns, "{arm}");
                assert_eq!(clock.category_ns(Category::Io), store_ns, "{arm}");
                assert_eq!(clock.category_ns(Category::SerDe), load_ns, "{arm}");
                assert_eq!(clock.tracer().charge_counts().iter().sum::<u64>(), 2, "{arm}");
                let write = EventKind::DeviceWrite { bytes: accessed };
                let read = EventKind::DeviceRead { bytes: accessed };
                assert_eq!(
                    clock.tracer().events(),
                    [
                        Event { seq: 0, t_ns: store_ns, kind: write },
                        Event { seq: 1, t_ns: store_ns + load_ns, kind: read },
                    ],
                    "{arm}"
                );
            }
        }
    }

    #[test]
    fn store_and_load_are_served_through_the_lease() {
        let clock = Arc::new(SimClock::new());
        let spec = DeviceSpec::nvme_ssd();
        let mut dev = SimDevice::new(spec, 1 << 20, clock.clone());
        let blob = dev.store(vec![3u8; 5000], Category::Io).unwrap();
        dev.load(&blob, Category::Io);
        let service = spec.write_cost_ns(5000) + spec.read_cost_ns(5000);
        let io = dev.lease.io();
        assert_eq!((io.ops, io.busy_ns, io.queued_ns), (2, service, 0));
        assert_eq!(clock.total_ns(), service);
        // A refused blob books nothing and leaves the clock where it was.
        assert_eq!(
            dev.store(vec![0u8; 1 << 20], Category::Io).err(),
            Some(DeviceError::OutOfSpace)
        );
        assert_eq!((dev.lease.io(), clock.total_ns()), (io, service));
    }

    #[test]
    fn out_of_space_errors() {
        let clock = Arc::new(SimClock::new());
        let mut dev = SimDevice::new(DeviceSpec::dram(), 16, clock.clone());
        let first = dev.store(vec![0u8; 10], Category::Io).unwrap();
        let (ns, ops) = (clock.total_ns(), dev.lease.io().ops);
        // Capacity counts the bytes ever stored: a refused blob costs
        // nothing, and freeing a stored one gives no room back.
        assert_eq!(dev.store(vec![0u8; 8], Category::Io).err(), Some(DeviceError::OutOfSpace));
        drop(first);
        assert_eq!(dev.store(vec![0u8; 8], Category::Io).err(), Some(DeviceError::OutOfSpace));
        assert_eq!((clock.total_ns(), dev.lease.io().ops), (ns, ops));
        dev.store(vec![0u8; 6], Category::Io).expect("exactly fills the device");
        assert_eq!(dev.stored_bytes(), 16);
    }

    #[test]
    fn stats_count_page_granularity() {
        let clock = Arc::new(SimClock::new());
        clock.tracer().set_level(Level::Full);
        let mut dev = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, clock.clone());
        dev.store(vec![1u8; 10], Category::Io).unwrap();
        // 10 bytes on NVMe transfer a whole page.
        let write = EventKind::DeviceWrite { bytes: PAGE_SIZE as u64 };
        assert_eq!(clock.tracer().events().last().map(|e| e.kind), Some(write));
        assert_eq!(dev.stored_bytes(), 10);
    }
}
