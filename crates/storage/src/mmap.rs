//! Page-cache cost model for file-backed memory mappings.
//!
//! TeraHeap maps H2 over a file on the storage device (`mmap`), letting the
//! OS virtual-memory system translate references (§3.1). What matters for
//! performance — and what this model simulates — is:
//!
//! * page faults on first touch, transferring a whole page from the device;
//! * a bounded resident set (the paper's DR2 DRAM devoted to the kernel page
//!   cache), evicting least-recently-used pages and writing back dirty ones;
//! * optional 2 MB huge pages (the paper's HugeMap), which cut fault
//!   frequency for streaming access;
//! * DAX-style direct access for byte-addressable NVM (ext4-DAX in the
//!   paper), where there is no page cache and every access pays device
//!   latency.
//!
//! The mapping holds no data; callers own the backing bytes and use
//! [`MmapSim`] purely for cost accounting and statistics.

use crate::clock::{Category, ChargeScope, SimClock};
use crate::device::DeviceSpec;
use crate::fault::{self, FaultPlane};
use crate::shared::DeviceLease;
use crate::stats::IoStats;
use std::sync::Arc;
use teraheap_obs::EventKind;

/// Word size the bulk access plane batches at.
const WORD: usize = 8;

/// Slab slot of the list sentinel. No page ever lives there, so it doubles
/// as the page table's "not resident" value and the free chain's end.
const NIL: u32 = 0;

/// One resident page: a node of the intrusive recency list.
#[derive(Debug, Clone, Copy)]
struct Node {
    page: u64,
    prev: u32,
    next: u32,
    dirty: bool,
}

/// Pages fetched per device command under sequential readahead: the kernel
/// amortizes the per-command latency over a readahead window, which is what
/// lets streaming `mmap` reads reach the device's full bandwidth (the paper
/// measures 2.9 GB/s for the ML workloads' sequential H2 scans, §7.1).
const READAHEAD_PAGES: u64 = 32;

/// Simulated memory-mapped file over a device.
///
/// In *paged* mode (page-granularity devices such as NVMe) it models an LRU
/// page cache with faults and dirty write-back. In *DAX* mode
/// (byte-addressable devices) every touch pays the device's access cost
/// directly and there is no resident set.
///
/// Every range touched or discarded must lie inside the mapping; one that
/// does not is a caller bug and panics, in release builds too.
#[derive(Debug)]
pub struct MmapSim {
    spec: DeviceSpec,
    len: usize,
    page_size: usize,
    /// `log2(page_size)`, kept so the hit path shifts instead of dividing.
    page_shift: u32,
    budget_pages: usize,
    /// Dense page table: page index → slab slot of the page's node, `NIL`
    /// when the page is not resident. Zero-allocated (the allocator hands
    /// back untouched zero pages, so a large sparse mapping costs no
    /// memory until its pages are touched); empty in DAX mode.
    table: Vec<u32>,
    /// Slab of list nodes. `nodes[NIL]` is the sentinel of a circular
    /// doubly-linked list in exact recency order: `nodes[NIL].next` is the
    /// most recently touched page, `nodes[NIL].prev` the eviction victim.
    nodes: Vec<Node>,
    /// Head of the chain of vacated slab slots (threaded through `next`).
    free: u32,
    resident: usize,
    /// Recent sequential-stream heads (the kernel tracks one readahead
    /// window per access stream; a handful suffices for interleaved object
    /// and array scans).
    readahead_heads: [u64; 4],
    readahead_next: usize,
    /// Device service of one page fault, computed once: `[random,
    /// sequential]`; a sequential fault pays 1/READAHEAD_PAGES of the
    /// per-command latency.
    fault_ns: [u64; 2],
    /// Device service of one page's write-back, computed once.
    writeback_ns: u64,
    stats: IoStats,
    /// Armed fault plane, if any: spikes and transient errors hit the fault
    /// and write-back paths. `None` (the default) injects nothing: every
    /// path charges only its device service.
    faults: Option<Arc<FaultPlane>>,
    /// The tenant's lease on its device: every device service (fault
    /// transfer, write-back, msync, DAX run) is served through it, so the
    /// arbiter's queueing delay is charged to the touching category
    /// (DESIGN.md §12). A private mapping leases a one-tenant device.
    lease: DeviceLease,
}

impl MmapSim {
    /// Creates a mapping of `len` bytes over a private device described by
    /// `spec`, with at most `resident_budget` bytes of pages resident at
    /// once, and the given `page_size` (4096 for regular pages, `2 << 20`
    /// for huge pages). Its services are charged to `clock`, the sole
    /// tenant of the device.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or not a power of two.
    pub fn new(
        spec: DeviceSpec,
        len: usize,
        resident_budget: usize,
        page_size: usize,
        clock: Arc<SimClock>,
    ) -> Self {
        Self::leased(DeviceLease::private(spec, len, clock), len, resident_budget, page_size)
    }

    /// [`MmapSim::new`] over a tenant's `lease` on a shared device, charging
    /// the lease's clock.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero or not a power of two.
    pub fn leased(
        lease: DeviceLease,
        len: usize,
        resident_budget: usize,
        page_size: usize,
    ) -> Self {
        let spec = lease.spec();
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        let budget_pages = (resident_budget / page_size).max(1);
        let table_pages = if spec.byte_addressable { 0 } else { len.div_ceil(page_size) };
        let fault_ns = spec.read_cost_ns(page_size);
        MmapSim {
            spec,
            len,
            page_size,
            page_shift: page_size.trailing_zeros(),
            budget_pages,
            table: vec![NIL; table_pages],
            nodes: vec![Node { page: 0, prev: NIL, next: NIL, dirty: false }],
            free: NIL,
            resident: 0,
            readahead_heads: [u64::MAX - 1; 4],
            readahead_next: 0,
            fault_ns: [fault_ns, fault_ns - spec.read_lat_ns + spec.read_lat_ns / READAHEAD_PAGES],
            writeback_ns: spec.write_cost_ns(page_size),
            stats: IoStats::default(),
            faults: None,
            lease,
        }
    }

    /// Charges `service_ns` of device time to `cat` through the arbiter —
    /// for owner-level device costs that bypass the page cache (H2's
    /// promotion-buffer flush writes straight to the device file).
    pub fn charge_device(&self, cat: Category, service_ns: u64) {
        if service_ns > 0 {
            self.lease.serve_now(cat, service_ns, 1);
        }
    }

    /// Arms a fault plane over the mapping: device costs gain the plane's
    /// latency-spike multiplier, page-fault reads and write-backs roll
    /// transient errors (retried with backoff charged to the touching
    /// category).
    pub fn set_fault_plane(&mut self, plane: Arc<FaultPlane>) {
        self.faults = Some(plane);
    }

    /// The armed fault plane, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    /// The page size used by the mapping.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of currently resident pages (always zero in DAX mode).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Page-cache statistics for the mapping.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The device specification backing the mapping, for pricing service
    /// time (latency + bandwidth terms) without issuing traffic.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Whether the mapping bypasses the page cache (byte-addressable device).
    pub fn is_dax(&self) -> bool {
        self.spec.byte_addressable
    }

    /// Touches `[offset, offset + bytes)` for reading, charging fault and
    /// access costs to `cat`.
    pub fn touch_read(&mut self, offset: usize, bytes: usize, cat: Category) {
        self.touch(offset, bytes, false, cat);
    }

    /// Touches `[offset, offset + bytes)` for writing, charging costs to
    /// `cat` and dirtying the pages.
    pub fn touch_write(&mut self, offset: usize, bytes: usize, cat: Category) {
        self.touch(offset, bytes, true, cat);
    }

    /// Panics unless `[offset, offset + bytes)` lies inside the mapping,
    /// with checked arithmetic so an adversarial `offset + bytes` cannot
    /// wrap around and slip past the bound. Always on: the page table is
    /// indexed by what passes here.
    fn check_range(&self, offset: usize, bytes: usize) {
        assert!(
            offset.checked_add(bytes).is_some_and(|end| end <= self.len),
            "touch past end of mapping: {}+{} > {}",
            offset,
            bytes,
            self.len
        );
    }

    /// DAX per-access cost for `bytes`, as charged by a single touch.
    ///
    /// Device latency amortizes over the CPU's prefetch window (a few cache
    /// lines), as it does for real Optane load/store streams — charging the
    /// full per-access latency per word would model a CPU with no caches at
    /// all.
    fn dax_cost_ns(&self, bytes: usize, write: bool) -> u64 {
        const PREFETCH_AMORTIZATION: u64 = 32;
        let cost = if write {
            bytes as u64 * 1_000_000_000 / self.spec.write_bw
                + self.spec.write_lat_ns / PREFETCH_AMORTIZATION
        } else {
            bytes as u64 * 1_000_000_000 / self.spec.read_bw
                + self.spec.read_lat_ns / PREFETCH_AMORTIZATION
        };
        cost.max(1)
    }

    /// Index of the page holding byte `offset` (page sizes are powers of two).
    #[inline]
    fn page_of(&self, offset: usize) -> usize {
        offset >> self.page_shift
    }

    /// `base_ns` of device service, stretched by the armed fault plane's
    /// latency-spike multiplier if there is one.
    fn spiked(&self, base_ns: u64) -> u64 {
        match &self.faults {
            None => base_ns,
            Some(plane) => base_ns.saturating_mul(plane.spike_multiplier()),
        }
    }

    fn touch(&mut self, offset: usize, bytes: usize, write: bool, cat: Category) {
        if bytes == 0 {
            return;
        }
        self.check_range(offset, bytes);
        if self.is_dax() {
            // Direct access: pay the device for exactly the touched bytes.
            let cost = self.dax_cost_ns(bytes, write);
            if write {
                self.stats.record_write(bytes as u64);
            } else {
                self.stats.record_read(bytes as u64);
            }
            self.lease.serve_now(cat, cost, 1);
            return;
        }
        // A touch inside one resident page charges nothing and emits
        // nothing (DESIGN.md §9): answer it without building a scope.
        let page = self.page_of(offset);
        if page == self.page_of(offset + bytes - 1) {
            let slot = self.table[page];
            if slot != NIL {
                self.hit(slot, write);
                return;
            }
        }
        self.touch_pages(offset, bytes, write, cat);
    }

    /// Touches `[offset, offset + bytes)` — a word-aligned run — charging
    /// exactly what the per-word loop
    /// `for w in 0..bytes/8 { touch(offset + 8*w, 8, write, cat) }`
    /// would charge, with closed-form arithmetic instead of per-word
    /// bookkeeping: one resident-set decision per page, one batched clock
    /// charge per scope, one `IoStats` update per run.
    ///
    /// The equivalence (readahead-head evolution, recency order,
    /// fault/eviction interleaving, emitted events — all bit-identical) is
    /// argued in DESIGN.md §9 and pinned by the `bulk_equivalence` property
    /// suite.
    pub fn touch_run(&mut self, offset: usize, bytes: usize, write: bool, cat: Category) {
        if bytes == 0 {
            return;
        }
        debug_assert!(
            offset.is_multiple_of(WORD) && bytes.is_multiple_of(WORD),
            "touch_run requires a word-aligned run: offset {offset}, bytes {bytes}"
        );
        self.check_range(offset, bytes);
        if self.is_dax() {
            // Whole-run cost in a single expression: every word pays the
            // same per-access cost, so the run total is words * cost — one
            // clock update and one stats update, with the charge counter
            // advanced by the per-word call count.
            let words = (bytes / WORD) as u64;
            let cost = self.dax_cost_ns(WORD, write);
            if write {
                self.stats.record_writes(bytes as u64, words);
            } else {
                self.stats.record_reads(bytes as u64, words);
            }
            // The whole run is one arbitrated device command (a sole
            // tenant sees no delay, so run-vs-loop equivalence holds).
            self.lease.serve_now(cat, words * cost, words);
            return;
        }
        debug_assert!(self.page_size >= WORD, "words must not span pages");
        self.touch_pages(offset, bytes, write, cat);
    }

    /// The paged half of a touch: every page overlapping the checked range,
    /// in address order, under one charge scope. Repeat touches of a page
    /// change nothing after the first (it is already dirty enough and
    /// already at the front), so a per-word loop and a whole run agree.
    fn touch_pages(&mut self, offset: usize, bytes: usize, write: bool, cat: Category) {
        let mut scope = ChargeScope::new(cat);
        for page in self.page_of(offset)..=self.page_of(offset + bytes - 1) {
            self.touch_page(page, write, &mut scope);
        }
        scope.flush(self.lease.clock());
    }

    /// Detaches `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Makes the detached `slot` the most recently touched page.
    #[inline]
    fn push_front(&mut self, slot: u32) {
        let head = self.nodes[NIL as usize].next;
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = head;
        self.nodes[head as usize].prev = slot;
        self.nodes[NIL as usize].next = slot;
    }

    /// Drops the resident page at `slot`: off the list, out of the table,
    /// slot onto the free chain.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        self.table[self.nodes[slot as usize].page as usize] = NIL;
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
        self.resident -= 1;
    }

    /// A touch of the resident page at `slot`: set dirty, move to front.
    #[inline]
    fn hit(&mut self, slot: u32, write: bool) {
        self.nodes[slot as usize].dirty |= write;
        if self.nodes[NIL as usize].next != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// One touch of `page`: a [hit](Self::hit), or a miss — a page fault:
    /// transfer the page, push it on the front, evict from the tail while
    /// over budget.
    fn touch_page(&mut self, page: usize, write: bool, scope: &mut ChargeScope) {
        let slot = self.table[page];
        if slot != NIL {
            self.hit(slot, write);
            return;
        }
        self.page_in(page as u64, scope);
        let node = Node { page: page as u64, prev: NIL, next: NIL, dirty: write };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.nodes[slot as usize].next;
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = u32::try_from(self.nodes.len()).expect("resident set fits u32 slots");
            self.nodes.push(node);
            slot
        };
        self.table[page] = slot;
        self.push_front(slot);
        self.resident += 1;
        while self.resident > self.budget_pages {
            let slot = self.nodes[NIL as usize].prev;
            let dirty = self.nodes[slot as usize].dirty;
            self.remove(slot);
            self.page_out(dirty, scope);
        }
    }

    /// Accounts one page fault: transfer the page from the device.
    /// Sequential faults ride the readahead window, paying only
    /// 1/READAHEAD_PAGES of the per-command latency; random faults pay it
    /// in full.
    fn page_in(&mut self, page: u64, scope: &mut ChargeScope) {
        self.stats.record_fault();
        self.stats.record_read(self.page_size as u64);
        let sequential = self.readahead_heads.iter().position(|&h| page == h.wrapping_add(1));
        match sequential {
            Some(i) => self.readahead_heads[i] = page,
            None => {
                self.readahead_heads[self.readahead_next] = page;
                self.readahead_next = (self.readahead_next + 1) % self.readahead_heads.len();
            }
        }
        let sequential = sequential.is_some();
        if sequential {
            self.stats.record_seq_fault();
        }
        self.lease.serve(self.spiked(self.fault_ns[sequential as usize]), 1, scope);
        scope.emit(self.lease.clock(), EventKind::PageFault { sequential });
        if let Some(plane) = &self.faults {
            // Armed plane: the page-in may roll a transient read error,
            // retried with backoff charged to the touching category. Reads
            // always eventually succeed (the kernel's own page-I/O retry
            // loop), so the fault path stays total.
            let out = fault::inject_scoped(plane, self.lease.clock(), scope, false);
            self.stats.record_retries(out.retries as u64);
        }
    }

    /// Accounts the eviction of a page, writing it back if `dirty`.
    fn page_out(&mut self, dirty: bool, scope: &mut ChargeScope) {
        self.stats.record_eviction();
        if dirty {
            self.stats.record_write(self.page_size as u64);
            self.lease.serve(self.spiked(self.writeback_ns), 1, scope);
            if let Some(plane) = &self.faults {
                // Transient write error on the eviction write-back: the
                // kernel keeps the page and retries until it lands, so only
                // the backoff cost is observable here.
                let out = fault::inject_scoped(plane, self.lease.clock(), scope, true);
                self.stats.record_retries(out.retries as u64);
            }
        }
        scope.emit(self.lease.clock(), EventKind::PageEvict { writeback: dirty });
    }

    /// Writes back every dirty resident page (like `msync`), charging `cat`.
    pub fn flush(&mut self, cat: Category) {
        let mut flushed = 0;
        let mut slot = self.nodes[NIL as usize].next;
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            flushed += u64::from(std::mem::take(&mut node.dirty));
            slot = node.next;
        }
        self.msync(flushed, cat);
    }

    /// Accounts one write-back of `pages` dirty pages, if any.
    fn msync(&mut self, pages: u64, cat: Category) {
        if pages == 0 {
            return;
        }
        let bytes = pages * self.page_size as u64;
        self.stats.record_write(bytes);
        let mut scope = ChargeScope::new(cat);
        self.lease.serve(self.spiked(self.spec.write_cost_ns(bytes as usize)), 1, &mut scope);
        scope.emit(self.lease.clock(), EventKind::WriteBack { bytes });
        if let Some(plane) = &self.faults {
            // An msync the kernel retries to completion: only the
            // backoff cost is observable.
            let out = fault::inject_scoped(plane, self.lease.clock(), &mut scope, true);
            self.stats.record_retries(out.retries as u64);
        }
        scope.flush(self.lease.clock());
    }

    /// Drops any resident pages overlapping `[offset, offset + bytes)`
    /// without writing them back (like `madvise(MADV_DONTNEED)`).
    ///
    /// TeraHeap uses this when reclaiming a dead H2 region: its contents are
    /// garbage, so write-back would be wasted I/O.
    pub fn discard(&mut self, offset: usize, bytes: usize) {
        if bytes == 0 {
            return;
        }
        self.check_range(offset, bytes);
        if self.is_dax() {
            return;
        }
        let (first, last) = (self.page_of(offset), self.page_of(offset + bytes - 1));
        for page in first..=last {
            let slot = self.table[page];
            if slot != NIL {
                self.remove(slot);
            }
        }
        // A discarded page is gone from the device's perspective; a later
        // touch of `head + 1` is a fresh fault, not a readahead
        // continuation, so stale heads inside the range must not classify
        // it as sequential.
        for head in &mut self.readahead_heads {
            if (first as u64..=last as u64).contains(head) {
                *head = u64::MAX - 1;
            }
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn nvme_map(len: usize, budget: usize) -> (MmapSim, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let map = MmapSim::new(DeviceSpec::nvme_ssd(), len, budget, 4096, clock.clone());
        (map, clock)
    }

    #[test]
    fn first_touch_faults_second_does_not() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        map.touch_read(0, 8, Category::Mutator);
        assert_eq!(map.stats().page_faults(), 1);
        map.touch_read(8, 8, Category::Mutator);
        assert_eq!(map.stats().page_faults(), 1, "resident page must not re-fault");
        map.touch_read(4096, 8, Category::Mutator);
        assert_eq!(map.stats().page_faults(), 2);
    }

    #[test]
    fn budget_forces_eviction_lru_order() {
        // Budget of exactly 2 pages.
        let (mut map, _clock) = nvme_map(1 << 20, 2 * 4096);
        map.touch_read(0, 1, Category::Mutator); // page 0
        map.touch_read(4096, 1, Category::Mutator); // page 1
        map.touch_read(0, 1, Category::Mutator); // page 0 now MRU
        map.touch_read(8192, 1, Category::Mutator); // page 2 -> evicts page 1
        assert_eq!(map.stats().evictions(), 1);
        assert_eq!(map.resident_pages(), 2);
        // Page 0 must still be resident: touching it must not fault.
        let faults = map.stats().page_faults();
        map.touch_read(0, 1, Category::Mutator);
        assert_eq!(map.stats().page_faults(), faults);
        // Page 1 was evicted: touching it faults.
        map.touch_read(4096, 1, Category::Mutator);
        assert_eq!(map.stats().page_faults(), faults + 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut map, clock) = nvme_map(1 << 20, 4096);
        map.touch_write(0, 8, Category::Mutator);
        let writes_before = map.stats().write_bytes();
        map.touch_read(4096, 8, Category::Mutator); // evicts dirty page 0
        assert_eq!(map.stats().write_bytes(), writes_before + 4096);
        assert!(clock.category_ns(Category::Mutator) > 0);
    }

    #[test]
    fn fault_path_costs_are_the_page_size_costs() {
        let specs = [DeviceSpec::dram(), DeviceSpec::nvme_ssd(), DeviceSpec::optane_nvm()];
        for spec in specs {
            for page_size in [4096, 2 << 20] {
                let clock = Arc::new(SimClock::new());
                let map = MmapSim::new(spec, 4 << 20, 4 << 20, page_size, clock);
                let (read, lat) = (spec.read_cost_ns(page_size), spec.read_lat_ns);
                let seq = read - lat + lat / READAHEAD_PAGES;
                assert_eq!(map.fault_ns, [read, seq], "{spec:?} page {page_size}");
                assert_eq!(map.writeback_ns, spec.write_cost_ns(page_size), "{spec:?}");
            }
        }
    }

    #[test]
    fn clean_eviction_is_free_of_writeback() {
        let (mut map, _clock) = nvme_map(1 << 20, 4096);
        map.touch_read(0, 8, Category::Mutator);
        map.touch_read(4096, 8, Category::Mutator);
        assert_eq!(map.stats().write_bytes(), 0);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        map.touch_write(0, 4096 * 3, Category::Mutator);
        assert_eq!(map.resident_pages(), 3);
        map.discard(0, 4096 * 3);
        assert_eq!(map.resident_pages(), 0);
        assert_eq!(map.stats().write_bytes(), 0);
    }

    #[test]
    fn flush_writes_dirty_pages_once() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        map.touch_write(0, 2 * 4096, Category::Mutator);
        map.flush(Category::Io);
        assert_eq!(map.stats().write_bytes(), 2 * 4096);
        map.flush(Category::Io);
        assert_eq!(map.stats().write_bytes(), 2 * 4096, "second flush is a no-op");
    }

    #[test]
    fn dax_mode_has_no_page_cache() {
        let clock = Arc::new(SimClock::new());
        let mut map = MmapSim::new(DeviceSpec::optane_nvm(), 1 << 20, 4096, 4096, clock.clone());
        assert!(map.is_dax());
        map.touch_read(0, 8, Category::Mutator);
        map.touch_read(0, 8, Category::Mutator);
        assert_eq!(map.resident_pages(), 0);
        assert_eq!(map.stats().page_faults(), 0);
        assert_eq!(map.stats().read_ops(), 2, "every DAX access hits the device");
    }

    #[test]
    fn huge_pages_reduce_fault_count_for_streaming() {
        let len = 8 << 20;
        let clock4 = Arc::new(SimClock::new());
        let mut small = MmapSim::new(DeviceSpec::nvme_ssd(), len, len, 4096, clock4);
        let clock2m = Arc::new(SimClock::new());
        let mut huge = MmapSim::new(DeviceSpec::nvme_ssd(), len, len, 2 << 20, clock2m);
        let step = 4096;
        let mut off = 0;
        while off < len {
            small.touch_read(off, 8, Category::Mutator);
            huge.touch_read(off, 8, Category::Mutator);
            off += step;
        }
        assert!(huge.stats().page_faults() * 100 < small.stats().page_faults());
    }

    #[test]
    fn sequential_faults_are_cheaper_than_random() {
        let len = 4096 * 64;
        let clock_seq = Arc::new(SimClock::new());
        let mut seq = MmapSim::new(DeviceSpec::nvme_ssd(), len, len, 4096, clock_seq.clone());
        for p in 0..64 {
            seq.touch_read(p * 4096, 8, Category::Mutator);
        }
        let clock_rand = Arc::new(SimClock::new());
        let mut rand = MmapSim::new(DeviceSpec::nvme_ssd(), len, len, 4096, clock_rand.clone());
        // Same pages, strided order (never sequential).
        for i in 0..64 {
            let p = (i * 7) % 64;
            rand.touch_read(p * 4096, 8, Category::Mutator);
        }
        assert_eq!(seq.stats().page_faults(), rand.stats().page_faults());
        assert!(
            clock_seq.total_ns() * 4 < clock_rand.total_ns(),
            "readahead must amortize latency: seq {} vs rand {}",
            clock_seq.total_ns(),
            clock_rand.total_ns()
        );
    }

    #[test]
    fn cycling_past_the_budget_always_evicts_the_oldest() {
        // Three pages cycled through a two-page budget: the victim is always
        // the page about to be touched next, so every touch after the first
        // two faults and evicts, for as long as the cycle runs.
        let (mut map, _clock) = nvme_map(1 << 20, 2 * 4096);
        for i in 0..10_000 {
            map.touch_read((i % 3) * 4096, 1, Category::Mutator);
        }
        assert_eq!(map.stats().page_faults(), 10_000);
        assert_eq!(map.stats().evictions(), 10_000 - 2);
        assert_eq!(map.resident_pages(), 2);
    }

    #[test]
    fn discard_invalidates_readahead_heads() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        // Establish a sequential stream over pages 0..4.
        for p in 0..4usize {
            map.touch_read(p * 4096, 8, Category::Mutator);
        }
        assert_eq!(map.stats().seq_faults(), 3);
        // Drop the stream's head page (3), then re-fault page 4. Without
        // head invalidation the stale head 3 would misclassify page 4 as a
        // readahead continuation.
        map.discard(3 * 4096, 4096);
        map.touch_read(4 * 4096, 8, Category::Mutator);
        assert_eq!(
            map.stats().seq_faults(),
            3,
            "fault after MADV_DONTNEED must not ride a discarded stream"
        );
    }

    #[test]
    #[should_panic(expected = "touch past end of mapping")]
    fn overflowing_range_is_caught() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        // offset + bytes wraps usize; the unchecked `offset + bytes <=
        // len` comparison would have accepted it.
        map.touch_read(usize::MAX - 8, 16, Category::Mutator);
    }

    #[test]
    fn last_partial_page_is_mapped_and_discardable() {
        // Three whole pages plus 100 bytes: the tail lives on a fourth page.
        let len = 3 * 4096 + 100;
        let (mut map, _clock) = nvme_map(len, 1 << 20);
        assert_eq!(map.len, len, "the mapping's length in bytes");
        map.touch_write(len - 8, 8, Category::Mutator);
        map.touch_run(3 * 4096, 96, false, Category::Mutator);
        assert_eq!(map.stats().page_faults(), 1, "one fault for the partial page");
        assert_eq!(map.resident_pages(), 1);
        // A discard reaching the end of the mapping drops it, unwritten.
        map.touch_read(2 * 4096, 8, Category::Mutator);
        map.discard(2 * 4096, len - 2 * 4096);
        assert_eq!(map.resident_pages(), 0);
        assert_eq!(map.stats().write_bytes(), 0);
        map.touch_read(len - 1, 1, Category::Mutator);
        assert_eq!(map.stats().page_faults(), 3, "discarded tail page re-faults");
    }

    #[test]
    #[should_panic(expected = "touch past end of mapping")]
    fn touch_past_the_partial_page_is_caught() {
        let (mut map, _clock) = nvme_map(3 * 4096 + 100, 1 << 20);
        // Inside the last page's frame, but past the mapping's length.
        map.touch_read(3 * 4096 + 96, 8, Category::Mutator);
    }

    #[test]
    #[should_panic(expected = "touch past end of mapping")]
    fn discard_past_the_end_is_caught() {
        let (mut map, _clock) = nvme_map(1 << 20, 1 << 20);
        map.discard((1 << 20) - 4096, 2 * 4096);
    }

    #[test]
    fn touch_run_matches_per_word_loop_paged() {
        let len = 4096 * 8;
        let (mut looped, clock_l) = nvme_map(len, 3 * 4096);
        let (mut bulk, clock_b) = nvme_map(len, 3 * 4096);
        // Straddle three pages, forcing faults and an eviction mid-run.
        let (off, bytes) = (4096 - 16, 4096 * 2 + 32);
        for w in 0..bytes / 8 {
            looped.touch_write(off + 8 * w, 8, Category::MajorGc);
        }
        bulk.touch_run(off, bytes, true, Category::MajorGc);
        assert_eq!(clock_l.category_ns(Category::MajorGc), clock_b.category_ns(Category::MajorGc));
        assert_eq!(looped.stats().page_faults(), bulk.stats().page_faults());
        assert_eq!(looped.stats().seq_faults(), bulk.stats().seq_faults());
        assert_eq!(looped.stats().evictions(), bulk.stats().evictions());
        assert_eq!(looped.stats().read_bytes(), bulk.stats().read_bytes());
        // Same recency order left behind: refilling the cache evicts the
        // same dirty pages from both, so the write-back traffic agrees.
        for map in [&mut looped, &mut bulk] {
            for page in 5..8 {
                map.touch_read(page * 4096, 8, Category::MajorGc);
            }
        }
        assert_eq!(looped.stats().write_bytes(), bulk.stats().write_bytes());
        assert_eq!(clock_l.category_ns(Category::MajorGc), clock_b.category_ns(Category::MajorGc));
    }

    #[test]
    fn touch_run_matches_per_word_loop_dax() {
        let clock_l = Arc::new(SimClock::new());
        let mut looped =
            MmapSim::new(DeviceSpec::optane_nvm(), 1 << 20, 4096, 4096, clock_l.clone());
        let clock_b = Arc::new(SimClock::new());
        let mut bulk = MmapSim::new(DeviceSpec::optane_nvm(), 1 << 20, 4096, 4096, clock_b.clone());
        for w in 0..100 {
            looped.touch_read(8 * w, 8, Category::SerDe);
        }
        bulk.touch_run(0, 800, false, Category::SerDe);
        assert_eq!(clock_l.category_ns(Category::SerDe), clock_b.category_ns(Category::SerDe));
        assert_eq!(looped.stats().read_ops(), bulk.stats().read_ops());
        assert_eq!(looped.stats().read_bytes(), bulk.stats().read_bytes());
    }
}
