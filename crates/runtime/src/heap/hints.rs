//! The TeraHeap side of the API (§3.2): attaching H2, the `h2_tag_root` /
//! `h2_move` hints, H2 region dependencies, and the charge/span hooks
//! frameworks cost their work through.

use super::{Handle, Heap};
use teraheap_core::{Addr, H2Config, Label, H2};
use teraheap_storage::obs::SpanKind;
use teraheap_storage::{AttachError, Category, SharedDevice, TraceSpan};

impl Heap {
    /// Attaches a TeraHeap second heap over a tenant partition of `device`.
    ///
    /// Corresponds to launching the JVM with `EnableTeraHeap`. The heap must
    /// have been registered as a tenant of the device beforehand (via
    /// [`SharedDevice::new`] or [`SharedDevice::add_tenant`]) **with this
    /// heap's clock**: tenant identity *is* clock identity, so a heap and its
    /// device partition structurally share one [`teraheap_storage::SimClock`]
    /// — the invariant every simulated-time comparison in the repo depends
    /// on. Attachment fails if the clock is unknown to the device, if the
    /// partition is already attached, or if the configured H2 footprint
    /// ([`H2Config::footprint_bytes`]) exceeds the tenant's quota — quota
    /// violations surface here, not at first I/O.
    pub fn attach_h2(&mut self, h2_config: H2Config, device: &SharedDevice) -> Result<(), AttachError> {
        let h2 = H2::attach(h2_config, device, self.clock.clone())?;
        self.h2_starts = vec![Vec::new(); h2.regions().region_count()];
        self.h2 = Some(h2);
        Ok(())
    }

    /// Enables the uncharged H2 liveness tracing that Figure 10 needs.
    pub fn track_h2_liveness(&mut self, on: bool) {
        self.track_h2_liveness = on;
    }

    /// `h2_tag_root(obj, label)`: tags a root key-object for H2 placement by
    /// writing the label into the object header's label field.
    pub fn h2_tag_root(&mut self, h: Handle, label: Label) {
        let (obj, _) = self.mutator_view(self.root_of(h));
        self.set_word(obj.add(1), label.id());
    }

    /// `h2_move(label)`: advises TeraHeap to move all objects tagged with
    /// `label` to H2 during the next major GC. No-op without TeraHeap.
    pub fn h2_move(&mut self, label: Label) {
        if let Some(h2) = self.h2.as_mut() {
            h2.h2_move(label);
        }
    }

    /// The label tagged on the object behind `h` (0 = untagged).
    pub fn h2_label_of(&self, h: Handle) -> u64 {
        self.word(self.mutator_view(self.root_of(h)).0.add(1))
    }

    /// Records the directional cross-region dependency of an H2→H2
    /// reference from `from` to `to` (§4).
    pub(crate) fn note_h2_dependency(&mut self, from: Addr, to: Addr) {
        let h2 = self.h2.as_mut().expect("H2 reference without H2");
        let (from, to) = (h2.regions().region_of(from), h2.regions().region_of(to));
        if from != to {
            h2.regions_mut().add_dependency(from, to);
        }
    }

    /// Charges `ops` element-operations of mutator compute, divided across
    /// the configured mutator threads. The charge routes through the
    /// clock's tracer, so the flight recorder attributes it per category.
    pub fn charge_ops(&mut self, ops: u64) {
        let ns = ops * self.config.cost.mutator_op_ns / self.config.mutator_threads.max(1) as u64;
        self.clock.charge(Category::Mutator, ns);
        self.incr_poll();
    }

    /// Charges `ns` nanoseconds directly to a category, divided across
    /// mutator threads (frameworks use this for S/D work).
    pub fn charge_ns(&mut self, cat: Category, ns: u64) {
        self.clock.charge(cat, ns / self.config.mutator_threads.max(1) as u64);
        self.incr_poll();
    }

    /// Opens a mutator-side flight-recorder span (stage, shuffle, ...); the
    /// returned guard records the span end when dropped. The guard holds the
    /// clock, not the heap, so it can live across `&mut self` calls.
    pub fn span(&self, kind: SpanKind) -> TraceSpan {
        self.clock.span(kind)
    }
}
