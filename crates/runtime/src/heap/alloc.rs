//! Allocation: eden bump allocation, the large-object and G1 humongous
//! paths into the old generation, and the GC entry points an allocation
//! (or the mutator) triggers.

use super::{Handle, Heap};
use crate::class::{ClassId, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use crate::config::OomError;
use crate::gc;
use crate::object;
use teraheap_core::{Addr, Label};
use teraheap_storage::obs::{EventKind, GcCause};
use teraheap_storage::Category;

impl Heap {
    /// Allocates an instance of `class`. Fields start zeroed/null.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation cannot be satisfied even after
    /// garbage collection.
    pub fn alloc(&mut self, class: ClassId) -> Result<Handle, OomError> {
        let words = self.classes.get(class).instance_words();
        let addr = self.alloc_raw(class, words, 0)?;
        Ok(self.make_root(addr))
    }

    /// Allocates a reference array of `len` elements (all null).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_ref_array(&mut self, len: usize) -> Result<Handle, OomError> {
        self.alloc_array(OBJ_ARRAY_CLASS, len)
    }

    /// Allocates a primitive array of `len` words (zeroed).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_prim_array(&mut self, len: usize) -> Result<Handle, OomError> {
        self.alloc_array(PRIM_ARRAY_CLASS, len)
    }

    fn alloc_array(&mut self, class: ClassId, len: usize) -> Result<Handle, OomError> {
        let words = object::HEADER_WORDS + object::ARRAY_LEN_WORDS + len;
        let addr = self.alloc_raw(class, words, len as u64)?;
        Ok(self.make_root(addr))
    }

    /// Allocates a primitive array as a member of the labeled object group
    /// `label`: the object header is tagged with `label` so a subsequent
    /// [`Heap::h2_move`] promotes the whole group into contiguous
    /// same-label regions. The query plane allocates every column chunk
    /// through this, one label per (table, column), so whole columns move
    /// and die together at region granularity.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_prim_array_labeled(&mut self, len: usize, label: Label) -> Result<Handle, OomError> {
        let h = self.alloc_prim_array(len)?;
        self.h2_tag_root(h, label);
        Ok(h)
    }

    fn alloc_raw(&mut self, class: ClassId, words: usize, array_len: u64) -> Result<Addr, OomError> {
        if let Some(e) = self.pending_oom.take() {
            return Err(e);
        }
        self.clock.charge(Category::Mutator, self.config.cost.alloc_ns);
        self.incr_poll();
        let addr = self.alloc_words(words)?;
        let i = addr.raw() as usize;
        self.mem[i..i + words].fill(0);
        self.mem[i] = object::pack_header(class, words);
        if class == OBJ_ARRAY_CLASS || class == PRIM_ARRAY_CLASS {
            self.mem[i + object::HEADER_WORDS] = array_len;
        }
        if let Some(cyc) = self.cycle.as_deref_mut() {
            cyc.note_alloc(addr, words);
        }
        Ok(addr)
    }

    fn alloc_words(&mut self, words: usize) -> Result<Addr, OomError> {
        // Large objects bypass eden and go straight to the old generation
        // (PS behaviour; Panthera additionally pretenures all big objects).
        let big = words > self.eden.capacity_words() / self.policy.big_object_eden_divisor;
        if big {
            // Old-gen placement must not race the in-flight cycle's plan.
            gc::major::finish(self)?;
            if let Some(a) = self.alloc_old(words) {
                return Ok(a);
            }
            gc::major::major_gc(self, GcCause::LargeAlloc)?;
            return self.alloc_old(words).ok_or_else(|| {
                self.note_oom(OomError {
                    requested_words: words,
                    context: "large allocation does not fit the old generation".to_string(),
                })
            });
        }
        if let Some(a) = self.eden.alloc(words) {
            return Ok(a);
        }
        self.collect_for(words)?;
        self.eden.alloc(words).ok_or_else(|| {
            self.note_oom(OomError {
                requested_words: words,
                context: "eden exhausted after garbage collection".to_string(),
            })
        })
    }

    /// Records an OOM in the flight recorder and fires the crash-dump hook
    /// (`TERAHEAP_OBS_DUMP`), returning the error for propagation.
    pub(crate) fn note_oom(&self, e: OomError) -> OomError {
        self.clock.emit(EventKind::Oom);
        self.clock.tracer().crash_dump(&e.to_string());
        e
    }

    /// Allocates in the old generation, applying G1 humongous-region
    /// rounding when configured.
    pub(crate) fn alloc_old(&mut self, words: usize) -> Option<Addr> {
        let footprint = self.g1_footprint(words);
        // Reserve the rounded footprint but place the object at its start.
        let addr = self.old.alloc(footprint)?;
        if footprint > words {
            self.stats.g1_humongous_waste_words += (footprint - words) as u64;
        }
        self.old_starts.push(addr.raw());
        Some(addr)
    }

    /// The old-generation footprint of an object of `words` words: rounded
    /// up to whole G1 regions when the object is humongous.
    pub(crate) fn g1_footprint(&self, words: usize) -> usize {
        match self.policy.g1_region_words {
            Some(region_words) if words >= region_words / 2 => {
                words.div_ceil(region_words) * region_words
            }
            _ => words,
        }
    }

    /// Makes room in eden for `words`: a young collection, then a major one
    /// if eden still cannot take them.
    fn collect_for(&mut self, words: usize) -> Result<(), OomError> {
        self.collect_young(GcCause::AllocFailure)?;
        if self.eden.free_words() < words {
            gc::major::finish(self)?;
            gc::major::major_gc(self, GcCause::EdenFullAfterGc)?;
        }
        Ok(())
    }

    /// Runs a minor (young-generation) collection now.
    pub fn gc_minor(&mut self) -> Result<(), OomError> {
        self.collect_young(GcCause::Explicit)
    }

    fn collect_young(&mut self, cause: GcCause) -> Result<(), OomError> {
        // A minor GC would evacuate objects out from under the in-flight
        // major cycle's mark stack and live set: finish it first
        // (normally already done — the cycle completes well within one
        // eden refill at the default pacing).
        gc::major::finish(self)?;
        // Promotion guarantee: a minor GC may promote everything live in
        // eden and from-space (doubled under G1, whose humongous rounding
        // can inflate a footprint up to 2x), so fall back to a full GC when
        // the old generation cannot absorb that worst case.
        let young = self.eden.used_words() + self.from.used_words();
        if self.old.free_words() < young * self.policy.worst_promotion_factor {
            return gc::major::major_gc(self, GcCause::PromotionGuarantee);
        }
        gc::minor::minor_gc(self, cause);
        gc::major::maybe_start(self);
        Ok(())
    }

    /// Runs a major (full) collection now.
    ///
    /// With a sliced cycle in flight, running it to completion *is* the
    /// requested major collection; otherwise a fresh cycle runs whole.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if live data exceeds the old generation.
    pub fn gc_major(&mut self) -> Result<(), OomError> {
        let had_cycle = self.cycle.is_some();
        gc::major::finish(self)?;
        if had_cycle {
            return Ok(());
        }
        gc::major::major_gc(self, GcCause::Explicit)
    }

    /// Runs the next pause slice of the in-flight major cycle once
    /// enough mutator time has elapsed since the last one
    /// (`pause_budget_ns / PACE_DIVISOR` — the clock delta captures every
    /// mutator charge, including accessor costs).
    pub(crate) fn incr_poll(&mut self) {
        if self.in_gc {
            return;
        }
        let Some(cyc) = self.cycle.as_deref() else { return };
        let pace = (self.config.pause_budget_ns / gc::major::PACE_DIVISOR).max(1);
        if self.clock.total_ns() - cyc.last_slice_end_ns >= pace {
            gc::major::run_slice(self, self.config.pause_budget_ns);
        }
    }
}
