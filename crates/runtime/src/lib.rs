//! A toy managed runtime — the JVM substrate the TeraHeap paper extends.
//!
//! The paper implements TeraHeap inside OpenJDK 8 by extending the Parallel
//! Scavenge (PS) collector, the interpreter and the JIT compilers' post-write
//! barriers (§4). No managed GC runtime exists for this reproduction, so this
//! crate builds one with the same structure:
//!
//! * a JVM-like **object model** ([`object`], [`class`]): two header words
//!   (class/size/age/GC bits, plus the 8-byte H2 *label* field §3.2 adds),
//!   reference fields first, then primitive words; reference and primitive
//!   arrays;
//! * an **H1 heap** ([`heap::Heap`]) with eden/from/to survivor spaces and an
//!   old generation, bump allocation, a card table for old→young references
//!   and post-write barriers with TeraHeap's extra reference range check;
//! * a **minor GC** ([`gc::minor`]): copying scavenge with aging/tenuring,
//!   rooted at handles, dirty H1 cards and H2 backward references, fenced
//!   from crossing into H2;
//! * a **major GC** ([`gc::major`]): the PS four-phase mark–compact
//!   (marking, pre-compaction, pointer adjustment, compaction), extended
//!   with the paper's five marking-phase tasks, H2 address assignment in
//!   pre-compaction, backward/cross-region bookkeeping in adjustment and
//!   promotion-buffered H2 moves in compaction — one stop-world cycle;
//! * **baseline collectors** for the evaluation: a G1-style cost model with
//!   humongous-object fragmentation, a Panthera-style DRAM/NVM split old
//!   generation, and an NVM "Memory mode" access model — all selected via
//!   [`config::GcVariant`] and [`config::HeapConfig::memory_mode`].
//!
//! Mutator code (the mini-Spark/mini-Giraph frameworks) manipulates objects
//! exclusively through [`heap::Heap`] with GC-safe [`heap::Handle`] roots,
//! and the whole simulation charges deterministic nanoseconds to a
//! [`teraheap_storage::SimClock`].
//!
//! # Example
//!
//! ```
//! use teraheap_runtime::{Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let class = heap.register_class("Pair", 1, 1);
//! let a = heap.alloc(class).unwrap();
//! let b = heap.alloc(class).unwrap();
//! heap.write_ref(a, 0, b);
//! heap.write_prim(b, 0, 42);
//! let b2 = heap.read_ref(a, 0).unwrap();
//! assert_eq!(heap.read_prim(b2, 0), 42);
//! ```

pub mod check;
pub mod class;
pub mod config;
pub mod gc;
pub mod heap;
pub mod object;
pub mod report;
pub mod space;
pub mod stats;

pub use check::{CheckError, CheckReport};
pub use class::{ClassDesc, ClassId, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
pub use config::{ConfigError, GcVariant, HeapConfig, OomError, VariantPolicy};
pub use heap::{H1Prims, Handle, Heap, Pin, WordBatch};
pub use report::RunReport;
pub use stats::{GcStats, MajorPhases};
pub use teraheap_storage::obs;
pub use teraheap_storage::{AttachError, SharedDevice, TenantId, TenantIo};
