//! Round memory: the word buffers a server run hands from one tenant round
//! to the next (DESIGN.md §12).
//!
//! Every H1 word array and H2 store is allocated through [`zeroed`] and
//! returned through [`give_back`]. Outside a [`Recycling`] scope these are
//! `vec![0; len]` and a plain drop. Inside one, a dropped buffer is zeroed
//! where it was written and parked in a thread-local pool, and the next
//! request of exactly its length takes it instead of mapping fresh pages
//! the kernel must fault in again. The pool holds all-zero buffers only and
//! is emptied when the scope ends, so no parked buffer outlives the run
//! that parked it.

use std::cell::RefCell;
use std::marker::PhantomData;

/// Words in a 4 KiB page.
const PAGE_WORDS: usize = crate::PAGE_SIZE / std::mem::size_of::<u64>();

#[derive(Default)]
struct Pool {
    /// A [`Recycling`] scope is open on this thread.
    active: bool,
    /// Parked all-zero buffers.
    spares: Vec<Vec<u64>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::default();
}

/// Recycles word buffers on this thread while alive, and frees every parked
/// buffer when dropped. One scope at a time per thread.
#[must_use = "buffers are recycled only while the scope is alive"]
pub struct Recycling {
    /// Thread-bound: the pool it opens is this thread's.
    _thread: PhantomData<*const ()>,
}

impl Recycling {
    /// Opens a recycling scope on the current thread.
    pub fn begin() -> Self {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            debug_assert!(!p.active, "recycling scopes do not nest");
            p.active = true;
        });
        Recycling { _thread: PhantomData }
    }
}

impl Drop for Recycling {
    fn drop(&mut self) {
        POOL.with(|p| *p.borrow_mut() = Pool::default());
    }
}

/// An all-zero buffer of `len` words: a parked one of exactly that length
/// inside a [`Recycling`] scope, a fresh allocation otherwise.
pub fn zeroed(len: usize) -> Vec<u64> {
    let spare = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let at = p.spares.iter().position(|s| s.len() == len)?;
        Some(p.spares.swap_remove(at))
    });
    spare.unwrap_or_else(|| vec![0; len])
}

/// Hands `words` back as its owner drops it. Inside a [`Recycling`] scope,
/// `zero` clears every word the owner wrote (and touches nothing else, so
/// pages never written stay unmapped) and the buffer is parked; outside
/// one, this does nothing and the owner frees `words` as usual.
pub fn give_back(words: &mut Vec<u64>, zero: impl FnOnce(&mut [u64])) {
    if !POOL.with(|p| p.borrow().active) {
        return;
    }
    zero(words);
    debug_assert!(words.iter().all(|&w| w == 0), "a parked buffer must be all-zero");
    let words = std::mem::take(words);
    POOL.with(|p| p.borrow_mut().spares.push(words));
}

/// Zeroes every page of `words` that holds a nonzero word, page by page of
/// the host's 4 KiB pages: a page never written is read at most, never
/// written.
pub fn zero_written_pages(words: &mut [u64]) {
    let head = words.as_ptr().align_offset(crate::PAGE_SIZE).min(words.len());
    let (first, rest) = words.split_at_mut(head);
    for page in std::iter::once(first).chain(rest.chunks_mut(PAGE_WORDS)) {
        if page.iter().any(|&w| w != 0) {
            page.fill(0);
        }
    }
}

/// Buffers parked on this thread (0 outside a [`Recycling`] scope).
pub fn parked() -> usize {
    POOL.with(|p| p.borrow().spares.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outside_a_scope_nothing_is_parked() {
        let mut words = zeroed(1024);
        words[3] = 7;
        give_back(&mut words, |_| unreachable!("no scope, no zeroing"));
        assert_eq!(words[3], 7, "the owner frees its buffer as before");
        assert_eq!(parked(), 0);
    }

    #[test]
    fn a_parked_buffer_is_reused_for_its_exact_length_only() {
        let _scope = Recycling::begin();
        let mut words = zeroed(4096);
        let ptr = words.as_ptr();
        words[100] = 1;
        words[3000] = 2;
        give_back(&mut words, zero_written_pages);
        assert!(words.is_empty());
        assert_eq!(parked(), 1);
        assert_eq!(zeroed(4095).len(), 4095, "another length allocates");
        assert_eq!(parked(), 1);
        let again = zeroed(4096);
        assert_eq!(again.as_ptr(), ptr, "the parked buffer is taken");
        assert!(again.iter().all(|&w| w == 0));
        assert_eq!(parked(), 0);
    }

    #[test]
    fn the_scope_end_empties_the_pool() {
        let scope = Recycling::begin();
        give_back(&mut zeroed(64), |_| {});
        assert_eq!(parked(), 1);
        drop(scope);
        assert_eq!(parked(), 0);
        give_back(&mut zeroed(64), |_| unreachable!("the scope is over"));
        assert_eq!(parked(), 0);
    }

    #[test]
    fn zeroing_clears_every_written_page_wherever_pages_start() {
        let mut words = vec![0u64; 5 * PAGE_WORDS];
        let head = words.as_ptr().align_offset(crate::PAGE_SIZE);
        let marked = head + PAGE_WORDS + 17;
        words[marked] = 9;
        let last = words.len() - 1;
        words[last] = 5;
        zero_written_pages(&mut words);
        assert!(words.iter().all(|&w| w == 0));
    }
}
