//! Poison-free lock shim over `std::sync`.
//!
//! One property over `std::sync::Mutex`: `lock()` returns a guard directly
//! instead of a `Result` poisoned by a panicking holder. A poisoned std
//! lock simply yields its inner guard — for this simulation the data is
//! either test-local or rebuilt per run, so recovering the guard is always
//! the right call.

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering the guard even if a previous holder
    /// panicked.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trips() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(5));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock recovers after a panicking holder");
    }
}
