//! A second crate: its count is its own row.

/// A test-only constant under a stack of attributes. // gone
#[cfg(test)] // gone
#[allow(dead_code)] // gone
const LIMITS: [u8; 2] = [1, 2]; // gone

#[cfg(test)] // gone
use std::cell::Cell; // gone

pub struct Flags {
    pub on: bool,
}

impl Flags {
    pub fn toggle(&mut self) {
        self.on = !self.on;
    }
}

#[cfg(test)] // gone
thread_local! { // gone
    static SEEN: Cell<bool> = const { Cell::new(false) }; // gone
} // gone

pub fn after() -> u8 {
    b'}'
}
