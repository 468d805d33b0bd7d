//! Kept: a module whose test oracle lives in its own file.

pub fn twice(x: u64) -> u64 {
    x * 2
}

#[cfg(test)] // gone
mod oracle; // gone

pub fn thrice(x: u64) -> u64 {
    x * 3
}
