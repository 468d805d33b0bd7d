//! The oracle the test module names: its file goes whole. gone
mod deep; // gone

pub fn twice(x: u64) -> u64 { // gone
    x + x // gone
} // gone
