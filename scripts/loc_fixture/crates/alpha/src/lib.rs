//! A fixture for scripts/loc.sh, never compiled: every line the stripper
//! must drop ends in the marker comment, and every other line is kept.

mod inner;

use std::collections::BTreeMap;

/// A kept type with a test-only field between two kept ones.
pub struct Counter {
    pub hits: u64,
    /// Only tests see this field. // gone
    #[cfg(test)] // gone
    pub probes: BTreeMap<u8, Vec<(u8, u8)>>, // gone
    pub misses: u64,
}

impl Counter {
    /// Kept.
    pub fn new() -> Self {
        Counter {
            hits: 0,
            #[cfg(test)] // gone
            probes: BTreeMap::new(), // gone
            misses: 0,
        }
    }

    /// A test-only method partway through an impl. // gone
    #[cfg(test)] // gone
    pub fn probe<A: Into<u8>, B: Into<u8>>(&mut self, a: A, b: B) { // gone
        let brace = "}{ gone"; // gone
        let ch = '}'; // gone
        let raw = r#"gone " } { "#; // gone
        /* { block comment, gone */ // gone
        let key = brace.len() as u8 ^ ch as u8 ^ raw.len() as u8; // gone
        self.probes.entry(key).or_default().push((a.into(), b.into())); // gone
    } // gone

    /// Kept: the method after the test one.
    pub fn hit(&mut self) -> u64 {
        #[cfg(test)] // gone
        if self.hits > 1 << 20 { // gone
            return 0; // gone
        } else if self.misses == 0 { // gone
            self.misses = 1; // gone
        } // gone
        #[cfg(test)] // gone
        let _twin = Counter { // gone
            hits: self.hits, // gone
            ..Counter::new() // gone
        }; // gone
        #[cfg(test)] // gone
        self.probe(1u8, 2u8); // gone
        self.hits += 1;
        self.hits
    }

    /// Kept, with a match arm only tests compile.
    pub fn classify(&self) -> u8 {
        match self.hits {
            0 => 1,
            #[cfg(test)] // gone
            1 => { // gone
                2 // gone
            } // gone
            _ if self.hits < self.misses => 3,
            _ => 4,
        }
    }
}

/* A block comment naming #[cfg(test)] fn not_an_item() {} is kept. */
pub const NOT_AN_ATTRIBUTE: &str = "#[cfg(test)] mod not_a_module;";

/// Kept: the non-test twin of the function below.
#[cfg(not(test))]
fn mode() -> &'static str {
    "release"
}

#[cfg(test)] // gone
fn mode() -> &'static str { // gone
    "test }" // gone
} // gone

pub fn pick<'a, 'b>(a: &'a str, _b: &'b str) -> (&'a str, char) {
    (a, '\'')
}

pub fn describe(c: &Counter) -> String {
    let open = '{';
    format!("{open}{}{}", mode(), c.hits)
}

#[cfg(test)] // gone
mod tests { // gone
    use super::*; // gone
    // gone
    #[test] // gone
    fn counts() { // gone
        let s = " \" } "; // gone
        assert_eq!(Counter::new().hit(), 1, "{s}"); // gone
    } // gone
} // gone
