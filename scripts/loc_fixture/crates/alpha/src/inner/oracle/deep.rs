//! A file under the oracle's directory goes with it. gone
pub fn nothing() {} // gone
