//! Benchmark harness for the TeraHeap reproduction.
//!
//! The paper's evaluation is one table, [`figures::table`], run by the
//! `figures` binary (see DESIGN.md §4 for the experiment index); `micro`
//! holds the wall-clock micro-benchmarks. The [`harness`] module holds the
//! scaled Table 3/Table 4 configurations and the pieces the figures share.

/// Appends one formatted line to a `String`: figure text is rendered, never
/// printed, so only the driver touches stdout.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        $out.push_str(&(format!($($arg)*) + "\n"))
    };
}

/// `assert!` for a figure's self-gates: a violated gate is recorded in
/// `failed_gates` (and fails the `figures` run at its end), not panicked on.
macro_rules! gate {
    ($out:expr, $holds:expr, $($arg:tt)*) => {{
        let holds: bool = $holds;
        if !holds {
            $out.failed_gates.push(format!($($arg)*));
        }
    }};
}

pub mod figures;
pub mod harness;
