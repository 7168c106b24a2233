//! Common identifier, address and cycle types shared by every crate of the
//! Register File Prefetching (RFP) simulator.
//!
//! The simulator models a dynamically scheduled x86-like core at cycle
//! granularity. Components in different crates constantly exchange program
//! counters, virtual addresses, register identifiers and sequence numbers;
//! this crate gives each of those a dedicated newtype so that, for example, a
//! physical register index can never be confused with an architectural one.
//!
//! # Examples
//!
//! ```
//! use rfp_types::{Addr, CACHE_LINE_BYTES};
//!
//! let a = Addr::new(0x7fff_1234);
//! assert_eq!(a.line().offset_in_line(), 0);
//! assert_eq!(a.offset_in_line(), 0x34 % CACHE_LINE_BYTES);
//! assert_eq!(a.page(), Addr::new(0x7fff_1234).page());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod codec;
mod error;
mod fnv;
mod ids;

pub use addr::{Addr, CACHE_LINE_BYTES, CACHE_LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT};
pub use error::ConfigError;
pub use fnv::{fnv1a_64, FNV1A_OFFSET, FNV1A_PRIME};
pub use ids::{ArchReg, Pc, PhysReg, SeqNum};

/// A simulated clock cycle count.
///
/// Cycles are plain `u64`s rather than a newtype: cycle arithmetic appears on
/// nearly every line of the timing model and the extra wrapping would obscure
/// the pipeline math without preventing any realistic bug (there is only one
/// clock domain in this model).
pub type Cycle = u64;

/// Escapes `s` for embedding inside a JSON string literal.
///
/// The workspace builds offline (no serde), so every JSON surface —
/// metrics files, Chrome traces, telemetry JSONL — hand-writes its
/// output; this is the one escaping routine they all share.
///
/// # Examples
///
/// ```
/// assert_eq!(rfp_types::json_escape("plain"), "plain");
/// assert_eq!(rfp_types::json_escape("a\"b\\c"), "a\\\"b\\\\c");
/// assert_eq!(rfp_types::json_escape("x\ny"), "x\\ny");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Returns the geometric mean of `values`.
///
/// This is the mean the paper (and most architecture papers) use to aggregate
/// per-workload speedups. Values must be strictly positive.
///
/// Returns `None` when `values` is empty or contains a non-positive or
/// non-finite entry.
///
/// # Examples
///
/// ```
/// let g = rfp_types::geomean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// assert!(rfp_types::geomean(&[]).is_none());
/// ```
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut log_sum = 0.0;
    for &v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
    }
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        let g = geomean(&[3.0, 3.0, 3.0]).unwrap();
        assert!((g - 3.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_zero_and_nan() {
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[1.0, -2.0]).is_none());
        assert!(geomean(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("spec17_mcf"), "spec17_mcf");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert!(geomean(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let vals = [0.5, 1.0, 2.0, 8.0];
        let g = geomean(&vals).unwrap();
        assert!((0.5..=8.0).contains(&g));
    }
}
