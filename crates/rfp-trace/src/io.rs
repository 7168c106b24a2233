//! Plain-text trace serialization.
//!
//! The simulator is trace driven; this module defines a line-oriented text
//! format so traces can come from *outside* the synthetic generator — a
//! binary-instrumentation pin tool, another simulator, or a hand-written
//! regression case. One micro-op per line:
//!
//! ```text
//! # comment
//! A <pc> <latency> <srcs> <dst>          # integer ALU
//! F <pc> <latency> <srcs> <dst>          # FP
//! L <pc> <srcs> <dst> <addr> <size> <value>
//! S <pc> <srcs> <addr> <size> <value>
//! B <pc> <srcs> <taken> <mispredicted>
//! ```
//!
//! `<srcs>` is a comma-separated register list or `-`; `<dst>` a register
//! or `-`; registers are `r<N>`; numbers may be decimal or `0x` hex;
//! `<taken>`/`<mispredicted>` are `t`/`n`.
//!
//! # Examples
//!
//! ```
//! use rfp_trace::{parse_trace, write_trace};
//!
//! let text = "\
//! ## a load feeding an add
//! L 0x400000 r1 r2 0x1000 8 42
//! A 0x400004 1 r2 r3
//! ";
//! let ops = parse_trace(text)?;
//! assert_eq!(ops.len(), 2);
//! assert_eq!(parse_trace(&write_trace(&ops))?, ops);
//! # Ok::<(), rfp_trace::TraceParseError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use rfp_types::{Addr, ArchReg, Pc};

use crate::uop::{MemRef, MicroOp, UopKind, MAX_SRCS};

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    line: usize,
    message: String,
}

impl TraceParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceParseError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for TraceParseError {}

/// Parses a text trace into micro-ops. Blank lines and `#` comments are
/// skipped.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<MicroOp>, TraceParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let kind = tok.next().expect("non-empty line has a first token");
        let op = match kind {
            "A" | "F" => {
                let pc = parse_pc(&mut tok, lineno)?;
                let lat = parse_u8_in(&mut tok, lineno, "latency", 1, u8::MAX)?;
                let srcs = parse_regs(&mut tok, lineno)?;
                let dst = parse_opt_reg(&mut tok, lineno)?;
                if kind == "A" {
                    MicroOp::alu(pc, lat, &srcs, dst)
                } else {
                    MicroOp::fp(pc, lat, &srcs, dst)
                }
            }
            "L" => {
                let pc = parse_pc(&mut tok, lineno)?;
                let srcs = parse_regs(&mut tok, lineno)?;
                let dst = parse_opt_reg(&mut tok, lineno)?
                    .ok_or_else(|| TraceParseError::new(lineno, "a load needs a destination"))?;
                let mem = parse_mem(&mut tok, lineno)?;
                MicroOp::load(pc, &srcs, dst, mem)
            }
            "S" => {
                let pc = parse_pc(&mut tok, lineno)?;
                let srcs = parse_regs(&mut tok, lineno)?;
                let mem = parse_mem(&mut tok, lineno)?;
                MicroOp::store(pc, &srcs, mem)
            }
            "B" => {
                let pc = parse_pc(&mut tok, lineno)?;
                let srcs = parse_regs(&mut tok, lineno)?;
                let taken = parse_flag(&mut tok, lineno, "taken")?;
                let mispredicted = parse_flag(&mut tok, lineno, "mispredicted")?;
                MicroOp::branch(pc, &srcs, taken, mispredicted)
            }
            other => {
                return Err(TraceParseError::new(
                    lineno,
                    format!("unknown micro-op kind '{other}' (expected A/F/L/S/B)"),
                ))
            }
        };
        if let Some(extra) = tok.next() {
            return Err(TraceParseError::new(
                lineno,
                format!("unexpected trailing token '{extra}'"),
            ));
        }
        out.push(op);
    }
    Ok(out)
}

/// Serializes micro-ops into the text format accepted by [`parse_trace`].
pub fn write_trace(ops: &[MicroOp]) -> String {
    let mut out = String::new();
    for op in ops {
        let srcs = fmt_regs(op);
        match op.kind {
            UopKind::Alu { latency } => {
                let _ = writeln!(
                    out,
                    "A {:#x} {} {} {}",
                    op.pc.raw(),
                    latency,
                    srcs,
                    fmt_dst(op)
                );
            }
            UopKind::Fp { latency } => {
                let _ = writeln!(
                    out,
                    "F {:#x} {} {} {}",
                    op.pc.raw(),
                    latency,
                    srcs,
                    fmt_dst(op)
                );
            }
            UopKind::Load => {
                let m = op.mem_ref();
                let _ = writeln!(
                    out,
                    "L {:#x} {} {} {:#x} {} {:#x}",
                    op.pc.raw(),
                    srcs,
                    fmt_dst(op),
                    m.addr.raw(),
                    m.size,
                    m.value
                );
            }
            UopKind::Store => {
                let m = op.mem_ref();
                let _ = writeln!(
                    out,
                    "S {:#x} {} {:#x} {} {:#x}",
                    op.pc.raw(),
                    srcs,
                    m.addr.raw(),
                    m.size,
                    m.value
                );
            }
            UopKind::Branch {
                taken,
                mispredicted,
            } => {
                let _ = writeln!(
                    out,
                    "B {:#x} {} {} {}",
                    op.pc.raw(),
                    srcs,
                    if taken { "t" } else { "n" },
                    if mispredicted { "t" } else { "n" }
                );
            }
        }
    }
    out
}

fn next_tok<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<&'a str, TraceParseError> {
    tok.next()
        .ok_or_else(|| TraceParseError::new(line, format!("missing {what}")))
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, TraceParseError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|_| TraceParseError::new(line, format!("invalid {what} '{s}'")))
}

fn parse_pc<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Pc, TraceParseError> {
    Ok(Pc::new(parse_u64(next_tok(tok, line, "pc")?, line, "pc")?))
}

fn parse_num<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<u64, TraceParseError> {
    parse_u64(next_tok(tok, line, what)?, line, what)
}

/// Parses a number and checks it lies in `lo..=hi` before narrowing it,
/// so an out-of-range value is named, never truncated.
fn parse_u8_in<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
    lo: u8,
    hi: u8,
) -> Result<u8, TraceParseError> {
    let v = parse_num(tok, line, what)?;
    u8::try_from(v)
        .ok()
        .filter(|n| (lo..=hi).contains(n))
        .ok_or_else(|| TraceParseError::new(line, format!("{what} must be {lo}..={hi}, got {v}")))
}

fn parse_reg(s: &str, line: usize) -> Result<ArchReg, TraceParseError> {
    let n = s
        .strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .ok_or_else(|| TraceParseError::new(line, format!("invalid register '{s}'")))?;
    ArchReg::try_new(n).ok_or_else(|| TraceParseError::new(line, "registers are r0..r63"))
}

fn parse_regs<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Vec<ArchReg>, TraceParseError> {
    let s = next_tok(tok, line, "source list")?;
    if s == "-" {
        return Ok(Vec::new());
    }
    let regs: Result<Vec<ArchReg>, _> = s.split(',').map(|r| parse_reg(r, line)).collect();
    let regs = regs?;
    if regs.len() > MAX_SRCS {
        return Err(TraceParseError::new(
            line,
            format!("at most {MAX_SRCS} sources allowed"),
        ));
    }
    Ok(regs)
}

fn parse_opt_reg<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Option<ArchReg>, TraceParseError> {
    let s = next_tok(tok, line, "destination")?;
    if s == "-" {
        Ok(None)
    } else {
        parse_reg(s, line).map(Some)
    }
}

fn parse_mem<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<MemRef, TraceParseError> {
    let addr = Addr::new(parse_num(tok, line, "address")?);
    let size = parse_u8_in(tok, line, "size", 1, MemRef::MAX_SIZE)?;
    let value = parse_num(tok, line, "value")?;
    Ok(MemRef::new(addr, size, value))
}

fn parse_flag<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<bool, TraceParseError> {
    match next_tok(tok, line, what)? {
        "t" | "1" => Ok(true),
        "n" | "0" => Ok(false),
        other => Err(TraceParseError::new(
            line,
            format!("invalid {what} flag '{other}' (t/n)"),
        )),
    }
}

fn fmt_regs(op: &MicroOp) -> String {
    let regs: Vec<String> = op.srcs().map(|r| format!("r{}", r.index())).collect();
    if regs.is_empty() {
        "-".to_string()
    } else {
        regs.join(",")
    }
}

fn fmt_dst(op: &MicroOp) -> String {
    match op.dst {
        Some(d) => format!("r{}", d.index()),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenParams;

    #[test]
    fn round_trip_preserves_generated_traces() {
        let w = crate::suite().remove(0);
        let ops: Vec<MicroOp> = w.trace(2_000).collect();
        let text = write_trace(&ops);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, ops);
        // Silence unused-import lint paths in older toolchains.
        let _ = GenParams::default();
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let ops = parse_trace("\n# hello\n  \nA 0x10 1 - r5\n").unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].dst.unwrap().index(), 5);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_trace("A 0x10 1 - r5\nX nope\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unknown micro-op kind"));
    }

    #[test]
    fn loads_require_destinations() {
        let err = parse_trace("L 0x10 r1 - 0x1000 8 0\n").unwrap_err();
        assert!(err.to_string().contains("destination"));
    }

    #[test]
    fn bad_register_and_size_are_rejected() {
        assert!(parse_trace("A 0x10 1 r64 -\n").is_err());
        assert!(parse_trace("L 0x10 r1 r2 0x1000 0 0\n").is_err());
        assert!(parse_trace("L 0x10 r1 r2 0x1000 128 0\n").is_err());
    }

    #[test]
    fn out_of_range_numbers_are_named_not_truncated() {
        for (line, why) in [
            ("A 0x10 300 - r1", "latency must be 1..=255, got 300"),
            ("A 0x10 256 - r1", "latency must be 1..=255, got 256"),
            ("A 0x10 0 - r1", "latency must be 1..=255, got 0"),
            (
                "L 0x20 r1 r2 0x1000 264 0x5",
                "size must be 1..=64, got 264",
            ),
        ] {
            let err = parse_trace(line).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("trace parse error at line 1: {why}")
            );
        }
        assert!(parse_trace("A 0x10 255 - r1\nL 0x20 r1 r2 0x1000 64 0x5\n").is_ok());
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        assert!(parse_trace("A 0x10 1 - r5 junk\n").is_err());
    }

    #[test]
    fn too_many_sources_rejected() {
        assert!(parse_trace("A 0x10 1 r1,r2,r3,r4 r5\n").is_err());
    }

    #[test]
    fn hex_and_decimal_both_parse() {
        let ops = parse_trace("L 1024 r1 r2 4096 8 255\nL 0x400 r1 r2 0x1000 8 0xff\n").unwrap();
        assert_eq!(ops[0], ops[1]);
    }
}
