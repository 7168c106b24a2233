//! Compiled traces: the generator's per-op pattern dispatch pre-resolved
//! into a flat micro-op arena with per-interval basic-block-vector
//! signatures.
//!
//! [`crate::TraceGen`] re-resolves every micro-op from scratch: it clones
//! the static instruction, chases the `alias_of` indirection to the origin
//! pattern, clones the [`PatternSpec`] and only then dispatches on the
//! address/value kind. A compile pass can do all of that *once per static
//! slot*: each slot becomes a pre-materialized [`MicroOp`] template plus a
//! flat address/value calculation with the alias indirection, region
//! geometry, salts and branch bias already folded in. [`CompiledTrace`]
//! runs that pass up front and stores the fully materialized stream in one
//! cache-dense arena, which grid jobs then slice directly instead of
//! re-running the generator.
//!
//! The compile pass also records loop-region metadata for the phase
//! sampler: a signature per fixed-size interval of the measured region —
//! a basic-block vector (one counter per static basic block, incremented
//! per op executed in that block) extended with [`MEM_SIG_DIMS`] memory
//! dimensions that histogram log2-bucketed cache-line and page deltas of
//! the interval's accesses — fingerprinted with the same FNV-1a
//! discipline the bench engine uses for configuration keys. Intervals
//! with the same signature are instances of the same program phase; the
//! sampling tier clusters them and simulates one representative each.
//!
//! The op stream is byte-identical to [`crate::TraceGen`]'s for every
//! program/seed/length (a property test in `rfp-bench` holds the two
//! implementations together); the generator remains the semantic reference.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_types::Addr;

use crate::dynamic::splitmix64;
use crate::program::{AddrPattern, PatternSpec, Program, StaticKind, ValuePattern};
use crate::uop::{MemRef, MicroOp, UopKind};

/// FNV-1a offset basis (matches the bench engine's key discipline).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Pre-resolved address calculation for one memory slot: the `alias_of`
/// indirection is already chased to the origin pattern and the origin's
/// base/region/salt are inlined.
#[derive(Debug, Clone, Copy)]
enum AddrCalc {
    /// `AddrPattern::Stride`.
    Stride {
        base: Addr,
        region: u64,
        stride: i64,
    },
    /// `AddrPattern::PhasedStride`.
    Phased {
        base: Addr,
        region: u64,
        s1: i64,
        s2: i64,
        phase_len: u64,
    },
    /// `AddrPattern::Pattern2D`.
    Grid {
        base: Addr,
        region: u64,
        elem: i64,
        row_len: u64,
    },
    /// `AddrPattern::Constant`.
    Fixed { base: Addr },
    /// `AddrPattern::Chase` — reads the origin's live chase slot.
    Chase {
        origin: usize,
        base: Addr,
        region: u64,
    },
    /// `AddrPattern::Gather`.
    Gather { base: Addr, region: u64, salt: u64 },
}

/// Pre-resolved value calculation, with `FromAliasedStore` recursion
/// already flattened onto the aliased store's own calculation.
#[derive(Debug, Clone, Copy)]
enum ValueCalc {
    Constant(u64),
    Stride {
        start: u64,
        stride: u64,
    },
    Random {
        salt: u64,
    },
    /// `ValuePattern::ChasePointer` — advances the origin's chase slot.
    Chase {
        origin: usize,
        base: Addr,
        region: u64,
        salt: u64,
    },
}

/// One pre-compiled static slot: everything the generator recomputes per
/// dynamic instance, resolved once.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// ALU/FP ops are identical on every iteration.
    Fixed(MicroOp),
    /// A load: template plus address/value calculations.
    Load {
        tpl: MicroOp,
        addr: AddrCalc,
        value: ValueCalc,
    },
    /// A store: same shape as a load but no destination register.
    Store {
        tpl: MicroOp,
        addr: AddrCalc,
        value: ValueCalc,
    },
    /// A branch: outcome/mispredict flags drawn from the branch RNG.
    Branch { tpl: MicroOp, taken_bias: f64 },
}

/// Memory-signature dimensions appended to each interval's BBV:
/// [`LINE_DELTA_DIMS`] buckets of per-static-slot cache-line stride
/// magnitude plus [`PAGE_DELTA_DIMS`] buckets of global page-crossing
/// magnitude.
pub const MEM_SIG_DIMS: usize = LINE_DELTA_DIMS + PAGE_DELTA_DIMS;
const LINE_DELTA_DIMS: usize = 8;
const PAGE_DELTA_DIMS: usize = 4;

/// The signature of one fixed-size trace interval: a basic-block vector
/// plus a memory-locality vector.
///
/// The loop-structured programs this generator emits execute nearly the
/// same *code* in every interval, so a classic BBV alone cannot separate
/// phases that differ only in memory behaviour (a `PhasedStride` pattern
/// switching strides, a traversal moving to a new region). The `mem`
/// vector captures that: per memory op, the cache-line distance to the
/// same static slot's previous access (log2-bucketed — a stride change
/// moves mass between buckets) and the page distance to the previous
/// memory op overall. Both are computed from the materialized arena and
/// reset at each interval boundary, so identical phases get identical
/// vectors wherever they appear in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSig {
    /// Absolute op offset where the interval starts.
    pub start: u64,
    /// Per-basic-block op counts within the interval.
    pub bbv: Vec<u32>,
    /// Memory-locality counts ([`MEM_SIG_DIMS`] fixed dimensions).
    pub mem: Vec<u32>,
    /// FNV-1a fingerprint of `bbv` then `mem` — equal fingerprints mean
    /// equal vectors for all practical purposes (used for fast phase
    /// grouping).
    pub fingerprint: u64,
}

impl IntervalSig {
    /// L1 (Manhattan) distance between two interval signatures (BBV and
    /// memory dimensions summed together).
    ///
    /// # Panics
    ///
    /// Panics if the vectors come from different programs (length
    /// mismatch).
    pub fn l1_distance(&self, other: &IntervalSig) -> u64 {
        assert_eq!(
            self.bbv.len(),
            other.bbv.len(),
            "BBVs of different programs"
        );
        assert_eq!(self.mem.len(), other.mem.len(), "mem vectors differ");
        self.bbv
            .iter()
            .zip(&other.bbv)
            .chain(self.mem.iter().zip(&other.mem))
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum()
    }
}

/// Log2 magnitude bucket for a cache-line delta: 0 = same line, then
/// one bucket per doubling, saturating at `LINE_DELTA_DIMS - 1`.
fn line_bucket(delta: u64) -> usize {
    if delta == 0 {
        0
    } else {
        (64 - delta.leading_zeros() as usize).min(LINE_DELTA_DIMS - 1)
    }
}

/// Log2 magnitude bucket for a page delta, saturating at
/// `PAGE_DELTA_DIMS - 1`.
fn page_bucket(delta: u64) -> usize {
    if delta == 0 {
        0
    } else {
        (64 - delta.leading_zeros() as usize).min(PAGE_DELTA_DIMS - 1)
    }
}

/// A fully materialized, pattern-dispatch-free micro-op arena with
/// per-interval BBV signatures over its measured region.
///
/// # Examples
///
/// ```
/// use rfp_trace::{by_name, CompiledTrace, TraceGen};
/// let w = by_name("spec17_mcf").expect("in the suite");
/// let ct = CompiledTrace::compile(&w.program(), w.seed, 20_000, 4_000, 8_000);
/// let gen: Vec<_> = w.trace(20_000).collect();
/// assert_eq!(ct.ops(), &gen[..]); // byte-identical to the generator
/// assert_eq!(ct.intervals().len(), 2); // (20_000 - 4_000) / 8_000
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    ops: Vec<MicroOp>,
    measured_from: u64,
    interval_len: u64,
    intervals: Vec<IntervalSig>,
}

impl CompiledTrace {
    /// Compiles `program` into a flat arena of `len` micro-ops, computing
    /// interval BBVs of `interval_len` ops over the measured region
    /// `[measured_from, len)` (the ragged tail shorter than `interval_len`
    /// gets no signature; the sampler simulates it exactly).
    ///
    /// # Panics
    ///
    /// Panics if `interval_len == 0` or `measured_from > len`.
    pub fn compile(
        program: &Program,
        seed: u64,
        len: u64,
        measured_from: u64,
        interval_len: u64,
    ) -> CompiledTrace {
        assert!(interval_len > 0, "interval length must be positive");
        assert!(measured_from <= len, "measured region starts past the end");
        // Identical salt/chase/RNG initialisation to `TraceGen::new`.
        let salts: Vec<u64> = (0..program.patterns.len())
            .map(|i| {
                let origin = program.patterns[i].alias_of.unwrap_or(i);
                splitmix64(seed ^ ((origin as u64) << 32) ^ 0xa17a_5a17)
            })
            .collect();
        let mut chase_slots: Vec<Option<u64>> = program
            .patterns
            .iter()
            .map(|p| match p.addr {
                AddrPattern::Chase => Some(0),
                _ => None,
            })
            .collect();
        let mut branch_rng = SmallRng::seed_from_u64(seed ^ 0xb4a2_c411);

        let slots = compile_slots(program, &salts);
        let (block_of, n_blocks) = block_map(program);

        let mispredict_rate = program.mispredict_rate;
        let n_slots = slots.len();
        let mut ops: Vec<MicroOp> = Vec::with_capacity(len as usize);
        let mut pos = 0usize;
        let mut iter = 0u64;
        for _ in 0..len {
            match slots[pos] {
                Slot::Fixed(tpl) => ops.push(tpl),
                Slot::Load { tpl, addr, value } | Slot::Store { tpl, addr, value } => {
                    // Address before value: chase values advance the slot
                    // the address calculation just read.
                    let a = addr.eval(&chase_slots, iter);
                    let v = value.eval(&mut chase_slots, iter);
                    let mut op = tpl;
                    op.mem = Some(MemRef::new(a, 8, v));
                    ops.push(op);
                }
                Slot::Branch { tpl, taken_bias } => {
                    let taken = branch_rng.gen_bool(taken_bias);
                    let mispredicted = branch_rng.gen_bool(mispredict_rate);
                    let mut op = tpl;
                    op.kind = UopKind::Branch {
                        taken,
                        mispredicted,
                    };
                    ops.push(op);
                }
            }
            pos += 1;
            if pos == n_slots {
                pos = 0;
                iter += 1;
            }
        }

        // Interval signatures over the measured region. Offset `i`
        // executes static slot `i % n_slots`, so the BBV half is purely
        // positional; the memory half reads the materialized addresses.
        let n_full = (len - measured_from) / interval_len;
        let mut intervals = Vec::with_capacity(n_full as usize);
        let mut last_line: Vec<Option<u64>> = vec![None; n_slots];
        for k in 0..n_full {
            let start = measured_from + k * interval_len;
            let mut bbv = vec![0u32; n_blocks];
            let mut mem = vec![0u32; MEM_SIG_DIMS];
            // Per-slot stride state resets at the boundary so identical
            // phases signature identically wherever they appear.
            last_line.iter_mut().for_each(|s| *s = None);
            let mut last_page: Option<u64> = None;
            for off in start..start + interval_len {
                let slot = (off % n_slots as u64) as usize;
                bbv[block_of[slot]] += 1;
                if let Some(m) = &ops[off as usize].mem {
                    let line = m.addr.raw() >> 6;
                    if let Some(prev) = last_line[slot] {
                        mem[line_bucket(prev.abs_diff(line))] += 1;
                    }
                    last_line[slot] = Some(line);
                    let page = m.addr.raw() >> 12;
                    if let Some(prev) = last_page {
                        mem[LINE_DELTA_DIMS + page_bucket(prev.abs_diff(page))] += 1;
                    }
                    last_page = Some(page);
                }
            }
            let mut fp = FNV_OFFSET;
            for &c in bbv.iter().chain(&mem) {
                for b in c.to_le_bytes() {
                    fp = (fp ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
            }
            intervals.push(IntervalSig {
                start,
                bbv,
                mem,
                fingerprint: fp,
            });
        }

        CompiledTrace {
            ops,
            measured_from,
            interval_len,
            intervals,
        }
    }

    /// The materialized op stream (warmup prefix plus measured region).
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Total op count.
    pub fn len(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Absolute offset where the measured region (and interval grid)
    /// starts.
    pub fn measured_from(&self) -> u64 {
        self.measured_from
    }

    /// Fixed interval size the BBV grid uses, in ops.
    pub fn interval_len(&self) -> u64 {
        self.interval_len
    }

    /// The per-interval BBV signatures, in trace order (full intervals
    /// only — the ragged tail carries no signature).
    pub fn intervals(&self) -> &[IntervalSig] {
        &self.intervals
    }

    /// Measured ops not covered by the interval grid (the ragged tail).
    pub fn tail_len(&self) -> u64 {
        (self.len() - self.measured_from) % self.interval_len
    }

    /// Bytes held by the micro-op arena (the sampling bench reports this).
    pub fn arena_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<MicroOp>()
    }
}

impl AddrCalc {
    fn eval(self, chase_slots: &[Option<u64>], iter: u64) -> Addr {
        match self {
            AddrCalc::Stride {
                base,
                region,
                stride,
            } => base.offset(mod_offset(iter as i64 * stride, region) as i64),
            AddrCalc::Phased {
                base,
                region,
                s1,
                s2,
                phase_len,
            } => {
                let k = iter / phase_len;
                let r = (iter % phase_len) as i64;
                let pairs = (k / 2) as i64;
                let mut off = pairs * phase_len as i64 * (s1 + s2);
                if k % 2 == 1 {
                    off += phase_len as i64 * s1 + r * s2;
                } else {
                    off += r * s1;
                }
                base.offset(mod_offset(off, region) as i64)
            }
            AddrCalc::Grid {
                base,
                region,
                elem,
                row_len,
            } => {
                let row = iter / row_len;
                let col = iter % row_len;
                let row_skip = row_len as i64 * elem + super::dynamic::ROW_GAP_BYTES;
                let off = mod_offset(row as i64 * row_skip + col as i64 * elem, region);
                base.offset(off as i64)
            }
            AddrCalc::Fixed { base } => base,
            AddrCalc::Chase {
                origin,
                base,
                region,
            } => {
                let slot = chase_slots[origin].expect("chase pattern has a slot");
                let slots = (region / 64).max(1);
                base.offset(((slot % slots) * 64) as i64)
            }
            AddrCalc::Gather { base, region, salt } => {
                let off = splitmix64(iter ^ salt) % region;
                base.offset((off & !7) as i64)
            }
        }
    }
}

impl ValueCalc {
    fn eval(self, chase_slots: &mut [Option<u64>], iter: u64) -> u64 {
        match self {
            ValueCalc::Constant(v) => v,
            ValueCalc::Stride { start, stride } => start.wrapping_add(iter.wrapping_mul(stride)),
            ValueCalc::Random { salt } => splitmix64(iter ^ salt ^ 0x7a1e),
            ValueCalc::Chase {
                origin,
                base,
                region,
                salt,
            } => {
                let slot = chase_slots[origin].expect("chase pattern has a slot");
                let slots = (region / 64).max(1);
                let next = splitmix64(slot ^ salt) % slots;
                chase_slots[origin] = Some(next);
                base.offset((next * 64) as i64).raw()
            }
        }
    }
}

fn mod_offset(raw: i64, region: u64) -> u64 {
    debug_assert!(region > 0);
    (raw as i128).rem_euclid(region as i128) as u64
}

/// Resolves one pattern's address calculation, chasing `alias_of` to the
/// origin exactly like `TraceGen::addr_of`.
fn resolve_addr(patterns: &[PatternSpec], salts: &[u64], pattern: usize) -> AddrCalc {
    let origin = patterns[pattern].alias_of.unwrap_or(pattern);
    let spec = &patterns[origin];
    let (base, region) = (spec.base, spec.region_bytes);
    match spec.addr {
        AddrPattern::Stride { stride } => AddrCalc::Stride {
            base,
            region,
            stride,
        },
        AddrPattern::PhasedStride { s1, s2, phase_len } => AddrCalc::Phased {
            base,
            region,
            s1,
            s2,
            phase_len,
        },
        AddrPattern::Pattern2D { elem, row_len } => AddrCalc::Grid {
            base,
            region,
            elem,
            row_len,
        },
        AddrPattern::Constant => AddrCalc::Fixed { base },
        AddrPattern::Chase => AddrCalc::Chase {
            origin,
            base,
            region,
        },
        AddrPattern::Gather => AddrCalc::Gather {
            base,
            region,
            // The generator salts gather addresses with the *referencing*
            // pattern's salt (equal to the origin's by derivation).
            salt: salts[pattern],
        },
    }
}

/// Resolves one pattern's value calculation, flattening the
/// `FromAliasedStore` recursion of `TraceGen::value_of`.
fn resolve_value(patterns: &[PatternSpec], salts: &[u64], pattern: usize) -> ValueCalc {
    let spec = &patterns[pattern];
    match spec.value {
        ValuePattern::Constant(v) => ValueCalc::Constant(v),
        ValuePattern::Stride { start, stride } => ValueCalc::Stride { start, stride },
        ValuePattern::Random => ValueCalc::Random {
            salt: salts[pattern],
        },
        ValuePattern::FromAliasedStore => {
            let origin = spec.alias_of.expect("aliased value needs alias_of");
            resolve_value(patterns, salts, origin)
        }
        ValuePattern::ChasePointer => ValueCalc::Chase {
            origin: spec.alias_of.unwrap_or(pattern),
            base: spec.base,
            region: spec.region_bytes,
            salt: salts[pattern],
        },
    }
}

fn compile_slots(program: &Program, salts: &[u64]) -> Vec<Slot> {
    program
        .insts
        .iter()
        .map(|inst| match inst.kind {
            StaticKind::Alu { latency } => Slot::Fixed(MicroOp {
                pc: inst.pc,
                kind: UopKind::Alu { latency },
                src_regs: inst.srcs,
                dst: inst.dst,
                mem: None,
            }),
            StaticKind::Fp { latency } => Slot::Fixed(MicroOp {
                pc: inst.pc,
                kind: UopKind::Fp { latency },
                src_regs: inst.srcs,
                dst: inst.dst,
                mem: None,
            }),
            StaticKind::Load { pattern } => Slot::Load {
                tpl: MicroOp {
                    pc: inst.pc,
                    kind: UopKind::Load,
                    src_regs: inst.srcs,
                    dst: inst.dst,
                    mem: None,
                },
                addr: resolve_addr(&program.patterns, salts, pattern),
                value: resolve_value(&program.patterns, salts, pattern),
            },
            StaticKind::Store { pattern } => Slot::Store {
                tpl: MicroOp {
                    pc: inst.pc,
                    kind: UopKind::Store,
                    src_regs: inst.srcs,
                    dst: None,
                    mem: None,
                },
                addr: resolve_addr(&program.patterns, salts, pattern),
                value: resolve_value(&program.patterns, salts, pattern),
            },
            StaticKind::Branch { taken_bias } => Slot::Branch {
                tpl: MicroOp {
                    pc: inst.pc,
                    kind: UopKind::Branch {
                        taken: false,
                        mispredicted: false,
                    },
                    src_regs: inst.srcs,
                    dst: None,
                    mem: None,
                },
                taken_bias,
            },
        })
        .collect()
}

/// Maps each static slot to its basic-block index (blocks are delimited
/// by branches) and returns the block count.
fn block_map(program: &Program) -> (Vec<usize>, usize) {
    let mut block_of = Vec::with_capacity(program.insts.len());
    let mut block = 0usize;
    for inst in &program.insts {
        block_of.push(block);
        if matches!(inst.kind, StaticKind::Branch { .. }) {
            block += 1;
        }
    }
    (block_of, block + 1)
}

mod codec_impls {
    //! Binary codec for persisting compiled trace arenas in the on-disk
    //! experiment store.

    use super::{CompiledTrace, IntervalSig};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for IntervalSig {
        fn encode(&self, w: &mut ByteWriter) {
            let IntervalSig {
                start,
                bbv,
                mem,
                fingerprint,
            } = self;
            start.encode(w);
            bbv.encode(w);
            mem.encode(w);
            fingerprint.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(IntervalSig {
                start: Codec::decode(r)?,
                bbv: Codec::decode(r)?,
                mem: Codec::decode(r)?,
                fingerprint: Codec::decode(r)?,
            })
        }
    }

    impl Codec for CompiledTrace {
        fn encode(&self, w: &mut ByteWriter) {
            let CompiledTrace {
                ops,
                measured_from,
                interval_len,
                intervals,
            } = self;
            ops.encode(w);
            measured_from.encode(w);
            interval_len.encode(w);
            intervals.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let ct = CompiledTrace {
                ops: Codec::decode(r)?,
                measured_from: Codec::decode(r)?,
                interval_len: Codec::decode(r)?,
                intervals: Codec::decode(r)?,
            };
            if ct.measured_from > ct.ops.len() as u64 || ct.interval_len == 0 {
                return Err(CodecError::Invalid("CompiledTrace geometry"));
            }
            Ok(ct)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GenParams;
    use crate::TraceGen;

    fn prog(seed: u64) -> Program {
        Program::synthesize(&GenParams::default(), seed).unwrap()
    }

    #[test]
    fn compiled_matches_generator_exactly() {
        for seed in [1u64, 9, 21, 77] {
            let p = prog(seed);
            let gen: Vec<MicroOp> = TraceGen::new(p.clone(), seed, 12_000).collect();
            let ct = CompiledTrace::compile(&p, seed, 12_000, 4_000, 2_048);
            assert_eq!(ct.ops(), &gen[..], "seed {seed}");
        }
    }

    #[test]
    fn interval_grid_covers_the_measured_region() {
        let p = prog(3);
        let ct = CompiledTrace::compile(&p, 3, 25_000, 5_000, 8_192);
        assert_eq!(ct.intervals().len(), 2); // 20_000 / 8_192 = 2 full
        assert_eq!(ct.tail_len(), 20_000 - 2 * 8_192);
        assert_eq!(ct.intervals()[0].start, 5_000);
        assert_eq!(ct.intervals()[1].start, 5_000 + 8_192);
        for sig in ct.intervals() {
            assert_eq!(sig.bbv.iter().map(|&c| u64::from(c)).sum::<u64>(), 8_192);
            assert_eq!(sig.mem.len(), MEM_SIG_DIMS);
            // Every interval of a memory-bearing program crosses pages
            // at least once, so the mem vector cannot be all-zero.
            assert!(sig.mem.iter().any(|&c| c > 0));
        }
    }

    #[test]
    fn equal_signatures_share_fingerprints_and_zero_distance() {
        let p = prog(5);
        let ct = CompiledTrace::compile(&p, 5, 60_000, 10_000, 8_192);
        let sigs = ct.intervals();
        assert!(sigs.len() >= 2);
        for pair in sigs.windows(2) {
            if pair[0].bbv == pair[1].bbv && pair[0].mem == pair[1].mem {
                assert_eq!(pair[0].fingerprint, pair[1].fingerprint);
                assert_eq!(pair[0].l1_distance(&pair[1]), 0);
            } else {
                assert!(pair[0].l1_distance(&pair[1]) > 0);
            }
        }
    }

    #[test]
    fn memory_signature_separates_stride_phases() {
        // Two intervals executing identical code but different stride
        // phases must land measurably apart — the property the BBV alone
        // cannot deliver on loop-structured programs.
        use crate::params::WorkingSetClass;
        use crate::program::{PatternSpec, StaticInst, ValuePattern};
        use rfp_types::{ArchReg, Pc};
        let patterns = vec![PatternSpec {
            base: Addr::new(0x1000_0000),
            region_bytes: 1 << 24,
            addr: AddrPattern::PhasedStride {
                s1: 8,
                s2: 4096,
                phase_len: 1_024,
            },
            value: ValuePattern::Constant(1),
            ws: WorkingSetClass::Llc,
            alias_of: None,
        }];
        let insts = vec![
            StaticInst {
                pc: Pc::new(0x400_000),
                kind: StaticKind::Load { pattern: 0 },
                srcs: [None, None, None],
                dst: Some(ArchReg::new(1)),
            },
            StaticInst {
                pc: Pc::new(0x400_004),
                kind: StaticKind::Alu { latency: 1 },
                srcs: [Some(ArchReg::new(1)), None, None],
                dst: Some(ArchReg::new(2)),
            },
        ];
        let p = Program {
            insts,
            patterns,
            mispredict_rate: 0.0,
        };
        // phase_len is 1024 *iterations* = 2048 ops, so a 2048-op
        // interval grid alternates pure-s1 and pure-s2 intervals.
        let ct = CompiledTrace::compile(&p, 7, 8_192, 0, 2_048);
        let sigs = ct.intervals();
        assert_eq!(sigs.len(), 4);
        assert_eq!(
            sigs[0].bbv, sigs[1].bbv,
            "identical code must give identical BBVs"
        );
        assert!(
            sigs[0].l1_distance(&sigs[1]) > 256,
            "stride phases must be far apart in the memory signature"
        );
        assert!(
            sigs[0].l1_distance(&sigs[2]) < sigs[0].l1_distance(&sigs[1]),
            "repeats of the same phase must be closer than different phases"
        );
    }

    #[test]
    fn compiled_trace_codec_round_trips() {
        let p = prog(4);
        let ct = CompiledTrace::compile(&p, 4, 6_000, 1_000, 2_048);
        let bytes = rfp_types::codec::encode_to_vec(&ct);
        let back: CompiledTrace = rfp_types::codec::decode_from_slice(&bytes).unwrap();
        assert_eq!(back.ops(), ct.ops());
        assert_eq!(back.intervals(), ct.intervals());
        assert_eq!(back.measured_from(), ct.measured_from());
        assert_eq!(back.interval_len(), ct.interval_len());
        assert_eq!(back.tail_len(), ct.tail_len());
    }

    #[test]
    fn arena_bytes_counts_the_op_array() {
        let p = prog(2);
        let ct = CompiledTrace::compile(&p, 2, 1_000, 0, 500);
        assert_eq!(ct.arena_bytes(), 1_000 * std::mem::size_of::<MicroOp>());
        assert_eq!(ct.len(), 1_000);
        assert!(!ct.is_empty());
    }
}
