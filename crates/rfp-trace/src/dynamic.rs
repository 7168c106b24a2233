//! Unrolling of a static [`Program`] into a dynamic micro-op stream.
//!
//! Address and value streams are pure functions of the loop-iteration index
//! (plus a per-pattern salt), which makes traces fully deterministic and lets
//! an *aliased* load recompute exactly the address and value of the store it
//! pairs with. Pointer-chase streams are the only stateful ones: the next
//! address is the value the previous instance loaded.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rfp_types::Addr;

use crate::program::{AddrPattern, Program, StaticKind, ValuePattern};
use crate::uop::{MemRef, MicroOp};

/// SplitMix64, used as a deterministic per-index hash for gather addresses
/// and random value streams.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Extra bytes skipped between rows of a `Pattern2D` walk (three cache
/// lines, so row boundaries break a naive single-stride predictor).
pub(crate) const ROW_GAP_BYTES: i64 = 192;

/// An iterator producing the dynamic micro-op stream of a workload.
///
/// # Examples
///
/// ```
/// use rfp_trace::{GenParams, Program, TraceGen};
/// let prog = Program::synthesize(&GenParams::default(), 1).unwrap();
/// let ops: Vec<_> = TraceGen::new(prog, 1, 1000).collect();
/// assert_eq!(ops.len(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    program: Program,
    /// Position within the static instruction list.
    pos: usize,
    /// Completed loop iterations (the pattern index).
    iter: u64,
    /// Current chase slot per pattern (None for non-chase patterns).
    chase_slots: Vec<Option<u64>>,
    /// Per-pattern salts for gather/random streams.
    salts: Vec<u64>,
    branch_rng: SmallRng,
    remaining: u64,
}

impl TraceGen {
    /// Creates a generator that will yield exactly `len` micro-ops from
    /// `program`, with branch-misprediction randomness seeded by `seed`.
    pub fn new(program: Program, seed: u64, len: u64) -> Self {
        let salts: Vec<u64> = (0..program.patterns.len())
            .map(|i| {
                let origin = program.patterns[i].alias_of.unwrap_or(i);
                splitmix64(seed ^ ((origin as u64) << 32) ^ 0xa17a_5a17)
            })
            .collect();
        let chase_slots = program
            .patterns
            .iter()
            .map(|p| match p.addr {
                AddrPattern::Chase => Some(0),
                _ => None,
            })
            .collect();
        TraceGen {
            program,
            pos: 0,
            iter: 0,
            chase_slots,
            salts,
            branch_rng: SmallRng::seed_from_u64(seed ^ 0xb4a2_c411),
            remaining: len,
        }
    }

    /// Returns the number of micro-ops still to be produced.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Returns a reference to the static program being unrolled.
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn addr_of(&mut self, pattern: usize) -> Addr {
        let origin = self.program.patterns[pattern].alias_of.unwrap_or(pattern);
        let spec = self.program.patterns[origin].clone();
        let salt = self.salts[pattern];
        match spec.addr {
            AddrPattern::Stride { stride } => {
                let off = mod_offset(self.iter as i64 * stride, spec.region_bytes);
                spec.base.offset(off as i64)
            }
            AddrPattern::PhasedStride { s1, s2, phase_len } => {
                let k = self.iter / phase_len; // completed phases
                let r = (self.iter % phase_len) as i64;
                let pairs = (k / 2) as i64;
                let mut off = pairs * phase_len as i64 * (s1 + s2);
                if k % 2 == 1 {
                    off += phase_len as i64 * s1 + r * s2;
                } else {
                    off += r * s1;
                }
                spec.base.offset(mod_offset(off, spec.region_bytes) as i64)
            }
            AddrPattern::Pattern2D { elem, row_len } => {
                let row = self.iter / row_len;
                let col = self.iter % row_len;
                let row_skip = row_len as i64 * elem + ROW_GAP_BYTES;
                let off = mod_offset(row as i64 * row_skip + col as i64 * elem, spec.region_bytes);
                spec.base.offset(off as i64)
            }
            AddrPattern::Constant => spec.base,
            AddrPattern::Chase => {
                let slot = self.chase_slots[origin].expect("chase pattern has a slot");
                let slots = (spec.region_bytes / 64).max(1);
                spec.base.offset(((slot % slots) * 64) as i64)
            }
            AddrPattern::Gather => {
                let off = splitmix64(self.iter ^ salt) % spec.region_bytes;
                spec.base.offset((off & !7) as i64)
            }
        }
    }

    /// The value loaded/stored by `pattern` at the current iteration, and —
    /// for chase patterns — advances the walk (the value *is* the next
    /// pointer).
    fn value_of(&mut self, pattern: usize) -> u64 {
        let spec = self.program.patterns[pattern].clone();
        let salt = self.salts[pattern];
        match spec.value {
            ValuePattern::Constant(v) => v,
            ValuePattern::Stride { start, stride } => {
                start.wrapping_add(self.iter.wrapping_mul(stride))
            }
            ValuePattern::Random => splitmix64(self.iter ^ salt ^ 0x7a1e),
            ValuePattern::FromAliasedStore => {
                let origin = spec.alias_of.expect("aliased value needs alias_of");
                self.value_of(origin)
            }
            ValuePattern::ChasePointer => {
                let origin = spec.alias_of.unwrap_or(pattern);
                let slot = self.chase_slots[origin].expect("chase pattern has a slot");
                let slots = (spec.region_bytes / 64).max(1);
                let next = splitmix64(slot ^ salt) % slots;
                self.chase_slots[origin] = Some(next);
                spec.base.offset((next * 64) as i64).raw()
            }
        }
    }
}

fn mod_offset(raw: i64, region: u64) -> u64 {
    debug_assert!(region > 0);
    (raw as i128).rem_euclid(region as i128) as u64
}

impl Iterator for TraceGen {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let inst = self.program.insts[self.pos].clone();
        let op = match inst.kind {
            StaticKind::Alu { latency } => MicroOp {
                pc: inst.pc,
                kind: crate::UopKind::Alu { latency },
                src_regs: inst.srcs,
                dst: inst.dst,
                mem: None,
            },
            StaticKind::Fp { latency } => MicroOp {
                pc: inst.pc,
                kind: crate::UopKind::Fp { latency },
                src_regs: inst.srcs,
                dst: inst.dst,
                mem: None,
            },
            StaticKind::Load { pattern } => {
                let addr = self.addr_of(pattern);
                let value = self.value_of(pattern);
                MicroOp {
                    pc: inst.pc,
                    kind: crate::UopKind::Load,
                    src_regs: inst.srcs,
                    dst: inst.dst,
                    mem: Some(MemRef::new(addr, 8, value)),
                }
            }
            StaticKind::Store { pattern } => {
                let addr = self.addr_of(pattern);
                let value = self.value_of(pattern);
                MicroOp {
                    pc: inst.pc,
                    kind: crate::UopKind::Store,
                    src_regs: inst.srcs,
                    dst: None,
                    mem: Some(MemRef::new(addr, 8, value)),
                }
            }
            StaticKind::Branch { taken_bias } => {
                let taken = self.branch_rng.gen_bool(taken_bias);
                let mispredicted = self.branch_rng.gen_bool(self.program.mispredict_rate);
                MicroOp {
                    pc: inst.pc,
                    kind: crate::UopKind::Branch {
                        taken,
                        mispredicted,
                    },
                    src_regs: inst.srcs,
                    dst: None,
                    mem: None,
                }
            }
        };
        self.pos += 1;
        if self.pos == self.program.insts.len() {
            self.pos = 0;
            self.iter += 1;
        }
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GenParams;
    use crate::UopKind;

    fn small_trace(seed: u64, len: u64) -> Vec<MicroOp> {
        let prog = Program::synthesize(&GenParams::default(), seed).unwrap();
        TraceGen::new(prog, seed, len).collect()
    }

    #[test]
    fn trace_has_requested_length_and_is_deterministic() {
        let a = small_trace(9, 5_000);
        let b = small_trace(9, 5_000);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a, b);
    }

    #[test]
    fn memory_ops_stay_within_their_regions() {
        let prog = Program::synthesize(&GenParams::default(), 4).unwrap();
        let patterns = prog.patterns.clone();
        let min_base = patterns.iter().map(|p| p.base.raw()).min().unwrap();
        let max_end = patterns
            .iter()
            .map(|p| p.base.raw() + p.region_bytes)
            .max()
            .unwrap();
        for op in TraceGen::new(prog, 4, 20_000) {
            if let Some(m) = op.mem {
                assert!(m.addr.raw() >= min_base && m.addr.raw() < max_end);
            }
        }
    }

    #[test]
    fn stride_loads_actually_stride() {
        let prog = Program::synthesize(&GenParams::default(), 8).unwrap();
        // Find a pure-stride, non-aliased load pattern.
        let (idx, stride) = prog
            .patterns
            .iter()
            .enumerate()
            .find_map(|(i, p)| match (p.addr, p.alias_of) {
                (AddrPattern::Stride { stride }, None) => Some((i, stride)),
                _ => None,
            })
            .expect("default mix always makes stride patterns");
        let pc = prog
            .insts
            .iter()
            .find_map(|inst| match inst.kind {
                StaticKind::Load { pattern } if pattern == idx => Some(inst.pc),
                StaticKind::Store { pattern } if pattern == idx => Some(inst.pc),
                _ => None,
            })
            .expect("pattern is referenced");
        let addrs: Vec<u64> = TraceGen::new(prog, 8, 50_000)
            .filter(|op| op.pc == pc)
            .filter_map(|op| op.mem.map(|m| m.addr.raw()))
            .take(8)
            .collect();
        for w in addrs.windows(2) {
            let delta = w[1].wrapping_sub(w[0]) as i64;
            // Either the stride, or a wrap back around the region.
            assert!(
                delta == stride || delta.unsigned_abs() > 64,
                "unexpected delta {delta} for stride {stride}"
            );
        }
    }

    #[test]
    fn aliased_load_sees_store_address_and_value() {
        // Force aliasing to be common.
        let params = GenParams {
            store_alias_frac: 1.0,
            store_frac: 0.25,
            ..GenParams::default()
        };
        let prog = Program::synthesize(&params, 21).unwrap();
        let alias = prog.patterns.iter().position(|p| p.alias_of.is_some());
        let Some(alias) = alias else {
            // Seed produced no alias pair; acceptable but unlikely.
            return;
        };
        let origin = prog.patterns[alias].alias_of.unwrap();
        let load_pc = prog
            .insts
            .iter()
            .find_map(|i| match i.kind {
                StaticKind::Load { pattern } if pattern == alias => Some(i.pc),
                _ => None,
            })
            .unwrap();
        let store_pc = prog
            .insts
            .iter()
            .find_map(|i| match i.kind {
                StaticKind::Store { pattern } if pattern == origin => Some(i.pc),
                _ => None,
            })
            .unwrap();
        let ops: Vec<MicroOp> = TraceGen::new(prog, 21, 30_000).collect();
        let mut pending_store: Option<MemRef> = None;
        let mut checked = 0;
        for op in &ops {
            if op.pc == store_pc {
                pending_store = op.mem;
            } else if op.pc == load_pc {
                if let Some(st) = pending_store {
                    let ld = op.mem.unwrap();
                    assert_eq!(ld.addr, st.addr);
                    assert_eq!(ld.value, st.value);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "never saw a store/load alias pair execute");
    }

    #[test]
    fn chase_value_is_next_instance_address() {
        let mut params = GenParams::default();
        params.addr_mix.chase = 1.0;
        params.addr_mix.stride = 0.0;
        params.addr_mix.pattern2d = 0.0;
        params.addr_mix.constant = 0.0;
        params.addr_mix.gather = 0.0;
        let prog = Program::synthesize(&params, 5).unwrap();
        let chase_pc = prog
            .insts
            .iter()
            .find_map(|i| match i.kind {
                StaticKind::Load { pattern }
                    if matches!(prog.patterns[pattern].addr, AddrPattern::Chase) =>
                {
                    Some(i.pc)
                }
                _ => None,
            })
            .expect("all-chase mix produces a chase load");
        let instances: Vec<MemRef> = TraceGen::new(prog, 5, 30_000)
            .filter(|op| op.pc == chase_pc)
            .map(|op| op.mem.unwrap())
            .take(16)
            .collect();
        for w in instances.windows(2) {
            assert_eq!(w[0].value, w[1].addr.raw(), "value must be next pointer");
        }
    }

    #[test]
    fn phased_stride_walks_two_strides() {
        use crate::params::WorkingSetClass;
        use crate::program::{PatternSpec, StaticInst};
        use rfp_types::{ArchReg, Pc};
        // Hand-build a single-load program with a known phased pattern.
        let prog = Program {
            insts: vec![StaticInst {
                pc: Pc::new(0x400000),
                kind: StaticKind::Load { pattern: 0 },
                srcs: [Some(ArchReg::new(0)), None, None],
                dst: Some(ArchReg::new(8)),
            }],
            patterns: vec![PatternSpec {
                addr: AddrPattern::PhasedStride {
                    s1: 8,
                    s2: 32,
                    phase_len: 4,
                },
                value: ValuePattern::Random,
                ws: WorkingSetClass::L1,
                base: Addr::new(0x1000),
                region_bytes: 1 << 20,
                alias_of: None,
            }],
            mispredict_rate: 0.0,
        };
        let addrs: Vec<u64> = TraceGen::new(prog, 1, 12)
            .map(|op| op.mem.unwrap().addr.raw())
            .collect();
        let deltas: Vec<i64> = addrs
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        // Instances 0..4 walk +8; the i3->i4 hop still closes the phase-0
        // run (+8), then four +32 hops, then back to +8 — the run-length
        // structure a single-stride predictor keeps stumbling over.
        assert_eq!(&deltas[..4], &[8, 8, 8, 8]);
        assert_eq!(&deltas[4..8], &[32, 32, 32, 32]);
        assert_eq!(deltas[8], 8); // back to phase 0
    }

    #[test]
    fn branch_outcomes_follow_their_bias() {
        let prog = Program::synthesize(&GenParams::default(), 17).unwrap();
        let mut per_pc: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for op in TraceGen::new(prog.clone(), 17, 120_000) {
            if let UopKind::Branch { taken, .. } = op.kind {
                let e = per_pc.entry(op.pc.raw()).or_default();
                e.0 += taken as u64;
                e.1 += 1;
            }
        }
        for inst in &prog.insts {
            if let StaticKind::Branch { taken_bias } = inst.kind {
                let (t, n) = per_pc[&inst.pc.raw()];
                let rate = t as f64 / n as f64;
                assert!(
                    (rate - taken_bias).abs() < 0.1,
                    "pc {}: rate {rate} vs bias {taken_bias}",
                    inst.pc
                );
            }
        }
    }

    #[test]
    fn branch_mispredict_rate_is_roughly_respected() {
        let params = GenParams {
            mispredict_rate: 0.10,
            ..GenParams::default()
        };
        let prog = Program::synthesize(&params, 2).unwrap();
        let mut branches = 0u64;
        let mut mispredicted = 0u64;
        for op in TraceGen::new(prog, 2, 200_000) {
            if let UopKind::Branch {
                mispredicted: m, ..
            } = op.kind
            {
                branches += 1;
                mispredicted += m as u64;
            }
        }
        let rate = mispredicted as f64 / branches as f64;
        assert!((rate - 0.10).abs() < 0.02, "rate was {rate}");
    }
}
