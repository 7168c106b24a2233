//! The dynamic micro-op model consumed by the core simulator.
//!
//! The simulator is trace driven: a workload is a stream of [`MicroOp`]s in
//! program order, each carrying its full register dataflow (architectural
//! source/destination names), and — for memory operations — the *actual*
//! virtual address touched and the *actual* 64-bit value loaded or stored.
//! Carrying real addresses and values lets the timing model exercise every
//! predictor the paper discusses: the RFP stride table trains on addresses,
//! value predictors train on values, and memory disambiguation compares
//! load/store addresses exactly as hardware would.

use std::num::NonZeroU8;

use rfp_types::{Addr, ArchReg, Pc};

/// Maximum number of register sources a micro-op may carry.
///
/// Three covers x86-like uops: loads use up to two address registers
/// (base + index), stores use address registers plus one data register, and
/// FMA-style ops read three sources.
pub const MAX_SRCS: usize = 3;

/// The functional class of a micro-op, with its execution latency where the
/// latency is fixed (memory latencies are decided by the cache hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopKind {
    /// An integer ALU operation completing in `latency` cycles (1–3).
    Alu {
        /// Execution latency in cycles.
        latency: u8,
    },
    /// A floating point / vector operation (e.g. FMA) completing in
    /// `latency` cycles (typically 4–5). FP ops compete for the core's FP
    /// ports, which is what bottlenecks the FSPEC-like workloads in the
    /// paper (§5.1).
    Fp {
        /// Execution latency in cycles.
        latency: u8,
    },
    /// A load. Latency is determined by the memory hierarchy (and by RFP).
    Load,
    /// A store. Address generation executes in the core; data is written to
    /// the memory system at retirement.
    Store,
    /// A conditional branch. `taken` is the actual outcome; `mispredicted`
    /// is the trace's *oracle* mispredict marker, used when the core is
    /// configured to trust the trace instead of its own branch predictor.
    Branch {
        /// Actual direction of this dynamic instance.
        taken: bool,
        /// Whether the trace marks this instance as front-end-mispredicted.
        mispredicted: bool,
    },
}

impl UopKind {
    /// Returns true for loads.
    pub const fn is_load(self) -> bool {
        matches!(self, UopKind::Load)
    }

    /// Returns true for stores.
    pub const fn is_store(self) -> bool {
        matches!(self, UopKind::Store)
    }

    /// Returns true for memory operations (loads and stores).
    pub const fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Returns true for branches.
    pub const fn is_branch(self) -> bool {
        matches!(self, UopKind::Branch { .. })
    }
}

/// The memory side of a load or store micro-op.
///
/// The size is a `NonZeroU8`, so `Option<MemRef>` uses its zero niche
/// and is no larger than `MemRef` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Virtual address of the access.
    pub addr: Addr,
    /// Access size in bytes (1–[`MemRef::MAX_SIZE`]).
    pub size: NonZeroU8,
    /// The value loaded (for loads) or stored (for stores). Drives value
    /// prediction training/validation and store-to-load forwarding.
    pub value: u64,
}

impl MemRef {
    /// Largest access size in bytes: one cache line.
    pub const MAX_SIZE: u8 = 64;

    /// Creates a memory reference of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is outside `1..=MAX_SIZE`.
    pub const fn new(addr: Addr, size: u8, value: u64) -> Self {
        match Self::checked_size(size) {
            Some(size) => MemRef { addr, size, value },
            None => panic!("MemRef size must be 1..=64 bytes"),
        }
    }

    /// `size` as a valid access size, or `None` outside `1..=MAX_SIZE`.
    const fn checked_size(size: u8) -> Option<NonZeroU8> {
        if size > Self::MAX_SIZE {
            return None;
        }
        NonZeroU8::new(size)
    }
}

/// One dynamic micro-op of a trace, in program order.
///
/// # Examples
///
/// ```
/// use rfp_trace::{MicroOp, UopKind};
/// use rfp_types::{ArchReg, Pc};
///
/// let add = MicroOp::alu(Pc::new(0x400), 1, &[ArchReg::new(1)], Some(ArchReg::new(2)));
/// assert_eq!(add.kind, UopKind::Alu { latency: 1 });
/// assert_eq!(add.srcs().count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Program counter of the static instruction.
    pub pc: Pc,
    /// Functional class.
    pub kind: UopKind,
    /// Architectural register sources (`None` slots are unused).
    pub src_regs: [Option<ArchReg>; MAX_SRCS],
    /// Architectural destination register, if any.
    pub dst: Option<ArchReg>,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
}

impl MicroOp {
    /// Creates an integer ALU micro-op.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are supplied or `latency`
    /// is zero.
    pub fn alu(pc: Pc, latency: u8, srcs: &[ArchReg], dst: Option<ArchReg>) -> Self {
        assert!(latency > 0, "ALU latency must be nonzero");
        MicroOp {
            pc,
            kind: UopKind::Alu { latency },
            src_regs: pack_srcs(srcs),
            dst,
            mem: None,
        }
    }

    /// Creates a floating-point micro-op.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are supplied or `latency`
    /// is zero.
    pub fn fp(pc: Pc, latency: u8, srcs: &[ArchReg], dst: Option<ArchReg>) -> Self {
        assert!(latency > 0, "FP latency must be nonzero");
        MicroOp {
            pc,
            kind: UopKind::Fp { latency },
            src_regs: pack_srcs(srcs),
            dst,
            mem: None,
        }
    }

    /// Creates a load micro-op reading `mem.value` from `mem.addr`.
    ///
    /// `srcs` are the address registers; `dst` receives the loaded value.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are supplied.
    pub fn load(pc: Pc, srcs: &[ArchReg], dst: ArchReg, mem: MemRef) -> Self {
        MicroOp {
            pc,
            kind: UopKind::Load,
            src_regs: pack_srcs(srcs),
            dst: Some(dst),
            mem: Some(mem),
        }
    }

    /// Creates a store micro-op writing `mem.value` to `mem.addr`.
    ///
    /// `srcs` hold the address registers and the data register.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are supplied.
    pub fn store(pc: Pc, srcs: &[ArchReg], mem: MemRef) -> Self {
        MicroOp {
            pc,
            kind: UopKind::Store,
            src_regs: pack_srcs(srcs),
            dst: None,
            mem: Some(mem),
        }
    }

    /// Creates a conditional branch micro-op.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are supplied.
    pub fn branch(pc: Pc, srcs: &[ArchReg], taken: bool, mispredicted: bool) -> Self {
        MicroOp {
            pc,
            kind: UopKind::Branch {
                taken,
                mispredicted,
            },
            src_regs: pack_srcs(srcs),
            dst: None,
            mem: None,
        }
    }

    /// Iterates over the populated register sources.
    pub fn srcs(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.src_regs.iter().flatten().copied()
    }

    /// Returns the memory reference.
    ///
    /// # Panics
    ///
    /// Panics if the micro-op is not a load or store.
    #[inline]
    pub fn mem_ref(&self) -> MemRef {
        self.mem.expect("mem_ref() called on a non-memory micro-op")
    }
}

// The trace arenas hold one `MicroOp` per dynamic uop, so its size is
// most of the simulator's heap. Both optional fields ride a niche: no
// `Option` tag takes a byte of its own.
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Option<MemRef>>() == 24);
    assert!(size_of::<MicroOp>() == 40);
};

fn pack_srcs(srcs: &[ArchReg]) -> [Option<ArchReg>; MAX_SRCS] {
    assert!(
        srcs.len() <= MAX_SRCS,
        "a micro-op carries at most {MAX_SRCS} sources"
    );
    let mut packed = [None; MAX_SRCS];
    for (slot, &r) in packed.iter_mut().zip(srcs) {
        *slot = Some(r);
    }
    packed
}

mod codec_impls {
    //! Binary codec for persisting micro-ops (compiled trace arenas, warm
    //! snapshots). Structs destructure exhaustively so a new field is a
    //! compile error here, not silent corruption on disk.

    use super::{MemRef, MicroOp, UopKind, MAX_SRCS};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};
    use rfp_types::ArchReg;

    impl Codec for UopKind {
        fn encode(&self, w: &mut ByteWriter) {
            match *self {
                UopKind::Alu { latency } => {
                    w.put_u8(0);
                    w.put_u8(latency);
                }
                UopKind::Fp { latency } => {
                    w.put_u8(1);
                    w.put_u8(latency);
                }
                UopKind::Load => w.put_u8(2),
                UopKind::Store => w.put_u8(3),
                UopKind::Branch {
                    taken,
                    mispredicted,
                } => {
                    w.put_u8(4);
                    taken.encode(w);
                    mispredicted.encode(w);
                }
            }
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(match r.get_u8()? {
                0 => UopKind::Alu {
                    latency: latency(r)?,
                },
                1 => UopKind::Fp {
                    latency: latency(r)?,
                },
                2 => UopKind::Load,
                3 => UopKind::Store,
                4 => UopKind::Branch {
                    taken: bool::decode(r)?,
                    mispredicted: bool::decode(r)?,
                },
                _ => return Err(CodecError::Invalid("UopKind tag")),
            })
        }
    }

    /// An ALU/FP latency: the constructors and the text parser refuse 0.
    fn latency(r: &mut ByteReader<'_>) -> Result<u8, CodecError> {
        match r.get_u8()? {
            0 => Err(CodecError::Invalid("UopKind latency 0")),
            n => Ok(n),
        }
    }

    impl Codec for MemRef {
        fn encode(&self, w: &mut ByteWriter) {
            let MemRef { addr, size, value } = *self;
            addr.encode(w);
            w.put_u8(size.get());
            w.put_u64(value);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(MemRef {
                addr: Codec::decode(r)?,
                size: MemRef::checked_size(r.get_u8()?)
                    .ok_or(CodecError::Invalid("MemRef size outside 1..=64"))?,
                value: r.get_u64()?,
            })
        }
    }

    impl Codec for MicroOp {
        fn encode(&self, w: &mut ByteWriter) {
            let MicroOp {
                pc,
                kind,
                src_regs,
                dst,
                mem,
            } = *self;
            pc.encode(w);
            kind.encode(w);
            src_regs.encode(w);
            dst.encode(w);
            mem.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let op = MicroOp {
                pc: Codec::decode(r)?,
                kind: Codec::decode(r)?,
                src_regs: <[Option<ArchReg>; MAX_SRCS]>::decode(r)?,
                dst: Codec::decode(r)?,
                mem: Codec::decode(r)?,
            };
            // The core reads `mem_ref()` of every load and store.
            if op.kind.is_mem() != op.mem.is_some() {
                return Err(CodecError::Invalid("MicroOp mem does not match its kind"));
            }
            Ok(op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rfp_types::codec::{decode_from_slice, encode_to_vec, ByteReader, Codec, CodecError};

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    #[test]
    fn constructors_fill_expected_fields() {
        let mem = MemRef::new(Addr::new(0x1000), 8, 42);
        let ld = MicroOp::load(Pc::new(4), &[r(1), r(2)], r(3), mem);
        assert!(ld.kind.is_load());
        assert_eq!(ld.dst, Some(r(3)));
        assert_eq!(ld.srcs().collect::<Vec<_>>(), vec![r(1), r(2)]);
        assert_eq!(ld.mem_ref().value, 42);

        let st = MicroOp::store(Pc::new(8), &[r(1), r(4)], mem);
        assert!(st.kind.is_store());
        assert!(st.kind.is_mem());
        assert_eq!(st.dst, None);

        let br = MicroOp::branch(Pc::new(12), &[r(4)], true, true);
        assert_eq!(
            br.kind,
            UopKind::Branch {
                taken: true,
                mispredicted: true
            }
        );
        assert!(br.kind.is_branch());
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_sources_panics() {
        let _ = MicroOp::alu(Pc::new(0), 1, &[r(0), r(1), r(2), r(3)], None);
    }

    #[test]
    #[should_panic(expected = "non-memory")]
    fn mem_ref_on_alu_panics() {
        MicroOp::alu(Pc::new(0), 1, &[], Some(r(1))).mem_ref();
    }

    #[test]
    #[should_panic(expected = "MemRef size")]
    fn mem_ref_new_refuses_size_zero() {
        let _ = MemRef::new(Addr::new(0), 0, 0);
    }

    fn sample_ops() -> [MicroOp; 5] {
        let mem = MemRef::new(Addr::new(0xdead_beef), 64, u64::MAX);
        [
            MicroOp::alu(Pc::new(0x400), 3, &[r(0), r(63)], Some(r(5))),
            MicroOp::fp(Pc::new(0x404), 4, &[r(1), r(2), r(3)], None),
            MicroOp::load(Pc::new(0x408), &[r(7)], r(8), mem),
            MicroOp::store(
                Pc::new(0x40c),
                &[r(7), r(9)],
                MemRef {
                    size: NonZeroU8::MIN,
                    ..mem
                },
            ),
            MicroOp::branch(Pc::new(0x410), &[r(9)], true, false),
        ]
    }

    /// Decodes a `MicroOp` from the front of `bytes` and, when that
    /// succeeds, checks the op is one the constructors could build and
    /// that it re-encodes to exactly the bytes it consumed.
    fn decode_is_err_or_valid(bytes: &[u8]) -> Result<(), TestCaseError> {
        let mut rd = ByteReader::new(bytes);
        if let Ok(op) = MicroOp::decode(&mut rd) {
            prop_assert!(op.srcs().chain(op.dst).all(|a| a.index() < ArchReg::COUNT));
            prop_assert_eq!(op.kind.is_mem(), op.mem.is_some());
            if let Some(m) = op.mem {
                prop_assert!((1..=MemRef::MAX_SIZE).contains(&m.size.get()));
            }
            if let UopKind::Alu { latency } | UopKind::Fp { latency } = op.kind {
                prop_assert!(latency > 0);
            }
            let used = bytes.len() - rd.remaining();
            prop_assert_eq!(encode_to_vec(&op), bytes[..used].to_vec());
        }
        Ok(())
    }

    #[test]
    fn codec_round_trips_every_kind() {
        for op in sample_ops() {
            assert_eq!(decode_from_slice::<MicroOp>(&encode_to_vec(&op)), Ok(op));
        }
    }

    #[test]
    fn mem_ref_decode_refuses_sizes_the_parser_refuses() {
        let good = encode_to_vec(&MemRef::new(Addr::new(0x40), 8, 7));
        // Bytes 0..8 are the address; byte 8 is the size.
        for size in [0u8, 65, 200] {
            let mut bytes = good.clone();
            bytes[8] = size;
            assert_eq!(
                decode_from_slice::<MemRef>(&bytes),
                Err(CodecError::Invalid("MemRef size outside 1..=64"))
            );
        }
    }

    #[test]
    fn micro_op_decode_refuses_an_out_of_range_register() {
        let mut bytes = encode_to_vec(&sample_ops()[0]);
        // pc (8), kind (2), then the first source slot: tag 1, index.
        assert_eq!(bytes[10..12], [1, 0]);
        bytes[11] = 200;
        assert_eq!(
            decode_from_slice::<MicroOp>(&bytes),
            Err(CodecError::Invalid("ArchReg index >= 64"))
        );
    }

    #[test]
    fn micro_op_decode_refuses_a_mem_ref_its_kind_does_not_take() {
        let mut alu_with_mem = sample_ops()[0];
        alu_with_mem.mem = sample_ops()[2].mem;
        let mut load_without_mem = sample_ops()[2];
        load_without_mem.mem = None;
        for op in [alu_with_mem, load_without_mem] {
            assert_eq!(
                decode_from_slice::<MicroOp>(&encode_to_vec(&op)),
                Err(CodecError::Invalid("MicroOp mem does not match its kind"))
            );
        }
    }

    #[test]
    fn micro_op_decode_refuses_latency_zero() {
        let mut bytes = encode_to_vec(&sample_ops()[1]);
        bytes[9] = 0;
        assert_eq!(
            decode_from_slice::<MicroOp>(&bytes),
            Err(CodecError::Invalid("UopKind latency 0"))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn micro_op_decode_of_arbitrary_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            decode_is_err_or_valid(&bytes)?;
        }

        #[test]
        fn micro_op_decode_of_a_mutated_encoding_never_panics(
            which in 0usize..5,
            at in 0usize..64,
            byte in any::<u8>(),
        ) {
            let mut bytes = encode_to_vec(&sample_ops()[which]);
            let i = at % bytes.len();
            bytes[i] = byte;
            decode_is_err_or_valid(&bytes)?;
        }
    }

    #[test]
    fn srcs_skips_empty_slots() {
        let op = MicroOp::alu(Pc::new(0), 2, &[r(7)], Some(r(8)));
        assert_eq!(op.srcs().count(), 1);
    }
}
