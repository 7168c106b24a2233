//! Identifier newtypes: program counters, register names, sequence numbers.

use std::fmt;
use std::num::NonZeroU8;

/// The program counter of a static instruction.
///
/// Predictor tables (Prefetch Table, value predictors, store sets) are all
/// indexed by the load's PC, so it gets a dedicated type.
///
/// # Examples
///
/// ```
/// use rfp_types::Pc;
/// let pc = Pc::new(0x401000);
/// assert_eq!(pc.index_bits(6), (0x401000 >> 2) & 0x3f);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a PC from its raw value.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `bits` low-order bits of the word-aligned PC, the usual way
    /// a set-associative predictor table derives its set index.
    pub const fn index_bits(self, bits: u32) -> u64 {
        (self.0 >> 2) & ((1u64 << bits) - 1)
    }

    /// Returns a tag of `bits` bits taken above the index bits used by a
    /// table with `index_bits` index bits.
    pub const fn tag_bits(self, index_bits: u32, bits: u32) -> u64 {
        (self.0 >> (2 + index_bits)) & ((1u64 << bits) - 1)
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

/// An architectural (logical) register name, pre-rename.
///
/// The trace generator emits dataflow over a small architectural register
/// file (x86-64 has 16 integer + 16 vector registers; we allow up to
/// [`ArchReg::COUNT`] names so synthetic programs can exercise wide
/// dataflow).
///
/// The index is stored plus one in a `NonZeroU8`, so `Option<ArchReg>`
/// is one byte: a micro-op's three source slots and its destination
/// take four bytes, not eight.
///
/// # Examples
///
/// ```
/// use rfp_types::ArchReg;
/// assert_eq!(ArchReg::new(63).index(), 63);
/// assert_eq!(ArchReg::default(), ArchReg::new(0));
/// assert_eq!(std::mem::size_of::<Option<ArchReg>>(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(NonZeroU8);

impl ArchReg {
    /// Number of architectural register names: indices run `0..COUNT`.
    pub const COUNT: usize = 64;

    /// Creates an architectural register name.
    ///
    /// # Panics
    ///
    /// Panics if `index` is [`ArchReg::COUNT`] or more.
    pub const fn new(index: u8) -> Self {
        match Self::try_new(index) {
            Some(r) => r,
            None => panic!("ArchReg index out of range: registers are r0..r63"),
        }
    }

    /// Creates an architectural register name, or `None` if `index` is
    /// [`ArchReg::COUNT`] or more.
    pub const fn try_new(index: u8) -> Option<Self> {
        if (index as usize) < Self::COUNT {
            match NonZeroU8::new(index + 1) {
                Some(n) => Some(ArchReg(n)),
                None => None,
            }
        } else {
            None
        }
    }

    /// Returns the register index, always below [`ArchReg::COUNT`].
    pub const fn index(self) -> usize {
        self.0.get() as usize - 1
    }
}

// `Option<ArchReg>` uses the zero niche: one byte, no tag.
const _: () = assert!(std::mem::size_of::<Option<ArchReg>>() == 1);

impl Default for ArchReg {
    /// `r0`.
    fn default() -> Self {
        ArchReg::new(0)
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

/// A physical register file entry id (the paper's `prfid`).
///
/// An RFP prefetch packet carries the load's `prfid` so the prefetched data
/// can be written straight into the register file (paper §3.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysReg(u16);

impl PhysReg {
    /// Creates a physical register id.
    pub const fn new(index: u16) -> Self {
        PhysReg(index)
    }

    /// Returns the entry index within the physical register file.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The global, monotonically increasing sequence number of a dynamic
/// instruction — program order within the simulated trace.
///
/// Used as the ROB/LSQ age comparison key everywhere (e.g. "scan all *older*
/// stores" during RFP memory disambiguation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(u64);

impl SeqNum {
    /// Creates a sequence number.
    pub const fn new(raw: u64) -> Self {
        SeqNum(raw)
    }

    /// Returns the raw value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the next sequence number in program order.
    pub const fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// Returns true when `self` precedes `other` in program order.
    pub const fn is_older_than(self, other: SeqNum) -> bool {
        self.0 < other.0
    }
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for SeqNum {
    fn from(raw: u64) -> Self {
        SeqNum(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_index_and_tag_partition_the_pc() {
        let pc = Pc::new(0xffff_ffff_ffff_fffc);
        assert_eq!(pc.index_bits(10), 0x3ff);
        assert_eq!(pc.tag_bits(10, 16), 0xffff);
    }

    #[test]
    fn seqnum_ordering_matches_program_order() {
        let a = SeqNum::new(5);
        let b = a.next();
        assert!(a.is_older_than(b));
        assert!(!b.is_older_than(a));
        assert!(!a.is_older_than(a));
        assert!(a < b);
    }

    #[test]
    fn arch_reg_indices_round_trip_and_fit_one_byte() {
        for i in 0..ArchReg::COUNT as u8 {
            assert_eq!(ArchReg::new(i).index(), i as usize);
        }
        assert_eq!(ArchReg::try_new(64), None);
        assert_eq!(ArchReg::try_new(255), None);
        assert_eq!(ArchReg::default().index(), 0);
        assert!(ArchReg::new(3) < ArchReg::new(4));
    }

    #[test]
    #[should_panic(expected = "ArchReg index out of range")]
    fn arch_reg_new_refuses_index_64() {
        let _ = ArchReg::new(64);
    }

    #[test]
    fn display_forms_are_compact() {
        assert_eq!(format!("{}", ArchReg::new(3)), "r3");
        assert_eq!(format!("{}", PhysReg::new(120)), "p120");
        assert_eq!(format!("{}", SeqNum::new(9)), "#9");
    }
}
