//! Core configuration — the paper's Table 2 plus feature switches for every
//! evaluated mechanism. Values that no experiment varies are constants,
//! not fields.

use rfp_mem::{HierarchyConfig, OracleMode, PortConfig};
use rfp_predictors::{DlvpConfig, PrefetchTableConfig, ValuePredictorConfig};
use rfp_types::{ConfigError, Cycle};

/// Scheduling pipeline depth: wakeup + select + regread (the paper's
/// 3-cycle scheduling pipeline after Stark et al., §3.3).
pub const SCHED_LATENCY: Cycle = 3;
/// Extra cycles a cancelled uop needs before it can re-enter selection
/// (model choice; the paper does not give it).
pub const REISSUE_PENALTY: Cycle = 2;
/// Front-end redirect penalty after a mispredicted branch resolves
/// (model choice).
pub const MISPREDICT_REDIRECT: Cycle = 15;
/// Fetch-to-allocate depth with a uop-cache hit: the window DLVP's early
/// probe has to return data (§5.4 point 4).
pub const FETCH_TO_ALLOC: Cycle = 4;
/// Flush penalty for a value/address misprediction (the paper's VP
/// baseline: a 20-cycle flush).
pub const VP_FLUSH_PENALTY: Cycle = 20;
/// Extra pipeline cycles of a DLVP early probe beyond the raw L1 latency
/// (predictor access, decode identification, data transfer back to the
/// rename-time value file; model choice).
pub const AP_PROBE_OVERHEAD: Cycle = 4;
/// Maximum cycles a DLVP probe's data can be held in the (small) probe
/// buffer before allocation consumes it; older probe data is recycled and
/// the prediction is lost (model choice).
pub const AP_PROBE_HOLD: Cycle = 32;
/// Store-to-load forwarding latency (model choice: Table 2's 5-cycle L1
/// load-to-use latency).
pub const FORWARD_LATENCY: Cycle = 5;
/// EPP SSBF false-positive rate: the fraction of loads re-executed at
/// retirement when [`VpMode::Epp`] is active (model choice).
pub const EPP_FALSE_POSITIVE_RATE: f64 = 0.03;
/// Seed of the core's RNG, which draws only the EPP false-positive rolls.
pub const CORE_SEED: u64 = 0xc0de;
/// RFP request FIFO depth (the paper's 64-entry RFP queue, §3).
pub const RFP_QUEUE_ENTRIES: usize = 64;
/// Head-stall count at which a load PC becomes critical under
/// [`RfpConfig::critical_only`] targeting (model choice).
pub const CRITICALITY_THRESHOLD: u8 = 3;

/// Configuration of the RFP engine (§3).
#[derive(Debug, Clone, PartialEq)]
pub struct RfpConfig {
    /// The stride Prefetch Table.
    pub table: PrefetchTableConfig,
    /// Also consult the delta-context prefetcher and prefetch on its
    /// prediction when the stride table declines (§5.5.3).
    pub use_context: bool,
    /// Drop prefetches that miss the DTLB (§3.2.2; default true).
    pub drop_on_tlb_miss: bool,
    /// Let prefetches that miss the L1 continue to the lower levels
    /// (§3.2.2; default true — dropping costs only ~0.02%).
    pub continue_on_l1_miss: bool,
    /// Criticality-targeted prefetching (the paper's §5.1 future-work
    /// direction): only inject prefetches for loads observed blocking
    /// retirement at the head of the ROB ([`CRITICALITY_THRESHOLD`]).
    pub critical_only: bool,
}

impl Default for RfpConfig {
    fn default() -> Self {
        RfpConfig {
            table: PrefetchTableConfig::default(),
            use_context: false,
            drop_on_tlb_miss: true,
            continue_on_l1_miss: true,
            critical_only: false,
        }
    }
}

/// How conditional-branch mispredictions are decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchMode {
    /// Trust the trace's oracle mispredict markers (calibrated per
    /// workload; the default, as in most trace-driven simulators).
    #[default]
    TraceOracle,
    /// Model a gshare predictor over the trace's actual branch outcomes.
    Gshare,
}

/// Which value/address prediction scheme runs alongside (Fig. 15/16).
#[derive(Debug, Clone, PartialEq, Default)]
pub enum VpMode {
    /// No value prediction.
    #[default]
    Off,
    /// EVES-style value prediction only.
    Eves(ValuePredictorConfig),
    /// DLVP: fetch-time address prediction + early L1 probe used as a value
    /// prediction (§5.4).
    Dlvp(DlvpConfig),
    /// Composite: EVES fused with DLVP (the paper's VP baseline, ref \[68]).
    Composite(ValuePredictorConfig, DlvpConfig),
    /// EPP: DLVP-style early address prediction with register-file reuse
    /// and an SSBF whose false positives force retirement re-executions.
    Epp(DlvpConfig),
}

impl VpMode {
    /// True when any scheme is active.
    pub fn is_on(&self) -> bool {
        !matches!(self, VpMode::Off)
    }
}

/// Full core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Rename/dispatch width (uops per cycle).
    pub width: usize,
    /// Retire width.
    pub retire_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Reservation station (scheduler) entries.
    pub rs_entries: usize,
    /// Load queue entries.
    pub ldq_entries: usize,
    /// Store queue entries.
    pub stq_entries: usize,
    /// Integer/branch execution ports.
    pub alu_ports: usize,
    /// FP/vector execution ports (the FSPEC bottleneck).
    pub fp_ports: usize,
    /// Load AGU ports (loads entering address generation per cycle).
    pub load_agu_ports: usize,
    /// Store AGU ports.
    pub store_agu_ports: usize,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// L1 data port pool.
    pub ports: PortConfig,
    /// Baseline L1 IP-stride prefetcher (on in every paper configuration;
    /// turn off only for ablations).
    pub l1_ip_prefetcher: bool,
    /// Branch misprediction source.
    pub branch_mode: BranchMode,
    /// Register file prefetching (None = baseline).
    pub rfp: Option<RfpConfig>,
    /// Value/address prediction scheme. With RFP also on, RFP skips the
    /// loads the VP already covers (the paper's VP+RFP fusion policy,
    /// §5.3).
    pub vp: VpMode,
}

impl CoreConfig {
    /// The paper's baseline: a 5-wide OOO core with parameters similar to
    /// Intel Tiger Lake (Table 2), no RFP, no VP.
    pub fn tiger_lake() -> Self {
        CoreConfig {
            width: 5,
            retire_width: 5,
            rob_entries: 352,
            rs_entries: 128,
            ldq_entries: 128,
            stq_entries: 72,
            alu_ports: 4,
            fp_ports: 2,
            load_agu_ports: 2,
            store_agu_ports: 1,
            mem: HierarchyConfig::tiger_lake(),
            ports: PortConfig {
                load_ports: 2,
                dedicated_rfp: 0,
            },
            l1_ip_prefetcher: true,
            branch_mode: BranchMode::default(),
            rfp: None,
            vp: VpMode::Off,
        }
    }

    /// The paper's futuristic up-scaled core (`Baseline-2x`, Fig. 12):
    /// 10-wide, all execution resources doubled, more L1 bandwidth.
    pub fn baseline_2x() -> Self {
        let mut c = Self::tiger_lake();
        c.width = 10;
        c.retire_width = 10;
        c.rob_entries = 704;
        c.rs_entries = 256;
        c.ldq_entries = 256;
        c.stq_entries = 144;
        c.alu_ports = 8;
        c.fp_ports = 4;
        c.load_agu_ports = 4;
        c.store_agu_ports = 2;
        c.ports.load_ports = 4;
        c
    }

    /// Returns this configuration with RFP enabled (default RFP settings).
    pub fn with_rfp(mut self) -> Self {
        self.rfp = Some(RfpConfig::default());
        self
    }

    /// Returns this configuration with an oracle prefetch mode installed.
    pub fn with_oracle(mut self, oracle: OracleMode) -> Self {
        self.mem.oracle = oracle;
        self
    }

    /// Number of physical registers needed: one per ROB entry plus the
    /// architectural state.
    pub fn phys_regs(&self) -> usize {
        self.rob_entries + 64
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 || self.retire_width == 0 {
            return Err(ConfigError::new("width", "must be nonzero"));
        }
        // Retire slots travel to probes as a `u8`.
        if self.width > usize::from(u8::MAX) || self.retire_width > usize::from(u8::MAX) {
            return Err(ConfigError::new("width", "must be at most 255"));
        }
        if self.rob_entries < self.width {
            return Err(ConfigError::new(
                "rob_entries",
                "must cover one dispatch group",
            ));
        }
        if self.rs_entries == 0 || self.rs_entries > self.rob_entries {
            return Err(ConfigError::new(
                "rs_entries",
                "must be nonzero and no larger than the ROB",
            ));
        }
        if self.ldq_entries == 0 || self.stq_entries == 0 {
            return Err(ConfigError::new("lsq", "queues must be nonzero"));
        }
        if self.alu_ports == 0
            || self.fp_ports == 0
            || self.load_agu_ports == 0
            || self.store_agu_ports == 0
        {
            return Err(ConfigError::new("ports", "execution ports must be nonzero"));
        }
        self.mem.validate()?;
        self.ports.validate()?;
        if let Some(rfp) = &self.rfp {
            rfp.table.validate()?;
        }
        match &self.vp {
            VpMode::Off => {}
            VpMode::Eves(v) => v.validate()?,
            VpMode::Dlvp(d) | VpMode::Epp(d) => d.validate()?,
            VpMode::Composite(v, d) => {
                v.validate()?;
                d.validate()?;
            }
        }
        Ok(())
    }
}

mod codec_impls {
    //! Binary codec for the on-disk experiment store: configurations are
    //! part of warm-snapshot payloads and of content-addressed job keys,
    //! so their wire form must be stable and exhaustive.

    use super::{BranchMode, CoreConfig, RfpConfig, VpMode};
    use rfp_types::codec::{ByteReader, ByteWriter, Codec, CodecError};

    impl Codec for RfpConfig {
        fn encode(&self, w: &mut ByteWriter) {
            let RfpConfig {
                table,
                use_context,
                drop_on_tlb_miss,
                continue_on_l1_miss,
                critical_only,
            } = self;
            table.encode(w);
            use_context.encode(w);
            drop_on_tlb_miss.encode(w);
            continue_on_l1_miss.encode(w);
            critical_only.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            Ok(RfpConfig {
                table: Codec::decode(r)?,
                use_context: Codec::decode(r)?,
                drop_on_tlb_miss: Codec::decode(r)?,
                continue_on_l1_miss: Codec::decode(r)?,
                critical_only: Codec::decode(r)?,
            })
        }
    }

    impl Codec for BranchMode {
        fn encode(&self, w: &mut ByteWriter) {
            w.put_u8(match self {
                BranchMode::TraceOracle => 0,
                BranchMode::Gshare => 1,
            });
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(BranchMode::TraceOracle),
                1 => Ok(BranchMode::Gshare),
                _ => Err(CodecError::Invalid("branch mode tag")),
            }
        }
    }

    impl Codec for VpMode {
        fn encode(&self, w: &mut ByteWriter) {
            match self {
                VpMode::Off => w.put_u8(0),
                VpMode::Eves(v) => {
                    w.put_u8(1);
                    v.encode(w);
                }
                VpMode::Dlvp(d) => {
                    w.put_u8(2);
                    d.encode(w);
                }
                VpMode::Composite(v, d) => {
                    w.put_u8(3);
                    v.encode(w);
                    d.encode(w);
                }
                VpMode::Epp(d) => {
                    w.put_u8(4);
                    d.encode(w);
                }
            }
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            match r.get_u8()? {
                0 => Ok(VpMode::Off),
                1 => Ok(VpMode::Eves(Codec::decode(r)?)),
                2 => Ok(VpMode::Dlvp(Codec::decode(r)?)),
                3 => Ok(VpMode::Composite(Codec::decode(r)?, Codec::decode(r)?)),
                4 => Ok(VpMode::Epp(Codec::decode(r)?)),
                _ => Err(CodecError::Invalid("vp mode tag")),
            }
        }
    }

    impl Codec for CoreConfig {
        fn encode(&self, w: &mut ByteWriter) {
            let CoreConfig {
                width,
                retire_width,
                rob_entries,
                rs_entries,
                ldq_entries,
                stq_entries,
                alu_ports,
                fp_ports,
                load_agu_ports,
                store_agu_ports,
                mem,
                ports,
                l1_ip_prefetcher,
                branch_mode,
                rfp,
                vp,
            } = self;
            width.encode(w);
            retire_width.encode(w);
            rob_entries.encode(w);
            rs_entries.encode(w);
            ldq_entries.encode(w);
            stq_entries.encode(w);
            alu_ports.encode(w);
            fp_ports.encode(w);
            load_agu_ports.encode(w);
            store_agu_ports.encode(w);
            mem.encode(w);
            ports.encode(w);
            l1_ip_prefetcher.encode(w);
            branch_mode.encode(w);
            rfp.encode(w);
            vp.encode(w);
        }
        fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            let c = CoreConfig {
                width: Codec::decode(r)?,
                retire_width: Codec::decode(r)?,
                rob_entries: Codec::decode(r)?,
                rs_entries: Codec::decode(r)?,
                ldq_entries: Codec::decode(r)?,
                stq_entries: Codec::decode(r)?,
                alu_ports: Codec::decode(r)?,
                fp_ports: Codec::decode(r)?,
                load_agu_ports: Codec::decode(r)?,
                store_agu_ports: Codec::decode(r)?,
                mem: Codec::decode(r)?,
                ports: Codec::decode(r)?,
                l1_ip_prefetcher: Codec::decode(r)?,
                branch_mode: Codec::decode(r)?,
                rfp: Codec::decode(r)?,
                vp: Codec::decode(r)?,
            };
            if c.validate().is_err() {
                return Err(CodecError::Invalid("core config"));
            }
            Ok(c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_codec_round_trips_every_vp_mode() {
        use rfp_types::codec::{decode_from_slice, encode_to_vec};
        let mut c = CoreConfig::baseline_2x().with_rfp();
        for vp in [
            VpMode::Off,
            VpMode::Eves(ValuePredictorConfig::default()),
            VpMode::Dlvp(DlvpConfig::default()),
            VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default()),
            VpMode::Epp(DlvpConfig::default()),
        ] {
            c.vp = vp;
            let bytes = encode_to_vec(&c);
            let back: CoreConfig = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn invalid_config_bytes_are_rejected() {
        use rfp_types::codec::{decode_from_slice, encode_to_vec};
        let mut c = CoreConfig::tiger_lake();
        c.rs_entries = c.rob_entries + 1; // invalid: RS larger than ROB
        let bytes = encode_to_vec(&c);
        assert!(decode_from_slice::<CoreConfig>(&bytes).is_err());
    }

    #[test]
    fn baselines_validate() {
        CoreConfig::tiger_lake().validate().unwrap();
        CoreConfig::baseline_2x().validate().unwrap();
        CoreConfig::tiger_lake().with_rfp().validate().unwrap();
    }

    #[test]
    fn baseline_2x_doubles_resources() {
        let a = CoreConfig::tiger_lake();
        let b = CoreConfig::baseline_2x();
        assert_eq!(b.width, 2 * a.width);
        assert_eq!(b.rob_entries, 2 * a.rob_entries);
        assert_eq!(b.ports.load_ports, 2 * a.ports.load_ports);
    }

    #[test]
    fn invalid_rs_size_is_rejected() {
        let mut c = CoreConfig::tiger_lake();
        c.rs_entries = c.rob_entries + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn oracle_builder_installs_mode() {
        let c = CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf);
        assert_eq!(c.mem.oracle, OracleMode::L1ToRf);
    }

    #[test]
    fn vp_modes_validate() {
        let mut c = CoreConfig::tiger_lake();
        c.vp = VpMode::Eves(ValuePredictorConfig::default());
        c.validate().unwrap();
        c.vp = VpMode::Composite(ValuePredictorConfig::default(), DlvpConfig::default());
        c.validate().unwrap();
        assert!(!VpMode::Off.is_on());
        assert!(c.vp.is_on());
    }

    #[test]
    fn branch_mode_defaults_to_trace_oracle() {
        let c = CoreConfig::tiger_lake();
        assert_eq!(c.branch_mode, BranchMode::TraceOracle);
        let mut g = c.clone();
        g.branch_mode = BranchMode::Gshare;
        g.validate().unwrap();
    }

    #[test]
    fn critical_only_rfp_validates() {
        let mut c = CoreConfig::tiger_lake().with_rfp();
        if let Some(r) = c.rfp.as_mut() {
            r.critical_only = true;
        }
        c.validate().unwrap();
    }

    #[test]
    fn phys_regs_cover_rob_plus_arch_state() {
        let c = CoreConfig::tiger_lake();
        assert!(c.phys_regs() >= c.rob_entries + 64);
    }
}
