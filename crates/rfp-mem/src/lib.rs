//! Memory-system substrate for the RFP simulator: set-associative caches,
//! MSHRs, two-level data TLBs, an L2 stream prefetcher, L1 port arbitration
//! and the oracle-latency modes used for the paper's Figure 1 headroom
//! study.
//!
//! The hierarchy mirrors the paper's Tiger-Lake-like baseline (Table 2):
//! a 5-cycle 48 KiB L1D, 14-cycle 1.25 MiB L2, ~40-cycle LLC and 200-cycle
//! DRAM. See [`HierarchyConfig::tiger_lake`].
//!
//! # Examples
//!
//! ```
//! use rfp_mem::{HierarchyConfig, MemoryHierarchy};
//! use rfp_types::Addr;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::tiger_lake())?;
//! let r = mem.access(Addr::new(0x1234_5678), 0, false);
//! println!("served by {:?} at cycle {}", r.level, r.complete_at);
//! # Ok::<(), rfp_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod mshr;
mod ports;
mod prefetch;
mod tag_store;
mod tlb;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{AccessResult, HierarchyConfig, HitLevel, MemoryHierarchy, OracleMode};
pub use mshr::{MshrFile, MshrOutcome};
pub use ports::{LoadPorts, PortClient, PortConfig};
pub use prefetch::StreamPrefetcher;
pub use tlb::{DataTlb, TlbConfig, TlbOutcome};
