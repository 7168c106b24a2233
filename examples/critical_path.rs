//! A hand-built rendition of the paper's Figure 3: the critical path of an
//! LLC miss includes every L1-hit load on the dependence chain that
//! computes the miss's address.
//!
//! The kernel below walks a chain of three L1-resident loads whose final
//! value indexes a large array (the critical LLC/DRAM miss), plus a pile of
//! independent bulk work. The chain loads are stride-predictable, so RFP
//! shortens exactly the hops the paper's figure highlights — watch the
//! cycles-per-iteration drop while the bulk work is unaffected.
//!
//! ```text
//! cargo run --release --example critical_path
//! ```

use rfp::core::{simulate, CoreConfig, OracleMode};
use rfp::stats::pct;
use rfp::trace::{MemRef, MicroOp};
use rfp::types::{Addr, ArchReg, Pc};

const ITERS: u64 = 8_000;

fn r(i: u8) -> ArchReg {
    ArchReg::new(i)
}

fn mem(addr: u64, value: u64) -> MemRef {
    MemRef::new(Addr::new(addr), 8, value)
}

/// One loop iteration, paper-Fig.-3 style:
///   chain: ld A -> ld B -> ld C -> (address of) ld BIG -> consumer
///   bulk : independent ALU work that fills the machine's width.
fn kernel() -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for i in 0..ITERS {
        // Three L1-resident chain loads (strided: RFP-coverable).
        ops.push(MicroOp::load(
            Pc::new(0x100),
            &[r(8)],
            r(10),
            mem(0x1_0000 + (i % 128) * 8, i),
        ));
        ops.push(MicroOp::alu(Pc::new(0x104), 1, &[r(10)], Some(r(11))));
        ops.push(MicroOp::load(
            Pc::new(0x108),
            &[r(11)],
            r(12),
            mem(0x2_0000 + (i % 128) * 8, i),
        ));
        ops.push(MicroOp::alu(Pc::new(0x10c), 1, &[r(12)], Some(r(13))));
        ops.push(MicroOp::load(
            Pc::new(0x110),
            &[r(13)],
            r(14),
            mem(0x3_0000 + (i % 128) * 8, i),
        ));
        // The critical miss: its address hangs off the chain; the data is a
        // random walk over 32 MiB (DRAM-resident, unpredictable).
        let big = (0x1000_0000 + i.wrapping_mul(0x9e37_79b9) % (32 << 20)) & !7;
        ops.push(MicroOp::load(Pc::new(0x114), &[r(14)], r(15), mem(big, i)));
        ops.push(MicroOp::alu(Pc::new(0x118), 1, &[r(15)], Some(r(8))));
        // Bulk, off the critical path.
        for k in 0..8u8 {
            ops.push(MicroOp::alu(
                Pc::new(0x200 + k as u64 * 4),
                1,
                &[r(0)],
                Some(r(24 + k)),
            ));
        }
    }
    ops
}

fn main() {
    let base = simulate(&CoreConfig::tiger_lake(), kernel()).expect("valid");
    let rfp = simulate(&CoreConfig::tiger_lake().with_rfp(), kernel()).expect("valid");
    let oracle = simulate(
        &CoreConfig::tiger_lake().with_oracle(OracleMode::L1ToRf),
        kernel(),
    )
    .expect("valid");

    let cpi = |s: &rfp::stats::CoreStats| s.cycles as f64 / ITERS as f64;
    println!("Figure-3-style kernel ({} iterations):\n", ITERS);
    println!("  baseline      : {:>6.2} cycles/iteration", cpi(&base));
    println!(
        "  RFP           : {:>6.2} cycles/iteration ({} faster)",
        cpi(&rfp),
        pct(cpi(&base) / cpi(&rfp) - 1.0)
    );
    println!(
        "  oracle L1->RF : {:>6.2} cycles/iteration ({} faster)",
        cpi(&oracle),
        pct(cpi(&base) / cpi(&oracle) - 1.0)
    );
    println!(
        "\nRFP covered {} of loads (the three chain loads; the critical miss\n\
         itself is unpredictable — shortening the chain *feeding* it is what\n\
         the paper's Figure 3 is about).",
        pct(rfp.rfp_useful as f64 / rfp.retired_loads as f64)
    );
}
