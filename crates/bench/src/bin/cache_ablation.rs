//! A5 — ablations on the Sequent structure's per-chain cache, plus the
//! §3.4 hit-ratio pitfall (redundant packets inflate hit rate without
//! reducing per-transaction work).

use tcpdemux_core::{ChainPolicy, SequentDemux, SuiteEntry};
use tcpdemux_hash::Multiplicative;
use tcpdemux_sim::tpca::{TpcaSim, TpcaSimConfig};

fn main() {
    println!("Cache ablation: per-chain one-entry cache on vs. off");
    println!("(TPC/A, 2,000 users, R = 0.2 s; and packet trains)\n");

    // TPC/A: the cache barely matters (hit rate H/N ≈ 1%)...
    let cfg = TpcaSimConfig {
        users: 2000,
        transactions: 20_000,
        warmup_transactions: 4_000,
        ..TpcaSimConfig::default()
    };
    let mut suite = vec![
        SuiteEntry::from(SequentDemux::new(Multiplicative, 19)),
        SuiteEntry::from(SequentDemux::with_policy(
            Multiplicative,
            19,
            ChainPolicy::Uncached,
        )),
    ];
    let reports = TpcaSim::new(cfg, 0xAB1E).run(&mut suite);
    println!("{:<22} {:>10} {:>9}", "structure", "mean PCBs", "hit rate");
    for r in &reports {
        println!(
            "{:<22} {:>10.1} {:>8.1}%",
            r.name,
            r.stats.mean_examined(),
            r.stats.hit_rate() * 100.0
        );
    }
    println!("-> under OLTP the cache is nearly irrelevant either way.\n");

    // The §3.4 pitfall: 3x the packets per transaction.
    println!("Hit-ratio pitfall: redundant query packets (old chatty software)");
    println!(
        "{:<14} {:>9} {:>22}",
        "queries/txn", "hit rate", "PCBs searched per txn"
    );
    for queries in [1u32, 3] {
        let cfg = TpcaSimConfig {
            users: 2000,
            transactions: 10_000,
            warmup_transactions: 2_000,
            queries_per_txn: queries,
            ..TpcaSimConfig::default()
        };
        let mut suite = vec![SuiteEntry::from(SequentDemux::new(Multiplicative, 19))];
        let reports = TpcaSim::new(cfg, 0xAB1F).run(&mut suite);
        let r = &reports[0];
        let txns = r.data_stats.lookups as f64 / f64::from(queries);
        println!(
            "{:<14} {:>8.1}% {:>22.1}",
            queries,
            r.stats.hit_rate() * 100.0,
            r.stats.pcbs_examined as f64 / txns
        );
    }
    println!("\n-> the hit ratio balloons while the per-transaction work does");
    println!("   not improve: 'focusing strictly on hit ratio is a common");
    println!("   pitfall ... the miss penalty dominates the hit ratio' (§3.4).");
}
