//! Experiments E1–E16 (indexed in the README's experiment table;
//! E13–E16 are the extension experiments). Host throughput and the
//! durability soak are measured by the engine benchmark in
//! `benchmark/`, not here.

pub mod connectivity;
pub mod extensions;
pub mod matching;
pub mod micro;
pub mod msf;

use crate::table::Table;

/// Runs one experiment by id, returning its tables.
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "e1" => connectivity::e1_rounds_per_batch(),
        "e2" => connectivity::e2_memory_vs_m(),
        "e2x" => connectivity::e2x_memory_crossover(),
        "e3" => connectivity::e3_baseline_comparison(),
        "e4" => msf::e4_exact_msf(),
        "e5" => msf::e5_approx_msf(),
        "e6" => msf::e6_bipartiteness(),
        "e7" => matching::e7_insertion_matching(),
        "e8" => matching::e8_dynamic_matching(),
        "e9" => matching::e9_size_estimation(),
        "e10" => micro::e10_sketch_quality(),
        "e11" => micro::e11_etf_ops(),
        "e12" => connectivity::e12_ablation(),
        "e13" => extensions::e13_kconn(),
        "e14" => extensions::e14_robustness(),
        "e15" => extensions::e15_vertex_churn(),
        "e16" => extensions::e16_preprocessing(),
        other => panic!("unknown experiment id {other:?} (use e1..e16, e2x or all)"),
    }
}

/// All experiment ids in order.
pub const ALL: [&str; 16] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-runs the light experiments end to end (the heavy ones —
    /// e1/e2/e10/e12 — are exercised by the release binary; these
    /// cover the harness code paths under `cargo test`).
    #[test]
    fn light_experiments_produce_tables() {
        for id in ["e4", "e6", "e7", "e9", "e15"] {
            let tables = run(id);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id} produced an empty table");
                let rendered = t.render();
                assert!(rendered.contains("##"), "{id} renders a caption");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        let _ = run("e99");
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = ALL.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
    }
}
