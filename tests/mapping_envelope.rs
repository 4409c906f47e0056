//! Release-mode speed envelope for technology mapping.
//!
//! On `resyn2`-deployed c1908, c2670 and c3540, `map_aig` with `no_opt`
//! must be at least 3x faster than the cell matching alone done without a
//! memo: a test-side loop that calls `cut_function` and
//! `CellLibrary::matches_for` for every non-trivial cut of every AND node
//! over the same `CutSet`, which is the matching work a mapper does when it
//! matches per node and cut instead of once per distinct function. Both
//! run in one process on the same inputs, so the ratio does not depend on
//! the host. Each side gets the best of five runs. Debug builds skip (the
//! envelope is calibrated for `--release`).

use almost_repro::aig::cut::{cut_function, CutConfig, CutSet};
use almost_repro::aig::{Aig, Script, Tt};
use almost_repro::circuits::IscasBenchmark;
use almost_repro::netlist::{map_aig, CellLibrary, MapConfig};
use std::hint::black_box;
use std::time::Instant;

/// Restricts `tt` to its support variables (sorted indices).
fn compress(tt: &Tt, support: &[usize]) -> Tt {
    let mut out = Tt::zero(support.len());
    for idx in 0..out.num_bits() {
        let full = support
            .iter()
            .enumerate()
            .fold(0usize, |acc, (i, &s)| acc | (idx >> i & 1) << s);
        out.set_bit(idx, tt.get_bit(full));
    }
    out
}

/// Matches every multi-leaf cut function of every AND node, with no memo,
/// and returns the number of matches found.
fn match_every_cut(aig: &Aig, cuts: &CutSet, library: &CellLibrary) -> usize {
    let mut found = 0;
    for v in aig.iter_ands() {
        for cut in cuts.cuts_of(v) {
            if cut.leaves() == [v] {
                continue;
            }
            let tt = cut_function(aig, v, cut);
            let support = tt.support();
            if support.len() >= 2 {
                found += library.matches_for(&compress(&tt, &support)).len();
            }
        }
    }
    found
}

fn best_of_5<T>(mut run: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            black_box(run());
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn memoised_mapping_is_at_least_three_times_faster_than_unmemoised_matching() {
    if cfg!(debug_assertions) {
        eprintln!("skipping the mapping envelope: debug build (run with --release)");
        return;
    }
    let library = CellLibrary::nangate45();
    let config = MapConfig::no_opt();
    for bench in [
        IscasBenchmark::C1908,
        IscasBenchmark::C2670,
        IscasBenchmark::C3540,
    ] {
        let aig = Script::resyn2().apply(&bench.build());
        let cuts = CutSet::compute(
            &aig,
            CutConfig {
                k: 4,
                max_cuts: config.max_cuts,
            },
        );
        let matching_s = best_of_5(|| match_every_cut(&aig, &cuts, &library));
        let map_s = best_of_5(|| map_aig(&aig, &library, &config));
        let speedup = matching_s / map_s;
        println!(
            "{bench} resyn2 ({} ANDs): unmemoised matching {:.1} ms, map_aig {:.1} ms, {speedup:.1}x",
            aig.num_ands(),
            matching_s * 1e3,
            map_s * 1e3,
        );
        assert!(
            speedup >= 3.0,
            "{bench}: map_aig is only {speedup:.2}x faster than unmemoised matching (floor 3x)"
        );
    }
}
