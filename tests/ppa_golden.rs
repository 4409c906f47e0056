//! Golden PPA fixture: `analyze` on resyn2-mapped benchmarks must report
//! exactly these area / delay / power values, compared as `f64` bit
//! patterns. Any change to the switching-activity simulator, the random
//! stimulus order or the summation order shows up here as a bit flip,
//! not as a tolerance-sized drift.

use almost_repro::aig::Script;
use almost_repro::circuits::IscasBenchmark;
use almost_repro::netlist::{analyze, map_aig, CellLibrary, MapConfig};

/// `(bench, area, delay, power)`, each value as `f64::to_bits`.
const GOLDEN: [(IscasBenchmark, u64, u64, u64); 3] = [
    (
        IscasBenchmark::C432,
        0x4067_c614_7ae1_47b2,
        0x3fe8_f5c2_8f5c_28fb,
        0x4060_6ca0_276c_8b43,
    ),
    (
        IscasBenchmark::C1908,
        0x4075_3ae9_78d4_fdf1,
        0x3fe7_b645_a1ca_c087,
        0x4079_499a_5ba5_e354,
    ),
    (
        IscasBenchmark::C3540,
        0x407c_874b_c6a7_efb7,
        0x3fe5_70a3_d70a_3d75,
        0x4080_5285_c147_ae15,
    ),
];

#[test]
fn resyn2_mapped_ppa_is_bit_identical_to_the_golden_values() {
    let lib = CellLibrary::nangate45();
    let actual: Vec<(IscasBenchmark, u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(bench, ..)| {
            let aig = Script::resyn2().apply(&bench.build());
            let netlist = map_aig(&aig, &lib, &MapConfig::no_opt());
            let report = analyze(&netlist, &aig, &lib, 4, 1);
            println!(
                "{bench}: area {} delay {} power {}",
                report.area, report.delay, report.power
            );
            (
                bench,
                report.area.to_bits(),
                report.delay.to_bits(),
                report.power.to_bits(),
            )
        })
        .collect();
    assert_eq!(actual, GOLDEN);
}
