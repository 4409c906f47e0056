//! Golden pass fixture: every recipe letter, applied once to an RLL-64
//! locked c1908 / c2670 / c3540, must produce exactly this graph. Each
//! result is pinned by its AND count and an FNV-1a hash over every AND
//! node's fanin literals (in node order) followed by the output literals,
//! so any change to node order, sharing or polarity shows up here, not
//! just a change in size.

use almost_aig::{Aig, Pass};
use almost_circuits::IscasBenchmark;
use almost_locking::{LockingScheme, Rll};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the RLL-64 lock applied before every pass.
const LOCK_SEED: u64 = 0x60_1D;

/// `(bench, letter, and_count, fnv1a)`.
const GOLDEN: [(IscasBenchmark, char, usize, u64); 24] = [
    (IscasBenchmark::C1908, 'w', 637, 0x898b_2728_7482_7a58),
    (IscasBenchmark::C1908, 'W', 637, 0x898b_2728_7482_7a58),
    (IscasBenchmark::C1908, 'f', 638, 0x20ef_0cef_fc01_b514),
    (IscasBenchmark::C1908, 'F', 636, 0xd748_21f2_655b_325e),
    (IscasBenchmark::C1908, 's', 628, 0x7306_523b_077d_f051),
    (IscasBenchmark::C1908, 'S', 615, 0xcdd2_a250_bc5d_2b52),
    (IscasBenchmark::C1908, 'b', 643, 0xd574_bb6f_dc6d_bfd5),
    (IscasBenchmark::C1908, 'g', 636, 0xa947_4524_6075_f2d9),
    (IscasBenchmark::C2670, 'w', 1047, 0x3979_80d2_a3f8_2e4a),
    (IscasBenchmark::C2670, 'W', 1047, 0x3979_80d2_a3f8_2e4a),
    (IscasBenchmark::C2670, 'f', 1047, 0xe2eb_3c15_ddec_4dd8),
    (IscasBenchmark::C2670, 'F', 1071, 0x861b_3fcf_aa46_8fd5),
    (IscasBenchmark::C2670, 's', 1047, 0x2006_85ce_1d97_7408),
    (IscasBenchmark::C2670, 'S', 1046, 0x08f5_9e66_8b65_2213),
    (IscasBenchmark::C2670, 'b', 1047, 0x3563_c20b_9232_1761),
    (IscasBenchmark::C2670, 'g', 1047, 0x2006_85ce_1d97_7408),
    (IscasBenchmark::C3540, 'w', 841, 0x2f13_11b1_8218_878c),
    (IscasBenchmark::C3540, 'W', 841, 0x2f13_11b1_8218_878c),
    (IscasBenchmark::C3540, 'f', 861, 0x1139_a4ac_e016_3eb8),
    (IscasBenchmark::C3540, 'F', 871, 0x5924_9d32_048e_b4c6),
    (IscasBenchmark::C3540, 's', 836, 0x472c_3b01_9268_9b44),
    (IscasBenchmark::C3540, 'S', 831, 0x70c0_e130_1c4d_a49e),
    (IscasBenchmark::C3540, 'b', 859, 0xc132_35c5_d9b5_0180),
    (IscasBenchmark::C3540, 'g', 843, 0x348f_0c43_2226_4e8d),
];

/// 64-bit FNV-1a over the little-endian literal indices of every AND
/// node's fanins, then of every output.
fn fingerprint(aig: &Aig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in aig.iter_ands() {
        let (a, b) = aig.and_fanins(v).expect("iterating ANDs");
        eat(a.index());
        eat(b.index());
    }
    for out in aig.outputs() {
        eat(out.index());
    }
    h
}

#[test]
fn every_pass_letter_reproduces_the_golden_graph() {
    let mut actual = Vec::new();
    for bench in [
        IscasBenchmark::C1908,
        IscasBenchmark::C2670,
        IscasBenchmark::C3540,
    ] {
        let mut rng = StdRng::seed_from_u64(LOCK_SEED);
        let locked = Rll::new(64)
            .lock(&bench.build(), &mut rng)
            .expect("enough gates for RLL-64");
        for letter in "wWfFsSbg".chars() {
            let pass = Pass::from_mnemonic(letter).expect("recipe letter");
            let out = pass.apply(&locked.aig);
            let row = (bench, letter, out.num_ands(), fingerprint(&out));
            println!("{row:?}");
            actual.push(row);
        }
    }
    assert_eq!(actual, GOLDEN);
}
