//! Release-mode speed envelope for truth-table resynthesis.
//!
//! Over every 4-cut function of RLL-64-locked c3540, probe-built into the
//! locked graph itself over the cut's own leaves (the probe `rewrite`
//! makes), `Resynth` must be at least 3x faster than the test-side
//! reference builder in `reference/mod.rs`, which re-derives covers on
//! every call and rebuilds every winning probe. Both run in the same
//! process on the same inputs, so the ratio does not depend on the host.
//! Each side gets the best of three runs; each `Resynth` run starts from
//! an empty memo, as one pass call does. Debug builds skip (the envelope
//! is calibrated for `--release`).

mod reference;

use almost_aig::cut::{cut_function, CutConfig, CutSet};
use almost_aig::isop::Resynth;
use almost_aig::{Aig, Lit, Tt};
use almost_circuits::IscasBenchmark;
use almost_locking::{LockingScheme, Rll};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Probes every `(table, leaves)` job into `dest` with `build`, rolling
/// each one back, and returns the root literals.
fn probe_all(
    dest: &mut Aig,
    jobs: &[(Tt, Vec<Lit>)],
    mut build: impl FnMut(&mut Aig, &Tt, &[Lit]) -> Lit,
) -> Vec<Lit> {
    jobs.iter()
        .map(|(tt, leaves)| {
            let cp = dest.checkpoint();
            let root = build(dest, tt, leaves);
            dest.rollback(cp);
            root
        })
        .collect()
}

fn best_of_3(mut run: impl FnMut() -> Vec<Lit>) -> (f64, Vec<Lit>) {
    let mut fastest = f64::INFINITY;
    let mut roots = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        roots = run();
        fastest = fastest.min(started.elapsed().as_secs_f64());
    }
    (fastest, roots)
}

#[test]
fn resynth_is_at_least_three_times_faster_than_the_reference_on_c3540() {
    if cfg!(debug_assertions) {
        eprintln!("skipping the synthesis envelope: debug build (run with --release)");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0xC3540);
    let locked = Rll::new(64)
        .lock(&IscasBenchmark::C3540.build(), &mut rng)
        .expect("enough gates for RLL-64");
    let aig = locked.aig;
    let cuts = CutSet::compute(&aig, CutConfig { k: 4, max_cuts: 8 });
    let jobs: Vec<(Tt, Vec<Lit>)> = aig
        .iter_ands()
        .flat_map(|v| cuts.cuts_of(v).iter().map(move |cut| (v, cut)))
        .filter(|(v, cut)| cut.size() >= 2 && cut.leaves() != [*v])
        .map(|(v, cut)| {
            let leaves = cut.leaves().iter().map(|&l| Lit::positive(l)).collect();
            (cut_function(&aig, v, cut), leaves)
        })
        .collect();

    let mut dest = aig.clone();
    let (reference_s, want) = best_of_3(|| {
        probe_all(&mut dest, &jobs, |d, tt, leaves| {
            reference::build_from_tt(d, tt, leaves)
        })
    });
    let (resynth_s, got) = best_of_3(|| {
        let mut resynth = Resynth::default();
        probe_all(&mut dest, &jobs, |d, tt, leaves| {
            resynth.build(d, tt, leaves)
        })
    });
    assert_eq!(got, want, "Resynth and the reference disagree on a root");

    let speedup = reference_s / resynth_s;
    println!(
        "c3540 RLL-64: {} 4-cut functions, reference {:.1} ms, Resynth {:.1} ms, {speedup:.1}x",
        jobs.len(),
        reference_s * 1e3,
        resynth_s * 1e3,
    );
    assert!(
        speedup >= 3.0,
        "Resynth is only {speedup:.2}x faster than the reference (floor 3x)"
    );
}
