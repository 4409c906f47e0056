//! The timing wrappers change nothing the library computes.

use almost_aig::Script;
use almost_attacks::subgraph::SubgraphConfig;
use almost_circuits::IscasBenchmark;
use almost_core::{generate_secure_recipe, train_proxy, ProxyConfig, ProxyKind, SaConfig};
use almost_locking::{
    apply_key, AntiSat, BatchOracle, CircuitOracle, LockedCircuit, LockingScheme, Oracle, Rll,
    SarLock,
};
use almost_perfbench::config::exact_sat;
use almost_perfbench::trace::Tracer;
use almost_perfbench::workloads::secure_flow::search;
use almost_perfbench::wrap::TimedOracle;
use almost_sat::{check_equivalence, Equivalence};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn locked_c432(scheme: &dyn LockingScheme, seed: u64) -> LockedCircuit {
    scheme
        .lock(
            &IscasBenchmark::C432.build(),
            &mut StdRng::seed_from_u64(seed),
        )
        .expect("c432 is lockable")
}

#[test]
fn wrapped_search_matches_generate_secure_recipe() {
    let locked = locked_c432(&Rll::new(16), 3);
    let proxy = train_proxy(
        &locked,
        ProxyKind::Resyn2,
        &ProxyConfig {
            initial_samples: 48,
            epochs: 10,
            period: 10,
            hidden: 8,
            subgraph: SubgraphConfig {
                hops: 2,
                max_nodes: 24,
            },
            ..ProxyConfig::default()
        },
    );
    let sa = SaConfig {
        iterations: 4,
        proposals: 2,
        seed: 4,
        ..SaConfig::default()
    };
    let expected = generate_secure_recipe(&locked, &proxy, &sa);
    for traced in [false, true] {
        let tracer = Tracer::new(traced);
        let (run, stats) = search(&tracer, &locked, &proxy, &sa);
        let series: Vec<f64> = run
            .scores
            .iter()
            .map(|s| s.accuracy.expect("proxy objective records accuracy"))
            .collect();
        assert_eq!(run.best, expected.recipe);
        assert_eq!(series, expected.accuracy_series);
        assert_eq!(run.best_score.accuracy, Some(expected.accuracy));
        assert_eq!(stats.cache.misses, expected.engine.cache.misses);
        let scored = tracer
            .take()
            .iter()
            .filter(|s| s.name == "almost.search.score")
            .count();
        assert_eq!(scored, if traced { 1 + sa.iterations } else { 0 });
    }
}

#[test]
fn wrapped_oracle_answers_and_counts_like_the_bare_one() {
    let locked = locked_c432(&Rll::new(16), 5);
    let bare = CircuitOracle::from_locked(&locked);
    let inner = CircuitOracle::from_locked(&locked);
    let wrapped = TimedOracle::new(&inner);
    let mut rng = StdRng::seed_from_u64(9);
    let n = bare.num_inputs();
    let patterns: Vec<Vec<bool>> = (0..70)
        .map(|_| (0..n).map(|_| rng.random::<bool>()).collect())
        .collect();
    let words: Vec<Vec<u64>> = (0..n).map(|_| vec![rng.random::<u64>(); 2]).collect();

    assert_eq!(wrapped.query(&patterns[0]), bare.query(&patterns[0]));
    assert_eq!(wrapped.query_batch(&patterns), bare.query_batch(&patterns));
    assert_eq!(wrapped.query_words(&words, 2), bare.query_words(&words, 2));
    assert_eq!(wrapped.queries_served(), bare.queries_served());
    assert_eq!(wrapped.patterns(), 1 + 70 + 128);
    assert_eq!(wrapped.num_outputs(), bare.num_outputs());
}

/// Exact SAT through the wrapper: the pattern count equals the attack's
/// query count and the key unlocks the design. On the point-function
/// locks the DIP count is forced (2^k for Anti-SAT, 2^k - 1 for SARLock)
/// and must match the bare oracle's run exactly; with a one-worker
/// portfolio (no races) the keys and DIP logs match bit for bit too.
#[test]
fn wrapped_oracle_yields_the_same_keys_and_dips() {
    let cases: [(Box<dyn LockingScheme>, bool); 3] = [
        (Box::new(AntiSat::new(4)), true),
        (Box::new(SarLock::new(4)), true),
        (Box::new(Rll::new(16)), false),
    ];
    let serial = almost_sat::portfolio::default_width() == 1;
    for (seed, (scheme, forced)) in cases.iter().enumerate() {
        let design = IscasBenchmark::C432.build();
        let locked = locked_c432(scheme.as_ref(), seed as u64 + 11);
        let deployed = Script::resyn2().apply(&locked.aig);
        let (start, len) = (locked.key_input_start, locked.key_size());

        let bare = CircuitOracle::from_locked(&locked);
        let bare_run = exact_sat().run(&deployed, start, len, &bare);
        let inner = CircuitOracle::from_locked(&locked);
        let oracle = TimedOracle::new(&inner);
        let run = exact_sat().run(&deployed, start, len, &oracle);

        assert!(
            run.proved_exact && bare_run.proved_exact,
            "{}",
            scheme.name()
        );
        assert!(run.accounting_consistent());
        assert_eq!(oracle.patterns(), run.oracle_queries, "{}", scheme.name());
        for key in [&run.recovered, &bare_run.recovered] {
            let unlocked = apply_key(&deployed, start, key);
            assert_eq!(
                check_equivalence(&design, &unlocked),
                Equivalence::Equivalent
            );
        }
        if *forced || serial {
            assert_eq!(
                run.iterations.len(),
                bare_run.iterations.len(),
                "{}",
                scheme.name()
            );
            assert_eq!(run.oracle_queries, bare_run.oracle_queries);
        }
        if serial {
            assert_eq!(run.recovered, bare_run.recovered);
            assert_eq!(run.iterations, bare_run.iterations);
        }
    }
}
