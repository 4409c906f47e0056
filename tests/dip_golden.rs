//! Golden DIP-loop trajectories of the oracle-guided attacks.
//!
//! Pins, for a fixed set of locked c432/c880 instances, everything the
//! exact SAT attack, AppSAT and Double DIP hand back: the recovered key,
//! the convergence flag (`proved_exact` / `two_dip_settled`), the oracle
//! query count, the miter solver's conflicts/decisions/propagations and
//! every logged [`DipIteration`]. The runs cover every exit of both DIP
//! loops:
//!
//! - exact SAT to the UNSAT proof on RLL, SARLock+RLL and Anti-SAT;
//! - AppSAT through the settlement mismatch cap into a zero-mismatch
//!   accept, and AppSAT on a 32-bit key;
//! - Double DIP to its 2-DIP UNSAT proof on RLL and SARLock+RLL, and out
//!   of conflict budget on Anti-SAT and SARLock+RLL.
//!
//! The portfolio is pinned to the width-1 serial solver, whose search is
//! bit-deterministic, so a refactor of the miters or the DIP loops that
//! changes variable order, clause order or query order fails here. On a
//! mismatch the test prints the observed table as Rust source; a
//! deliberate behaviour change re-pins by pasting it over [`GOLDEN`].

use almost_attacks::testutil::locked_oracle;
use almost_attacks::{DipIteration, DoubleDip, SatAttack, SatAttackConfig};
use almost_circuits::IscasBenchmark;
use almost_locking::{AntiSat, LockingScheme, Rll, SarLock, Stacked};
use almost_sat::SolverStats;

/// One pinned attack run.
struct Golden {
    name: &'static str,
    /// Recovered key, one `0`/`1` per key bit.
    key: &'static str,
    /// `proved_exact` for SAT/AppSAT, `two_dip_settled` for Double DIP.
    settled: bool,
    oracle_queries: usize,
    /// Solver conflicts, decisions, propagations.
    effort: (u64, u64, u64),
    /// `(dip_count, conflicts, oracle_queries, settlement_mismatches)`
    /// of every logged iteration.
    iterations: &'static [(usize, u64, usize, Option<usize>)],
}

/// What one run produced, in [`Golden`]'s shape.
#[derive(PartialEq)]
struct Observed {
    name: &'static str,
    key: String,
    settled: bool,
    oracle_queries: usize,
    effort: (u64, u64, u64),
    iterations: Vec<(usize, u64, usize, Option<usize>)>,
}

impl Observed {
    fn new(
        name: &'static str,
        key: &[bool],
        settled: bool,
        oracle_queries: usize,
        solver: SolverStats,
        iterations: &[DipIteration],
    ) -> Self {
        Observed {
            name,
            key: key.iter().map(|&b| if b { '1' } else { '0' }).collect(),
            settled,
            oracle_queries,
            effort: (solver.conflicts, solver.decisions, solver.propagations),
            iterations: iterations
                .iter()
                .map(|it| {
                    (
                        it.dip_count,
                        it.conflicts,
                        it.oracle_queries,
                        it.settlement_mismatches,
                    )
                })
                .collect(),
        }
    }

    fn from_golden(g: &Golden) -> Self {
        Observed {
            name: g.name,
            key: g.key.to_string(),
            settled: g.settled,
            oracle_queries: g.oracle_queries,
            effort: g.effort,
            iterations: g.iterations.to_vec(),
        }
    }

    /// The run as a [`Golden`] literal.
    fn to_source(&self) -> String {
        let iterations: Vec<String> = self
            .iterations
            .chunks(4)
            .map(|row| {
                let row: Vec<String> = row
                    .iter()
                    .map(|(d, c, q, m)| format!("({d}, {c}, {q}, {m:?}),"))
                    .collect();
                format!("            {}\n", row.join(" "))
            })
            .collect();
        format!(
            "    Golden {{\n        name: {:?},\n        key: {:?},\n        settled: {},\n        \
             oracle_queries: {},\n        effort: {:?},\n        iterations: &[\n{}        ],\n    }},\n",
            self.name,
            self.key,
            self.settled,
            self.oracle_queries,
            self.effort,
            iterations.concat()
        )
    }
}

enum Attack {
    Sat(SatAttack),
    DoubleDip(DoubleDip),
}

/// Locks `bench` with `scheme` under `seed` and runs `attack` on it.
fn observe(
    name: &'static str,
    bench: IscasBenchmark,
    scheme: &dyn LockingScheme,
    seed: u64,
    attack: Attack,
) -> Observed {
    let (locked, oracle) = locked_oracle(&bench.build(), scheme, seed);
    let (aig, start, len) = (&locked.aig, locked.key_input_start, locked.key_size());
    match attack {
        Attack::Sat(attack) => {
            let run = attack.run(aig, start, len, &oracle);
            assert!(run.accounting_consistent(), "{name}: DIP ledger");
            Observed::new(
                name,
                &run.recovered,
                run.proved_exact,
                run.oracle_queries,
                run.solver,
                &run.iterations,
            )
        }
        Attack::DoubleDip(attack) => {
            let run = attack.run(aig, start, len, &oracle);
            assert!(run.accounting_consistent(), "{name}: DIP ledger");
            Observed::new(
                name,
                &run.recovered,
                run.two_dip_settled,
                run.oracle_queries,
                run.solver,
                &run.iterations,
            )
        }
    }
}

fn observe_all() -> Vec<Observed> {
    use IscasBenchmark::{C432, C880};
    vec![
        observe(
            "sat c432 rll16",
            C432,
            &Rll::new(16),
            1,
            Attack::Sat(SatAttack::exact()),
        ),
        observe(
            "sat c432 sarlock6+rll8",
            C432,
            &Stacked::new(Rll::new(8), SarLock::new(6)),
            2,
            Attack::Sat(SatAttack::exact()),
        ),
        observe(
            "sat c432 antisat4",
            C432,
            &AntiSat::new(4),
            3,
            Attack::Sat(SatAttack::exact()),
        ),
        observe(
            "appsat(3,50) c432 rll12",
            C432,
            &Rll::new(12),
            4,
            Attack::Sat(SatAttack::new(SatAttackConfig::approximate(3, 50))),
        ),
        observe(
            "appsat(16,200) c880 rll32",
            C880,
            &Rll::new(32),
            5,
            Attack::Sat(SatAttack::new(SatAttackConfig::approximate(16, 200))),
        ),
        observe(
            "ddip c432 rll8",
            C432,
            &Rll::new(8),
            6,
            Attack::DoubleDip(DoubleDip::exact()),
        ),
        observe(
            "ddip c432 sarlock8+rll10",
            C432,
            &Stacked::new(Rll::new(10), SarLock::new(8)),
            7,
            Attack::DoubleDip(DoubleDip::exact()),
        ),
        observe(
            "ddip(64,2000) c432 antisat4",
            C432,
            &AntiSat::new(4),
            8,
            Attack::DoubleDip(DoubleDip::budgeted(64, 2000)),
        ),
        observe(
            "ddip(32,50) c880 sarlock6+rll8",
            C880,
            &Stacked::new(Rll::new(8), SarLock::new(6)),
            3,
            Attack::DoubleDip(DoubleDip::budgeted(32, 50)),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden {
        name: "sat c432 rll16",
        key: "0011101000001000",
        settled: true,
        oracle_queries: 8,
        effort: (4699, 9032, 428108),
        iterations: &[
            (1, 0, 1, None), (2, 102, 2, None), (3, 135, 3, None), (4, 139, 4, None),
            (5, 195, 5, None), (6, 206, 6, None), (7, 235, 7, None), (8, 241, 8, None),
        ],
    },
    Golden {
        name: "sat c432 sarlock6+rll8",
        key: "01101110100111",
        settled: true,
        oracle_queries: 68,
        effort: (1346, 7112, 345342),
        iterations: &[
            (1, 0, 1, None), (2, 109, 2, None), (3, 169, 3, None), (4, 170, 4, None),
            (5, 172, 5, None), (6, 178, 6, None), (7, 178, 7, None), (8, 179, 8, None),
            (9, 185, 9, None), (10, 202, 10, None), (11, 232, 11, None), (12, 234, 12, None),
            (13, 234, 13, None), (14, 235, 14, None), (15, 235, 15, None), (16, 236, 16, None),
            (17, 238, 17, None), (18, 238, 18, None), (19, 239, 19, None), (20, 239, 20, None),
            (21, 240, 21, None), (22, 240, 22, None), (23, 241, 23, None), (24, 241, 24, None),
            (25, 242, 25, None), (26, 242, 26, None), (27, 243, 27, None), (28, 244, 28, None),
            (29, 244, 29, None), (30, 247, 30, None), (31, 248, 31, None), (32, 249, 32, None),
            (33, 250, 33, None), (34, 250, 34, None), (35, 251, 35, None), (36, 251, 36, None),
            (37, 252, 37, None), (38, 253, 38, None), (39, 253, 39, None), (40, 254, 40, None),
            (41, 254, 41, None), (42, 381, 42, None), (43, 402, 43, None), (44, 403, 44, None),
            (45, 403, 45, None), (46, 404, 46, None), (47, 406, 47, None), (48, 520, 48, None),
            (49, 520, 49, None), (50, 521, 50, None), (51, 523, 51, None), (52, 523, 52, None),
            (53, 524, 53, None), (54, 529, 54, None), (55, 543, 55, None), (56, 544, 56, None),
            (57, 584, 57, None), (58, 640, 58, None), (59, 662, 59, None), (60, 662, 60, None),
            (61, 665, 61, None), (62, 666, 62, None), (63, 673, 63, None), (64, 761, 64, None),
            (65, 778, 65, None), (66, 779, 66, None), (67, 780, 67, None), (68, 1095, 68, None),
        ],
    },
    Golden {
        name: "sat c432 antisat4",
        key: "10101010",
        settled: true,
        oracle_queries: 16,
        effort: (856, 2803, 82071),
        iterations: &[
            (1, 0, 1, None), (2, 181, 2, None), (3, 182, 3, None), (4, 183, 4, None),
            (5, 184, 5, None), (6, 185, 6, None), (7, 186, 7, None), (8, 189, 8, None),
            (9, 269, 9, None), (10, 270, 10, None), (11, 275, 11, None), (12, 301, 12, None),
            (13, 306, 13, None), (14, 309, 14, None), (15, 562, 15, None), (16, 563, 16, None),
        ],
    },
    Golden {
        name: "appsat(3,50) c432 rll12",
        key: "110101111111",
        settled: false,
        oracle_queries: 193,
        effort: (122, 619, 12165),
        iterations: &[
            (1, 0, 1, None), (9, 58, 65, Some(8)), (17, 115, 129, Some(8)), (17, 122, 193, Some(0)),
        ],
    },
    Golden {
        name: "appsat(16,200) c880 rll32",
        key: "01010101110101100100000000100000",
        settled: false,
        oracle_queries: 72,
        effort: (688, 4025, 68374),
        iterations: &[
            (1, 0, 1, None), (2, 83, 2, None), (3, 101, 3, None), (4, 206, 4, None),
            (5, 221, 5, None), (6, 222, 6, None), (7, 338, 7, None), (8, 485, 8, None),
            (8, 688, 72, Some(0)),
        ],
    },
    Golden {
        name: "ddip c432 rll8",
        key: "11001011",
        settled: true,
        oracle_queries: 2,
        effort: (1444, 2753, 170279),
        iterations: &[
            (1, 2, 1, None), (2, 166, 2, None),
        ],
    },
    Golden {
        name: "ddip c432 sarlock8+rll10",
        key: "010101001000000100",
        settled: true,
        oracle_queries: 60,
        effort: (2659, 9417, 930304),
        iterations: &[
            (1, 2, 1, None), (2, 134, 2, None), (3, 171, 3, None), (4, 172, 4, None),
            (5, 172, 5, None), (6, 173, 6, None), (7, 173, 7, None), (8, 174, 8, None),
            (9, 174, 9, None), (10, 175, 10, None), (11, 175, 11, None), (12, 224, 12, None),
            (13, 224, 13, None), (14, 225, 14, None), (15, 225, 15, None), (16, 226, 16, None),
            (17, 226, 17, None), (18, 227, 18, None), (19, 227, 19, None), (20, 228, 20, None),
            (21, 229, 21, None), (22, 229, 22, None), (23, 230, 23, None), (24, 230, 24, None),
            (25, 231, 25, None), (26, 231, 26, None), (27, 232, 27, None), (28, 232, 28, None),
            (29, 235, 29, None), (30, 236, 30, None), (31, 236, 31, None), (32, 237, 32, None),
            (33, 237, 33, None), (34, 246, 34, None), (35, 247, 35, None), (36, 247, 36, None),
            (37, 248, 37, None), (38, 249, 38, None), (39, 250, 39, None), (40, 250, 40, None),
            (41, 254, 41, None), (42, 254, 42, None), (43, 255, 43, None), (44, 255, 44, None),
            (45, 256, 45, None), (46, 256, 46, None), (47, 257, 47, None), (48, 257, 48, None),
            (49, 258, 49, None), (50, 258, 50, None), (51, 259, 51, None), (52, 259, 52, None),
            (53, 260, 53, None), (54, 260, 54, None), (55, 261, 55, None), (56, 261, 56, None),
            (57, 262, 57, None), (58, 263, 58, None), (59, 263, 59, None), (60, 312, 60, None),
        ],
    },
    Golden {
        name: "ddip(64,2000) c432 antisat4",
        key: "11001100",
        settled: false,
        oracle_queries: 16,
        effort: (3031, 7877, 488574),
        iterations: &[
            (1, 1, 1, None), (2, 235, 2, None), (3, 240, 3, None), (4, 346, 4, None),
            (5, 357, 5, None), (6, 359, 6, None), (7, 361, 7, None), (8, 361, 8, None),
            (9, 362, 9, None), (10, 553, 10, None), (11, 556, 11, None), (12, 564, 12, None),
            (13, 567, 13, None), (14, 596, 14, None), (15, 753, 15, None), (16, 819, 16, None),
        ],
    },
    Golden {
        name: "ddip(32,50) c880 sarlock6+rll8",
        key: "11111000011011",
        settled: false,
        oracle_queries: 13,
        effort: (155, 2479, 71731),
        iterations: &[
            (1, 1, 1, None), (2, 6, 2, None), (3, 45, 3, None), (4, 45, 4, None),
            (5, 46, 5, None), (6, 46, 6, None), (7, 48, 7, None), (8, 48, 8, None),
            (9, 49, 9, None), (10, 49, 10, None), (11, 51, 11, None), (12, 52, 12, None),
            (13, 98, 13, None),
        ],
    },
];

#[test]
fn dip_loops_match_the_golden_trajectories() {
    // The golden values are the width-1 serial solver's; a racing
    // portfolio would move every effort counter.
    std::env::set_var("ALMOST_SOLVERS", "1");
    let observed = observe_all();
    let expected: Vec<Observed> = GOLDEN.iter().map(Observed::from_golden).collect();
    if observed != expected {
        let table: String = observed.iter().map(Observed::to_source).collect();
        let diverged: Vec<&str> = observed
            .iter()
            .zip(expected.iter().map(Some).chain(std::iter::repeat(None)))
            .filter(|(o, e)| Some(*o) != *e)
            .map(|(o, _)| o.name)
            .collect();
        panic!("DIP trajectories diverged from the golden on {diverged:?}; observed:\n{table}");
    }
}
