//! Property tests for both shapes of the key-conditioned miter.
//!
//! Each case builds a small random locked AIG — at most 4 data inputs and
//! 4 key bits, with XOR/XNOR key gates on random internal signals — and
//! drives a DIP loop against an exhaustive oracle. With at most 16 keys and
//! 16 input patterns, the set of keys consistent with the I/O constraints
//! added so far can be tracked exactly, which checks the defining
//! guarantees of the two miters:
//!
//! 1. every [`KeyMiter::new`] DIP rules out at least one key that was still
//!    consistent with the earlier constraints, and the settled key matches
//!    the oracle on every input;
//! 2. every [`KeyMiter::two_dip`] DIP rules out at least two such keys —
//!    Double DIP's guarantee — and the settled key is consistent with
//!    every constraint.

use almost_aig::{Aig, Lit};
use almost_sat::miter::{DipSearch, KeyMiter};
use proptest::prelude::*;

/// Deterministic xorshift stream.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state = state.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random locked circuit and its correct key.
struct Locked {
    aig: Aig,
    key_start: usize,
    correct_key: Vec<bool>,
}

impl Locked {
    /// `data` data inputs, `key_len` key inputs spliced in at a random
    /// position, and random AND gates; each key bit XORs (correct bit 0)
    /// or XNORs (correct bit 1) a random internal signal, whose locked
    /// version then feeds the gates built after it.
    fn random(seed: u64, data: usize, key_len: usize) -> Self {
        let mut next = stream(seed);
        let mut aig = Aig::new();
        let key_start = (next() % (data as u64 + 1)) as usize;
        let mut pool: Vec<Lit> = Vec::new();
        let mut keys: Vec<Lit> = Vec::new();
        for i in 0..data + key_len {
            if (key_start..key_start + key_len).contains(&i) {
                keys.push(aig.add_named_input(format!("keyinput{}", keys.len())));
            } else {
                pool.push(aig.add_input());
            }
        }
        let gates = key_len + 2 + (next() % 6) as usize;
        // Distinct gate indices that receive a key gate.
        let mut sites: Vec<usize> = (0..gates).collect();
        for i in (1..gates).rev() {
            sites.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        sites.truncate(key_len);
        let mut correct_key = vec![false; key_len];
        for g in 0..gates {
            let pick = |next: &mut dyn FnMut() -> u64| {
                let lit = pool[(next() % pool.len() as u64) as usize];
                if next() & 1 == 0 {
                    lit
                } else {
                    !lit
                }
            };
            let (a, b) = (pick(&mut next), pick(&mut next));
            let mut signal = aig.and(a, b);
            if let Some(bit) = sites.iter().position(|&s| s == g) {
                correct_key[bit] = next() & 1 == 0;
                signal = if correct_key[bit] {
                    aig.xnor(signal, keys[bit])
                } else {
                    aig.xor(signal, keys[bit])
                };
            }
            pool.push(signal);
        }
        // The last two signals drive the outputs, so every locked signal
        // has a chance to reach one.
        for &out in pool.iter().rev().take(2) {
            aig.add_output(out);
        }
        Locked {
            aig,
            key_start,
            correct_key,
        }
    }

    fn data_inputs(&self) -> usize {
        self.aig.num_inputs() - self.correct_key.len()
    }

    /// The locked circuit's outputs on data pattern `x` under `key`.
    fn eval(&self, x: &[bool], key: &[bool]) -> Vec<bool> {
        let mut full = x[..self.key_start].to_vec();
        full.extend_from_slice(key);
        full.extend_from_slice(&x[self.key_start..]);
        self.aig.eval(&full)
    }

    /// The activated chip.
    fn oracle(&self, x: &[bool]) -> Vec<bool> {
        self.eval(x, &self.correct_key)
    }
}

/// All bit vectors of width `n`.
fn patterns(n: usize) -> Vec<Vec<bool>> {
    (0..1u32 << n)
        .map(|v| (0..n).map(|i| (v >> i) & 1 == 1).collect())
        .collect()
}

/// Drives a DIP loop on `miter` with the exact oracle and checks that each
/// DIP eliminates at least `min_kill` keys still consistent with the earlier
/// constraints. Returns the settled key and the keys consistent at the end.
fn drive(
    locked: &Locked,
    mut miter: KeyMiter,
    min_kill: usize,
) -> Result<(Vec<bool>, Vec<Vec<bool>>), TestCaseError> {
    let mut consistent = patterns(locked.correct_key.len());
    loop {
        match miter.find_dip(None) {
            DipSearch::Found(x) => {
                let y = locked.oracle(&x);
                let before = consistent.len();
                consistent.retain(|k| locked.eval(&x, k) == y);
                prop_assert!(
                    before - consistent.len() >= min_kill,
                    "DIP {:?} ruled out {} of {} consistent keys, expected at least {}",
                    x,
                    before - consistent.len(),
                    before,
                    min_kill
                );
                miter.constrain_io(&x, &y);
            }
            DipSearch::Settled => break,
            DipSearch::OutOfBudget => prop_assert!(false, "no budget was set"),
        }
    }
    let key = miter.settle_key();
    prop_assert!(key.is_some(), "an exact oracle is never contradictory");
    Ok((key.unwrap_or_default(), consistent))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_dip_rules_out_a_key_and_the_settled_key_unlocks(
        seed in 0u64..1_000_000,
        data in 1usize..5,
        key_len in 1usize..5,
    ) {
        let locked = Locked::random(seed, data, key_len);
        let miter = KeyMiter::new(&locked.aig, locked.key_start, key_len);
        let (key, _) = drive(&locked, miter, 1)?;
        for x in patterns(locked.data_inputs()) {
            prop_assert_eq!(locked.eval(&x, &key), locked.oracle(&x), "input {:?}", x);
        }
    }

    #[test]
    fn every_two_dip_rules_out_two_keys(
        seed in 0u64..1_000_000,
        data in 1usize..5,
        key_len in 1usize..5,
        num_probes in 0usize..3,
    ) {
        let locked = Locked::random(seed, data, key_len);
        let mut next = stream(seed ^ 0x2D1F);
        let probes: Vec<Vec<bool>> = (0..num_probes)
            .map(|_| (0..data).map(|_| next() & 1 == 0).collect())
            .collect();
        let miter = KeyMiter::two_dip(&locked.aig, locked.key_start, key_len, &probes);
        let (key, consistent) = drive(&locked, miter, 2)?;
        prop_assert!(
            consistent.contains(&key),
            "settled key {:?} violates an I/O constraint",
            key
        );
    }
}
