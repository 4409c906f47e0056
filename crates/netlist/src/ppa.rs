//! Power/performance/area analysis of mapped netlists.
//!
//! - **Area**: sum of cell areas.
//! - **Delay**: static timing over the gate DAG; each gate contributes its
//!   intrinsic delay plus a load term proportional to its fanout count.
//! - **Power**: dynamic power from simulation-derived switching activity
//!   (activity × load capacitance per net) plus cell leakage.
//!
//! The absolute units are arbitrary-but-consistent; the paper's Table III
//! reports *relative* overheads, which is what these numbers feed.

use crate::cell::CellLibrary;
use crate::netlist::MappedNetlist;
use almost_aig::sim::random_input_words;
use almost_aig::{Aig, CompiledAig, Var};

/// A PPA report for one mapped netlist.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PpaReport {
    /// Total cell area (µm²).
    pub area: f64,
    /// Critical-path delay (ns).
    pub delay: f64,
    /// Total power (arbitrary units: dynamic + leakage).
    pub power: f64,
}

impl PpaReport {
    /// Percentage overheads of `self` relative to `baseline`
    /// (`(self − base) / base × 100`), in (area, delay, power) order.
    pub fn overhead_vs(&self, baseline: &PpaReport) -> (f64, f64, f64) {
        let pct = |new: f64, base: f64| {
            if base.abs() < 1e-12 {
                0.0
            } else {
                (new - base) / base * 100.0
            }
        };
        (
            pct(self.area, baseline.area),
            pct(self.delay, baseline.delay),
            pct(self.power, baseline.power),
        )
    }
}

/// Analyses a mapped netlist.
///
/// `aig` must be the netlist's source AIG (used to derive per-net switching
/// activity via `sim_words * 64` random patterns with the given seed).
pub fn analyze(
    netlist: &MappedNetlist,
    aig: &Aig,
    library: &CellLibrary,
    sim_words: usize,
    seed: u64,
) -> PpaReport {
    let area: f64 = netlist
        .gates()
        .iter()
        .map(|g| library.cell(g.cell).area())
        .sum();

    // Static timing.
    let fanouts = netlist.net_fanouts();
    let mut arrival = vec![0.0f64; netlist.num_nets()];
    let mut delay = 0.0f64;
    for gate in netlist.gates() {
        let cell = library.cell(gate.cell);
        let input_arr = gate
            .fanins
            .iter()
            .map(|&f| arrival[f])
            .fold(0.0f64, f64::max);
        let t = input_arr + cell.delay() + cell.load_coeff() * fanouts[gate.output] as f64;
        arrival[gate.output] = t;
        delay = delay.max(t);
    }

    // Switching activity `2p(1-p)` from one compiled sweep over random
    // patterns; nets without an AIG origin (tie cells) never toggle.
    // Every mapped net's node has a register: the cover is walked back
    // from the outputs, so it stays inside the output-reachable cone the
    // compiler keeps.
    let num_words = sim_words.max(1);
    let input_words = random_input_words(aig.num_inputs(), num_words, seed);
    let code = CompiledAig::compile(aig);
    let ones = code.register_popcounts(&input_words, num_words);
    let switching_activity = |var: Var| {
        let r = code
            .register_of(var)
            .expect("mapped nets lie in the output-reachable cone");
        let p = ones[r as usize] as f64 / (num_words * 64) as f64;
        2.0 * p * (1.0 - p)
    };
    let mut dynamic = 0.0f64;
    let mut leakage = 0.0f64;
    for gate in netlist.gates() {
        let cell = library.cell(gate.cell);
        leakage += cell.leakage();
        let activity = netlist
            .net_origin(gate.output)
            .map(|(var, _)| switching_activity(var))
            .unwrap_or(0.0);
        // Load on the output net: the input capacitance of all fanout pins
        // (approximated with the average input cap of driven cells).
        let load = fanouts[gate.output] as f64 * cell.input_cap();
        dynamic += activity * load;
    }
    // Primary-input nets also switch and drive loads.
    for &net in netlist.input_nets() {
        if let Some((var, _)) = netlist.net_origin(net) {
            dynamic += switching_activity(var) * fanouts[net] as f64;
        }
    }

    PpaReport {
        area,
        delay,
        power: dynamic + 0.01 * leakage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellLibrary;
    use crate::map::{map_aig, MapConfig};
    use almost_aig::Aig;

    fn adder_aig(bits: usize) -> Aig {
        let mut aig = Aig::new();
        let xs: Vec<_> = (0..bits).map(|_| aig.add_input()).collect();
        let ys: Vec<_> = (0..bits).map(|_| aig.add_input()).collect();
        let mut carry = almost_aig::Lit::FALSE;
        for i in 0..bits {
            let s1 = aig.xor(xs[i], ys[i]);
            let sum = aig.xor(s1, carry);
            let c1 = aig.and(xs[i], ys[i]);
            let c2 = aig.and(s1, carry);
            carry = aig.or(c1, c2);
            aig.add_output(sum);
        }
        aig.add_output(carry);
        aig
    }

    #[test]
    fn report_is_positive_and_scales() {
        let lib = CellLibrary::nangate45();
        let small = adder_aig(4);
        let large = adder_aig(16);
        let nl_s = map_aig(&small, &lib, &MapConfig::default());
        let nl_l = map_aig(&large, &lib, &MapConfig::default());
        let r_s = analyze(&nl_s, &small, &lib, 4, 1);
        let r_l = analyze(&nl_l, &large, &lib, 4, 1);
        assert!(r_s.area > 0.0 && r_s.delay > 0.0 && r_s.power > 0.0);
        assert!(r_l.area > r_s.area, "a 16-bit adder is bigger than 4-bit");
        assert!(
            r_l.delay > r_s.delay,
            "ripple carry grows the critical path"
        );
        assert!(r_l.power > r_s.power);
    }

    #[test]
    fn overhead_computation() {
        let base = PpaReport {
            area: 100.0,
            delay: 2.0,
            power: 50.0,
        };
        let new = PpaReport {
            area: 103.0,
            delay: 1.8,
            power: 55.0,
        };
        let (a, d, p) = new.overhead_vs(&base);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((d + 10.0).abs() < 1e-9);
        assert!((p - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deeper_mapping_has_larger_delay() {
        let lib = CellLibrary::nangate45();
        // A chain of XORs (deep) vs a balanced tree of the same function
        // size.
        let mut chain = Aig::new();
        let ins: Vec<_> = (0..16).map(|_| chain.add_input()).collect();
        let mut acc = ins[0];
        for &l in &ins[1..] {
            acc = chain.xor(acc, l);
        }
        chain.add_output(acc);
        let mut tree = Aig::new();
        let tins: Vec<_> = (0..16).map(|_| tree.add_input()).collect();
        let t = tree.xor_many(&tins);
        tree.add_output(t);
        let nl_chain = map_aig(&chain, &lib, &MapConfig::default());
        let nl_tree = map_aig(&tree, &lib, &MapConfig::default());
        let r_chain = analyze(&nl_chain, &chain, &lib, 2, 3);
        let r_tree = analyze(&nl_tree, &tree, &lib, 2, 3);
        assert!(
            r_chain.delay > r_tree.delay,
            "chain {} vs tree {}",
            r_chain.delay,
            r_tree.delay
        );
    }
}
