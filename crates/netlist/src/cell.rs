//! A NanGate-45-flavoured standard-cell library.
//!
//! Sixteen combinational cells with area (µm²), intrinsic delay (ns),
//! per-fanout load delay, input capacitance (normalised fF) and leakage
//! (nW) in the ballpark of the open NanGate 45 nm PDK. The absolute values
//! matter less than the *relative* costs — the paper's Table III reports
//! percentage overheads against a baseline mapped with the same library.

use almost_aig::npn::canonize;
use almost_aig::Tt;
use std::collections::HashMap;

/// One combinational standard cell.
#[derive(Clone, Debug)]
pub struct Cell {
    name: String,
    function: Tt,
    area: f64,
    delay: f64,
    load_coeff: f64,
    input_cap: f64,
    leakage: f64,
}

impl Cell {
    /// Creates a cell; `function` defines the number of input pins.
    pub fn new(
        name: impl Into<String>,
        function: Tt,
        area: f64,
        delay: f64,
        input_cap: f64,
        leakage: f64,
    ) -> Self {
        Cell {
            name: name.into(),
            function,
            area,
            delay,
            load_coeff: 0.003,
            input_cap,
            leakage,
        }
    }

    /// Cell name (e.g. `NAND2_X1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's Boolean function over its input pins.
    pub fn function(&self) -> &Tt {
        &self.function
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.function.nvars()
    }

    /// Cell area in µm².
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Intrinsic pin-to-pin delay in ns.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Additional delay per fanout (ns).
    pub fn load_coeff(&self) -> f64 {
        self.load_coeff
    }

    /// Input pin capacitance (normalised).
    pub fn input_cap(&self) -> f64 {
        self.input_cap
    }

    /// Leakage power (nW).
    pub fn leakage(&self) -> f64 {
        self.leakage
    }
}

/// A pre-bound match of a library cell onto a cut function: applying
/// `transform` to the *cut* function yields the library canon; combined
/// with the cell's own canonising transform it pins down the input
/// binding (see [`CellLibrary::matches_for`]).
#[derive(Clone, Debug)]
pub struct CellMatch {
    /// Index of the cell in the library.
    pub cell: usize,
    /// Permutation: cell pin `p` is driven by cut leaf `pin_to_leaf[p]`.
    pub pin_to_leaf: Vec<usize>,
    /// Mask of cut leaves that must be complemented (through an inverter).
    pub leaf_flips: u32,
    /// Whether the cell output must be inverted.
    pub output_flip: bool,
}

/// An immutable cell library with an NPN-class match index.
#[derive(Clone, Debug)]
pub struct CellLibrary {
    cells: Vec<Cell>,
    /// NPN canon `(nvars, table word)` → cells in that class.
    class_index: HashMap<(usize, u64), Vec<usize>>,
    inv_cell: usize,
    buf_cell: usize,
    tie0_cell: usize,
    tie1_cell: usize,
}

impl CellLibrary {
    /// Builds a library from cells plus the four required service cells
    /// (INV, BUF, TIE0, TIE1), which must be present among `cells` with
    /// those exact names.
    ///
    /// # Panics
    ///
    /// Panics if a service cell is missing or a cell has more than 4
    /// inputs.
    pub fn from_cells(cells: Vec<Cell>) -> Self {
        let find = |name: &str| {
            cells
                .iter()
                .position(|c| c.name == name)
                .unwrap_or_else(|| panic!("library must contain a {name} cell"))
        };
        let inv_cell = find("INV");
        let buf_cell = find("BUF");
        let tie0_cell = find("TIE0");
        let tie1_cell = find("TIE1");
        let mut class_index: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
        for (i, cell) in cells.iter().enumerate() {
            assert!(cell.num_inputs() <= 4, "cells are limited to 4 inputs");
            if cell.num_inputs() == 0 {
                continue;
            }
            let (canon, _) = canonize(&cell.function);
            class_index
                .entry((cell.num_inputs(), canon.as_u64()))
                .or_default()
                .push(i);
        }
        CellLibrary {
            cells,
            class_index,
            inv_cell,
            buf_cell,
            tie0_cell,
            tie1_cell,
        }
    }

    /// The NanGate-45-flavoured default library.
    #[allow(clippy::vec_init_then_push)] // one push per cell reads as a datasheet
    pub fn nangate45() -> Self {
        let v = |i: usize, n: usize| Tt::var(i, n);
        let mut cells = Vec::new();
        // Service cells.
        cells.push(Cell::new("INV", v(0, 1).not(), 0.532, 0.008, 1.0, 1.7));
        cells.push(Cell::new("BUF", v(0, 1), 0.798, 0.012, 1.0, 1.4));
        cells.push(Cell::new("TIE0", Tt::zero(0), 0.266, 0.0, 0.0, 0.4));
        cells.push(Cell::new("TIE1", Tt::one(0), 0.266, 0.0, 0.0, 0.4));
        // Two-input cells.
        let a2 = v(0, 2);
        let b2 = v(1, 2);
        cells.push(Cell::new(
            "NAND2",
            a2.and(&b2).not(),
            0.798,
            0.010,
            1.0,
            2.0,
        ));
        cells.push(Cell::new("NOR2", a2.or(&b2).not(), 0.798, 0.012, 1.2, 2.0));
        cells.push(Cell::new("AND2", a2.and(&b2), 1.064, 0.015, 1.0, 1.9));
        cells.push(Cell::new("OR2", a2.or(&b2), 1.064, 0.016, 1.0, 1.9));
        cells.push(Cell::new("XOR2", a2.xor(&b2), 1.596, 0.024, 2.0, 2.4));
        cells.push(Cell::new(
            "XNOR2",
            a2.xor(&b2).not(),
            1.596,
            0.024,
            2.0,
            2.4,
        ));
        // Three-input cells.
        let a3 = v(0, 3);
        let b3 = v(1, 3);
        let c3 = v(2, 3);
        cells.push(Cell::new(
            "NAND3",
            a3.and(&b3).and(&c3).not(),
            1.064,
            0.014,
            1.0,
            2.2,
        ));
        cells.push(Cell::new(
            "NOR3",
            a3.or(&b3).or(&c3).not(),
            1.064,
            0.018,
            1.2,
            2.2,
        ));
        cells.push(Cell::new(
            "AOI21",
            a3.and(&b3).or(&c3).not(),
            1.064,
            0.014,
            1.1,
            2.1,
        ));
        cells.push(Cell::new(
            "OAI21",
            a3.or(&b3).and(&c3).not(),
            1.064,
            0.014,
            1.1,
            2.1,
        ));
        cells.push(Cell::new(
            "MUX2",
            // s ? b : a with pins (a, b, s).
            {
                let s = c3;
                s.and(&b3).or(&s.not().and(&a3))
            },
            1.862,
            0.020,
            1.3,
            2.6,
        ));
        // Four-input cells.
        let a4 = v(0, 4);
        let b4 = v(1, 4);
        let c4 = v(2, 4);
        let d4 = v(3, 4);
        cells.push(Cell::new(
            "NAND4",
            a4.and(&b4).and(&c4).and(&d4).not(),
            1.330,
            0.018,
            1.0,
            2.5,
        ));
        cells.push(Cell::new(
            "AOI22",
            a4.and(&b4).or(&c4.and(&d4)).not(),
            1.330,
            0.016,
            1.1,
            2.4,
        ));
        cells.push(Cell::new(
            "OAI22",
            a4.or(&b4).and(&c4.or(&d4)).not(),
            1.330,
            0.016,
            1.1,
            2.4,
        ));
        Self::from_cells(cells)
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell at `index`.
    pub fn cell(&self, index: usize) -> &Cell {
        &self.cells[index]
    }

    /// Index of the inverter cell.
    pub fn inverter(&self) -> usize {
        self.inv_cell
    }

    /// Index of the buffer cell.
    pub fn buffer(&self) -> usize {
        self.buf_cell
    }

    /// Index of the constant-0 tie cell.
    pub fn tie0(&self) -> usize {
        self.tie0_cell
    }

    /// Index of the constant-1 tie cell.
    pub fn tie1(&self) -> usize {
        self.tie1_cell
    }

    /// Finds all concrete bindings of library cells realising `function`
    /// (a cut function with full support).
    ///
    /// Each returned [`CellMatch`] satisfies: cell output (optionally
    /// inverted per `output_flip`) equals `function` when cell pin `p` is
    /// driven by leaf `pin_to_leaf[p]`, complemented iff bit
    /// `pin_to_leaf[p]` of `leaf_flips` is set.
    pub fn matches_for(&self, function: &Tt) -> Vec<CellMatch> {
        let n = function.nvars();
        if n == 0 || n > 4 {
            return Vec::new();
        }
        let (canon, _) = canonize(function);
        let Some(candidates) = self.class_index.get(&(n, canon.as_u64())) else {
            return Vec::new();
        };
        let perms = permutations(n);
        let mut matches = Vec::new();
        for &ci in candidates {
            let cell_f = &self.cells[ci].function;
            // Brute-force bind: pins permuted, leaves flipped, output
            // phase. Flipping pin `p` flips the leaf `perm[p]` it reads, so
            // each permutation is bound once and the flips are applied to
            // the bound function.
            for perm in &perms {
                let unflipped = bind(cell_f, perm);
                for flips in 0..(1u32 << n) {
                    let leaf_flips = flips_as_leaf_mask(perm, flips);
                    let bound = (0..n)
                        .filter(|&leaf| leaf_flips >> leaf & 1 != 0)
                        .fold(unflipped, |f, leaf| f.flip_var(leaf));
                    let output_flip = if bound == *function {
                        false
                    } else if bound.not() == *function {
                        true
                    } else {
                        continue;
                    };
                    matches.push(CellMatch {
                        cell: ci,
                        pin_to_leaf: perm.clone(),
                        leaf_flips,
                        output_flip,
                    });
                }
            }
        }
        matches
    }
}

/// Computes the function of a cell whose pin `p` is driven by variable
/// `perm[p]`.
fn bind(cell_f: &Tt, perm: &[usize]) -> Tt {
    let n = cell_f.nvars();
    let mut out = Tt::zero(n);
    for idx in 0..out.num_bits() {
        // Determine each pin's value from the leaf assignment `idx`.
        let pin_idx = perm
            .iter()
            .enumerate()
            .fold(0usize, |acc, (p, &leaf)| acc | (idx >> leaf & 1) << p);
        out.set_bit(idx, cell_f.get_bit(pin_idx));
    }
    out
}

/// Converts per-pin flips into a per-leaf mask.
fn flips_as_leaf_mask(perm: &[usize], pin_flips: u32) -> u32 {
    let mut mask = 0u32;
    for (p, &leaf) in perm.iter().enumerate() {
        if pin_flips >> p & 1 != 0 {
            mask |= 1 << leaf;
        }
    }
    mask
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(prefix: &mut Vec<usize>, rem: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rem.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rem.len() {
            let v = rem.remove(i);
            prefix.push(v);
            rec(prefix, rem, out);
            prefix.pop();
            rem.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_has_service_cells() {
        let lib = CellLibrary::nangate45();
        assert_eq!(lib.cell(lib.inverter()).name(), "INV");
        assert_eq!(lib.cell(lib.buffer()).name(), "BUF");
        assert_eq!(lib.cell(lib.tie0()).name(), "TIE0");
        assert_eq!(lib.cell(lib.tie1()).name(), "TIE1");
    }

    #[test]
    fn and2_matches_directly() {
        let lib = CellLibrary::nangate45();
        let f = Tt::var(0, 2).and(&Tt::var(1, 2));
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty());
        // AND2 must be among them without any flips.
        assert!(matches
            .iter()
            .any(|m| { lib.cell(m.cell).name() == "AND2" && m.leaf_flips == 0 && !m.output_flip }));
        // NAND2 with an output flip also matches.
        assert!(matches
            .iter()
            .any(|m| lib.cell(m.cell).name() == "NAND2" && m.output_flip));
    }

    #[test]
    fn bindings_are_functionally_correct() {
        let lib = CellLibrary::nangate45();
        // f(l0,l1,l2) = !(l2 & (l0 | l1)) -- an OAI21 shape with permuted
        // leaves.
        let l0 = Tt::var(0, 3);
        let l1 = Tt::var(1, 3);
        let l2 = Tt::var(2, 3);
        let f = l2.and(&l0.or(&l1)).not();
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty(), "OAI21 shape must match");
        for m in &matches {
            let cell_f = lib.cell(m.cell).function();
            // Recompute the bound function and compare.
            let n = f.nvars();
            let mut ok = true;
            for idx in 0..f.num_bits() {
                let mut pin_idx = 0usize;
                for (p, &leaf) in m.pin_to_leaf.iter().enumerate() {
                    let mut val = (idx >> leaf) & 1 != 0;
                    if m.leaf_flips >> leaf & 1 != 0 {
                        val = !val;
                    }
                    if val {
                        pin_idx |= 1 << p;
                    }
                }
                let got = cell_f.get_bit(pin_idx) ^ m.output_flip;
                if got != f.get_bit(idx) {
                    ok = false;
                    break;
                }
            }
            assert!(ok, "binding of {} is wrong", lib.cell(m.cell).name());
            let _ = n;
        }
    }

    #[test]
    fn xor_matches_xor_cells_only_in_class() {
        let lib = CellLibrary::nangate45();
        let f = Tt::var(0, 2).xor(&Tt::var(1, 2));
        let matches = lib.matches_for(&f);
        assert!(!matches.is_empty());
        for m in &matches {
            let name = lib.cell(m.cell).name();
            assert!(name == "XOR2" || name == "XNOR2", "unexpected cell {name}");
        }
    }

    #[test]
    fn no_match_for_unsupported_function() {
        let lib = CellLibrary::nangate45();
        // 4-input parity is not in the library.
        let mut f = Tt::zero(4);
        for v in 0..4 {
            f = f.xor(&Tt::var(v, 4));
        }
        assert!(lib.matches_for(&f).is_empty());
    }
}
