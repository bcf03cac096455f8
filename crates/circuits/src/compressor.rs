//! Generic carry-save column reduction (Wallace/Dadda-style compressor).

use agemul_netlist::{Bus, NetId, Netlist, NetlistError};

use crate::cells::{full_adder, half_adder};
use crate::cla::kogge_stone_adder;

/// A set of addend bits organized by binary weight: `columns[w]` holds all
/// bits of weight `2^w` that remain to be summed.
///
/// This is the intermediate form shared by the Wallace-tree and Booth
/// multipliers: partial-product generation fills the columns, and
/// [`reduce_to_sum`](Self::reduce_to_sum) compresses them into a single bus.
#[derive(Clone, Debug, Default)]
pub struct BitColumns {
    columns: Vec<Vec<NetId>>,
}

impl BitColumns {
    /// Creates an empty column set spanning `width` weights.
    pub fn new(width: usize) -> Self {
        BitColumns {
            columns: vec![Vec::new(); width],
        }
    }

    /// Number of weights (output width).
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Adds one bit of the given weight; bits beyond the width are
    /// discarded (modular arithmetic, as in any fixed-width multiplier).
    pub fn push(&mut self, weight: usize, bit: NetId) {
        if weight < self.columns.len() {
            self.columns[weight].push(bit);
        }
    }

    /// The tallest column height — the compressor's work metric.
    pub fn max_height(&self) -> usize {
        self.columns.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Compresses the columns with layers of 3:2 (full-adder) and 2:2
    /// (half-adder) counters until every column holds at most two bits,
    /// then merges the remaining two rows with a ripple carry chain.
    ///
    /// The number of compression layers is `O(log₁.₅ h)` for initial
    /// height `h`, giving the logarithmic array depth that distinguishes a
    /// Wallace tree from the linear-depth array multiplier.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction failures.
    pub fn reduce_to_sum(mut self, n: &mut Netlist) -> Result<Bus, NetlistError> {
        let width = self.columns.len();
        while self.max_height() > 2 {
            let mut next: Vec<Vec<NetId>> = vec![Vec::new(); width];
            for (w, col) in self.columns.iter().enumerate() {
                let mut i = 0;
                while col.len() - i >= 3 {
                    let fa = full_adder(n, col[i], col[i + 1], col[i + 2])?;
                    next[w].push(fa.sum);
                    if w + 1 < width {
                        next[w + 1].push(fa.carry);
                    }
                    i += 3;
                }
                if col.len() - i == 2 {
                    let ha = half_adder(n, col[i], col[i + 1])?;
                    next[w].push(ha.sum);
                    if w + 1 < width {
                        next[w + 1].push(ha.carry);
                    }
                } else if col.len() - i == 1 {
                    next[w].push(col[i]);
                }
            }
            self.columns = next;
        }

        // Final carry-propagate stage: a log-depth Kogge–Stone adder, so
        // the compressor's logarithmic depth is not wasted on a ripple.
        let zero = n.const_zero();
        let x: Bus = self
            .columns
            .iter()
            .map(|col| col.first().copied().unwrap_or(zero))
            .collect();
        let y: Bus = self
            .columns
            .iter()
            .map(|col| col.get(1).copied().unwrap_or(zero))
            .collect();
        let (sum, _carry_out) = kogge_stone_adder(n, &x, &y)?;
        Ok(sum)
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::Logic;
    use agemul_netlist::FuncSim;

    use super::*;

    /// Sums k input bits placed at assorted weights and checks the result
    /// against software arithmetic, exhaustively over input assignments.
    fn check_columns(placements: &[(usize, usize)], width: usize) {
        // placements: (input_index, weight)
        let input_count = placements.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
        let mut n = Netlist::new();
        let inputs: Vec<NetId> = (0..input_count)
            .map(|i| n.add_input(format!("x{i}")))
            .collect();
        let mut cols = BitColumns::new(width);
        for &(i, w) in placements {
            cols.push(w, inputs[i]);
        }
        let sum = cols.reduce_to_sum(&mut n).unwrap();
        for (i, &s) in sum.nets().iter().enumerate() {
            n.mark_output(s, format!("s{i}"));
        }
        let topo = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &topo);
        for assignment in 0u64..(1 << input_count) {
            let vec: Vec<Logic> = (0..input_count)
                .map(|i| Logic::from((assignment >> i) & 1 == 1))
                .collect();
            sim.eval(&vec).unwrap();
            let expect: u128 = placements
                .iter()
                .filter(|&&(i, _)| (assignment >> i) & 1 == 1)
                .map(|&(_, w)| 1u128 << w)
                .sum::<u128>()
                & ((1u128 << width) - 1);
            assert_eq!(
                sum.decode(sim.values()),
                Some(expect),
                "assignment {assignment:#b}"
            );
        }
    }

    #[test]
    fn single_tall_column() {
        // Seven bits of weight 0: a population count in disguise.
        let placements: Vec<(usize, usize)> = (0..7).map(|i| (i, 0)).collect();
        check_columns(&placements, 4);
    }

    #[test]
    fn mixed_weights() {
        check_columns(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 0)], 5);
    }

    #[test]
    fn truncation_is_modular() {
        // Bits at the top weight whose carries fall off the end.
        check_columns(&[(0, 2), (1, 2), (2, 2)], 3);
    }

    #[test]
    fn duplicate_bit_reuse() {
        // The same input net used at several weights (×3 multiplier).
        check_columns(&[(0, 0), (0, 1), (1, 0), (1, 1)], 4);
    }

    #[test]
    fn empty_columns_are_zero() {
        let mut n = Netlist::new();
        let cols = BitColumns::new(4);
        let sum = cols.reduce_to_sum(&mut n).unwrap();
        for (i, &s) in sum.nets().iter().enumerate() {
            n.mark_output(s, format!("s{i}"));
        }
        let topo = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &topo);
        sim.eval(&[]).unwrap();
        assert_eq!(sum.decode(sim.values()), Some(0));
    }

    #[test]
    fn compressor_depth_is_logarithmic() {
        // 32 bits in one column: layers ≈ log₁.₅(32) ≈ 9, far below 32.
        let mut n = Netlist::new();
        let inputs: Vec<NetId> = (0..32).map(|i| n.add_input(format!("x{i}"))).collect();
        let mut cols = BitColumns::new(8);
        for &i in &inputs {
            cols.push(0, i);
        }
        let sum = cols.reduce_to_sum(&mut n).unwrap();
        for (i, &s) in sum.nets().iter().enumerate() {
            n.mark_output(s, format!("s{i}"));
        }
        let topo = n.topology().unwrap();
        assert!(topo.max_level() < 40, "depth {}", topo.max_level());
    }
}
