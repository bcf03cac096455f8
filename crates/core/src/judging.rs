//! Zero counting and the AHL judging blocks.

use std::fmt;

/// Counts the zero bits in the low `width` bits of `value`.
///
/// This is the quantity both judging blocks inspect: the paper's key
/// observation (Fig. 6) is that a bypassing multiplier's path delay is
/// strongly tied to the number of zeros in its select operand.
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 64.
///
/// # Example
///
/// ```
/// use agemul::count_zeros;
///
/// assert_eq!(count_zeros(0b1010, 4), 2);
/// assert_eq!(count_zeros(0, 16), 16);
/// assert_eq!(count_zeros(u64::MAX, 64), 0);
/// ```
#[inline]
pub fn count_zeros(value: u64, width: usize) -> u32 {
    assert!(
        (1..=64).contains(&width),
        "width must be in 1..=64, got {width}"
    );
    let masked = if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    };
    width as u32 - masked.count_ones()
}

/// One AHL judging block: asserts "one cycle" when the judged operand has
/// at least `skip` zero bits.
///
/// The paper's *Skip-n* scenarios map directly: `JudgingBlock::new(7)` is
/// Skip-7. The AHL holds two of these — `skip` and `skip + 1` — and the
/// aging indicator selects between them.
///
/// # Example
///
/// ```
/// use agemul::JudgingBlock;
///
/// let skip7 = JudgingBlock::new(7);
/// assert!(skip7.is_one_cycle(7));
/// assert!(skip7.is_one_cycle(12));
/// assert!(!skip7.is_one_cycle(6));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JudgingBlock {
    skip: u32,
}

impl JudgingBlock {
    /// Creates a judging block with the given skip threshold.
    pub fn new(skip: u32) -> Self {
        JudgingBlock { skip }
    }

    /// The skip threshold.
    #[inline]
    pub fn skip(&self) -> u32 {
        self.skip
    }

    /// Whether an operand with `zeros` zero bits is predicted one-cycle.
    #[inline]
    pub fn is_one_cycle(&self, zeros: u32) -> bool {
        zeros >= self.skip
    }

    /// The stricter companion block the AHL switches to after significant
    /// aging (`skip + 1` zeros required; saturating, so `u32::MAX` — no
    /// operation is ever one-cycle — stays that strict).
    pub fn stricter(&self) -> JudgingBlock {
        JudgingBlock::new(self.skip.saturating_add(1))
    }
}

impl fmt::Display for JudgingBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Skip-{}", self.skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stricter_block_saturates_at_the_largest_skip() {
        assert_eq!(JudgingBlock::new(7).stricter().skip(), 8);
        let never = JudgingBlock::new(u32::MAX);
        assert_eq!(never.stricter(), never);
        assert!(!never.stricter().is_one_cycle(64));
    }

    #[test]
    fn zero_counting_edges() {
        assert_eq!(count_zeros(0, 1), 1);
        assert_eq!(count_zeros(1, 1), 0);
        assert_eq!(count_zeros(0xFFFF, 16), 0);
        assert_eq!(count_zeros(0xFF00, 16), 8);
        // Bits above the width are ignored.
        assert_eq!(count_zeros(0xFFFF_0000, 16), 16);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_counting_rejects_width_zero() {
        let _ = count_zeros(0, 0);
    }

    #[test]
    fn judging_threshold_is_inclusive() {
        let b = JudgingBlock::new(8);
        assert!(!b.is_one_cycle(7));
        assert!(b.is_one_cycle(8));
        assert!(b.is_one_cycle(16));
    }

    #[test]
    fn stricter_requires_one_more_zero() {
        let b = JudgingBlock::new(7);
        let s = b.stricter();
        assert_eq!(s.skip(), 8);
        assert!(b.is_one_cycle(7));
        assert!(!s.is_one_cycle(7));
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(JudgingBlock::new(15).to_string(), "Skip-15");
    }
}
