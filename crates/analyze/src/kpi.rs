//! Row-level classification KPIs that a [`CampaignReport`] does not
//! carry: the hardened model's corruption rate, label top-1 accuracy
//! and the bit-flip direction split. Each runs over in-memory campaign
//! rows and classifies through `alfi-core`'s rule.
//!
//! [`CampaignReport`]: crate::CampaignReport

use crate::report::{RateBlock, DEFAULT_CONFIDENCE};
use alfi_core::campaign::{classify_row, classify_top1, ClassificationRow, CsvVariant};
use alfi_core::stats::{z_for_confidence, Rate};
use alfi_tensor::bits::FlipDirection;
use alfi_trace::{EffectClass, OutcomeTallies};

/// The share of `true` among `hits`.
fn rate_of(hits: impl Iterator<Item = bool>) -> Rate {
    let (hits, total) = hits.fold((0, 0), |(h, t), hit| (h + usize::from(hit), t + 1));
    Rate::from_counts(hits, total)
}

/// Share of hardened outputs that are not masked against the
/// fault-free top-1: a changed top-1 or a non-finite top-1 probability.
/// This is the protected curve of Fig. 2a. Rows without a hardened
/// output are skipped.
pub fn hardened_corruption_rate(rows: &[ClassificationRow]) -> Rate {
    rate_of(rows.iter().filter_map(|row| {
        let orig = row.orig_top5.first().map(|&(c, _)| c as u64);
        let resil = row.resil_top5.as_ref()?.first().map(|&(c, p)| (c as u64, p));
        Some(classify_top1(orig, resil, 0) != EffectClass::Masked)
    }))
}

/// Top-1 accuracy of one model instance against the dataset labels,
/// over the rows that have its output.
pub fn top1_accuracy(rows: &[ClassificationRow], variant: CsvVariant) -> Rate {
    rate_of(
        rows.iter()
            .filter_map(|row| Some(row.topk(variant)?.first().map(|t| t.0) == Some(row.label))),
    )
}

/// Outcomes of the faults that flipped a bit (bit flips and quantized
/// steps), split by flip direction, which the trace records for exactly
/// this analysis. Like the report's breakdowns, a row counts once per
/// applied fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipDirections {
    /// Faults that flipped a 0 bit to 1.
    pub zero_to_one: RateBlock,
    /// Faults that flipped a 1 bit to 0.
    pub one_to_zero: RateBlock,
}

/// Splits the rows' outcomes by flip direction; faults without one
/// (stuck-at, value replacement) are left out.
pub fn flip_directions(rows: &[ClassificationRow]) -> FlipDirections {
    let (mut up, mut down) = (OutcomeTallies::default(), OutcomeTallies::default());
    for row in rows {
        let outcome = classify_row(row);
        for fault in &row.faults {
            match fault.direction {
                Some(FlipDirection::ZeroToOne) => up.add(outcome),
                Some(FlipDirection::OneToZero) => down.add(outcome),
                None => {}
            }
        }
    }
    let z = z_for_confidence(DEFAULT_CONFIDENCE);
    FlipDirections { zero_to_one: RateBlock::of(&up, z), one_to_zero: RateBlock::of(&down, z) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{fault, row};
    use alfi_core::FaultValue;

    #[test]
    fn hardened_rate_skips_rows_without_hardened_output() {
        let mut with = row(1, 2, 0, vec![]);
        with.resil_top5 = Some(vec![(1, 0.9)]);
        let without = row(1, 2, 0, vec![]);
        let r = hardened_corruption_rate(&[with.clone(), without]);
        assert_eq!(r.total, 1);
        assert_eq!(r.hits, 0, "the hardened model restored the prediction");
        with.resil_top5 = Some(vec![(9, 0.9)]);
        assert_eq!(hardened_corruption_rate(&[with]).hits, 1);
    }

    #[test]
    fn hardened_corruption_counts_changed_and_non_finite_top1() {
        let hardened = |resil: (usize, f32), nan: usize| {
            let mut r = row(1, 1, nan, vec![]);
            r.resil_top5 = Some(vec![resil]);
            r
        };
        let rows = [
            hardened((2, 0.9), 0),      // changed top-1
            hardened((1, f32::NAN), 0), // non-finite top-1
            hardened((1, 0.9), 3),      // the faulty pass's NaN count does not apply
            hardened((1, 0.9), 0),
        ];
        let r = hardened_corruption_rate(&rows);
        assert_eq!((r.hits, r.total), (2, 4));
        assert!((r.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn top1_accuracy_compares_each_output_with_labels() {
        let mut rows = vec![row(1, 1, 0, vec![]), row(1, 2, 0, vec![]), row(2, 2, 0, vec![])];
        rows[1].label = 2;
        assert_eq!(top1_accuracy(&rows, CsvVariant::Original).hits, 2);
        assert_eq!(top1_accuracy(&rows, CsvVariant::Corrupted).hits, 3);
        let hardened = top1_accuracy(&rows, CsvVariant::Resilient);
        assert_eq!((hardened.hits, hardened.total), (0, 0));
    }

    #[test]
    fn flip_directions_split_by_flip_direction() {
        let flip = |dir| fault(0, FaultValue::BitFlip(30), dir);
        let rows = [
            row(1, 2, 0, vec![flip(FlipDirection::ZeroToOne)]),
            row(1, 1, 0, vec![flip(FlipDirection::OneToZero)]),
            row(1, 1, 0, vec![fault(0, FaultValue::Replace(3.0), FlipDirection::ZeroToOne)]),
        ];
        let d = flip_directions(&rows);
        assert_eq!((d.zero_to_one.samples, d.zero_to_one.sdc), (1, 1));
        assert_eq!((d.one_to_zero.samples, d.one_to_zero.masked), (1, 1));
    }
}
