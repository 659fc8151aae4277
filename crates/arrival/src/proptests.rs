//! Property-based tests of pattern generation invariants.

#![cfg(test)]

use proptest::prelude::*;

use crate::pattern::render_pattern_file;
use crate::shapes::{generate, Shape};

fn any_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::NoDelay),
        Just(Shape::Ascending),
        Just(Shape::Descending),
        Just(Shape::Random),
        Just(Shape::LastDelayed),
        Just(Shape::FirstDelayed),
        Just(Shape::VShape),
        Just(Shape::InvertedV),
        Just(Shape::HalfStep),
    ]
}

proptest! {
    /// For any shape, process count and skew: delays are finite, bounded by
    /// the skew, and (for p > 1, s > 0, non-NoDelay) span exactly [0, s].
    #[test]
    fn generated_patterns_are_bounded(
        shape in any_shape(),
        p in 1usize..300,
        skew_us in 0.0f64..1e6,
        seed in any::<u64>(),
    ) {
        let s = skew_us * 1e-6;
        let pat = generate(shape, p, s, seed);
        prop_assert_eq!(pat.len(), p);
        for &d in &pat.delays {
            prop_assert!(d.is_finite() && d >= 0.0 && d <= s + 1e-12);
        }
        // V shapes are degenerate (all-equal, hence all-zero) at p = 2.
        let degenerate_v = matches!(shape, Shape::VShape | Shape::InvertedV) && p < 3;
        if shape != Shape::NoDelay && p > 1 && s > 0.0 && !degenerate_v {
            prop_assert!((pat.max_skew() - s).abs() < s * 1e-9 + 1e-18);
            let min = pat.delays.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(min.abs() < s * 1e-9 + 1e-18, "min {min}");
        }
    }

    /// The pattern file format round-trips with nanosecond fidelity.
    #[test]
    fn file_round_trip(
        shape in any_shape(),
        p in 1usize..150,
        skew_us in 0.0f64..1e5,
        seed in any::<u64>(),
    ) {
        let pat = generate(shape, p, skew_us * 1e-6, seed);
        let text = render_pattern_file(&pat);
        let back: Vec<f64> = text.lines().map(|l| l.parse().unwrap()).collect();
        prop_assert_eq!(back.len(), p);
        for (a, b) in pat.delays.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }
}
