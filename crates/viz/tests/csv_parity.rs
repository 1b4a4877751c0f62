//! Proof that [`num`]'s fixed-point printer is byte-identical to std: for
//! 1e-4 ≤ |v| < 1e7 it must print exactly `format!("{v:.6}")` with trailing
//! zeros and a bare `.` trimmed, including on exact rounding ties; zero,
//! NaN, ±inf and every other magnitude must print what they always did
//! (`0` for both zeros, std's `{:.4e}` otherwise).

use nvmx_viz::csv::{num, num_into};
use proptest::prelude::*;

/// The std-only reference `num` is held to.
fn reference(value: f64) -> String {
    if value == 0.0 {
        return "0".to_owned();
    }
    if (1.0e-4..1.0e7).contains(&value.abs()) {
        let fixed = format!("{value:.6}");
        fixed.trim_end_matches('0').trim_end_matches('.').to_owned()
    } else {
        format!("{value:.4e}")
    }
}

fn assert_matches(value: f64) {
    assert_eq!(
        num(value),
        reference(value),
        "bits {:#018x}",
        value.to_bits()
    );
}

/// `value` moved `ulps` representable steps away from zero (towards zero
/// when negative); `value` must be finite and positive.
fn step(value: f64, ulps: i64) -> f64 {
    f64::from_bits(value.to_bits().wrapping_add_signed(ulps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn random_in_range_bit_patterns_match_std(bits in any::<u64>()) {
        // Keep the sign and significand; draw the exponent from the
        // biased range 1009..=1046 that covers [1e-4, 1e7), then drop the
        // few values of the edge binades that fall outside it.
        let exponent = 1009 + (bits >> 52) % 38;
        let value = f64::from_bits((bits & 0x800f_ffff_ffff_ffff) | (exponent << 52));
        prop_assume!((1.0e-4..1.0e7).contains(&value.abs()));
        prop_assert_eq!(num(value), reference(value));
    }

    #[test]
    fn random_bit_patterns_of_any_magnitude_match_std(bits in any::<u64>()) {
        prop_assert_eq!(num(f64::from_bits(bits)), reference(f64::from_bits(bits)));
    }
}

#[test]
fn exact_ties_round_half_to_even() {
    // A value is a tie at six decimals exactly when it is an odd multiple
    // of 2^-7 (its seventh and last decimal is the 5 of 1/128).
    assert_eq!(num(1.0 / 128.0), "0.007812");
    assert_eq!(num(3.0 / 128.0), "0.023438");
    assert_eq!(num(-5.0 / 128.0), "-0.039062");
    for j in (1..2_000_000u64).step_by(2) {
        assert_matches(j as f64 / 128.0);
    }
    for j in (1..1_280_000_000u64).step_by(2 * 9_973) {
        assert_matches(j as f64 / 128.0);
        assert_matches(-(j as f64) / 128.0);
    }
}

#[test]
fn binary_halves_below_the_sixth_decimal_match_std() {
    // (k + 0.5)·2^-20: a half in the last binary place the decimal
    // rounding must see through.
    for k in 0..2_000_000u64 {
        assert_matches((k as f64 + 0.5) / (1u64 << 20) as f64);
    }
    for k in (0..10_485_760_000_000u64).step_by(7_919_993) {
        let value = (k as f64 + 0.5) / (1u64 << 20) as f64;
        assert_matches(value);
        assert_matches(-value);
    }
}

#[test]
fn range_edges_and_their_neighbours_match_std() {
    for edge in [1.0e-4, 1.0e7] {
        for ulps in -64..=64 {
            let value = step(edge, ulps);
            assert_matches(value);
            assert_matches(-value);
        }
    }
    // The largest in-range value rounds up to eight integer digits.
    assert_eq!(num(step(1.0e7, -1)), "10000000");
    assert_eq!(num(1.0e-4), "0.0001");
    assert_eq!(num(step(1.0e-4, -1)), "1.0000e-4");
}

#[test]
fn decimal_rounding_boundaries_match_std() {
    // Values next to n.5e-6 for small and large integer parts, where the
    // sixth decimal's rounding flips.
    for whole in [0.0, 1.0, 42.0, 65_535.0, 1_048_575.0, 9_999_999.0] {
        for n in 0..2_000u32 {
            let center = whole + (f64::from(n) + 0.5) * 1.0e-6;
            if !(1.0e-4..1.0e7).contains(&center) {
                continue;
            }
            for ulps in -2..=2 {
                assert_matches(step(center, ulps));
                assert_matches(-step(center, ulps));
            }
        }
    }
}

#[test]
fn zeros_nan_infinities_and_extremes_go_through_unchanged() {
    assert_eq!(num(0.0), "0");
    assert_eq!(num(-0.0), "0");
    assert_eq!(num(f64::NAN), "NaN");
    assert_eq!(num(f64::INFINITY), "inf");
    assert_eq!(num(f64::NEG_INFINITY), "-inf");
    for value in [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
    ] {
        assert_matches(value);
    }
}

#[test]
fn num_into_appends_exactly_num() {
    let mut out = String::from("x,");
    num_into(&mut out, 1440997.7907661);
    out.push(',');
    num_into(&mut out, -2.5e-12);
    assert_eq!(out, "x,1440997.790766,-2.5000e-12");
}
