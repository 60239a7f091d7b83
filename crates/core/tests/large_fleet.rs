//! Regression suite for the log-domain numeric core: the fleet sizes
//! that overflowed the linear pipeline to an error (`k ≳ 139` at deep
//! horizons) must now evaluate to finite ratios in closed-form
//! agreement, monotonically in `k`, with the trivial regime and the
//! horizon-overflow guard pinned alongside.
//!
//! Horizons here are sized for debug-build test budgets; the full
//! `horizon = 1e12` sweep up to `k = 4096` runs in release via the E12
//! campaign and its CI smoke job.

use raysearch_bounds::a_rays;
use raysearch_core::{evaluate_optimal, evaluate_optimal_cached, CompileMemo, CoreError};

/// The formerly-overflowing fleet sizes, each paired with the
/// near-majority faulty count that keeps the line instance searchable
/// (`f = ⌊k/2⌋`, the closest approach to `η → 1⁺`) and a horizon deep
/// enough for sub-`1e-6` closed-form agreement.
const SWEEP: &[(u32, u32, f64)] = &[
    (139, 69, 1e8),
    (256, 128, 1e8),
    (512, 256, 1e8),
    (1024, 512, 1e8),
    (2048, 1024, 1e7),
    (4096, 2048, 1e7),
];

#[test]
fn formerly_overflowing_fleets_are_finite_and_closed_form_consistent() {
    for &(k, f, horizon) in SWEEP {
        let report = evaluate_optimal(2, k, f, horizon)
            .unwrap_or_else(|e| panic!("(2,{k},{f}) failed to evaluate: {e}"));
        let theory = a_rays(2, k, f).expect("searchable instance");
        assert!(
            report.is_covered(),
            "(2,{k},{f}) left a target uncovered: {:?}",
            report.uncovered
        );
        assert!(
            report.ratio.is_finite(),
            "(2,{k},{f}) ratio overflowed: {}",
            report.ratio
        );
        // the exact sup approaches Λ from below; never exceeds it
        assert!(
            report.ratio <= theory * (1.0 + 1e-9),
            "(2,{k},{f}) measured {} above Λ {theory}",
            report.ratio
        );
        let rel = (report.ratio - theory).abs() / theory;
        assert!(
            rel <= 1e-6,
            "(2,{k},{f}): measured {} vs Λ {theory}, relative error {rel:e}",
            report.ratio
        );
    }
}

#[test]
fn ratio_is_monotone_in_k_along_the_near_majority_diagonal() {
    // along f = k/2 (even k), η = (k+2)/k strictly decreases in k, so
    // both the closed form and the measured exact ratio must strictly
    // decrease toward Λ(1⁺) = 3 across the formerly-overflowing range
    let chain: Vec<(f64, f64)> = SWEEP
        .iter()
        .filter(|(k, _, _)| k % 2 == 0)
        .map(|&(k, f, _)| {
            // a fixed horizon across the chain so measured values are
            // comparable like-for-like
            let measured = evaluate_optimal(2, k, f, 1e7).expect("searchable").ratio;
            let theory = a_rays(2, k, f).expect("searchable");
            (measured, theory)
        })
        .collect();
    assert!(chain.len() >= 4);
    for w in chain.windows(2) {
        assert!(
            w[1].1 < w[0].1,
            "closed form not decreasing: {} !< {}",
            w[1].1,
            w[0].1
        );
        assert!(
            w[1].0 < w[0].0,
            "measured ratio not decreasing: {} !< {}",
            w[1].0,
            w[0].0
        );
    }
    // and the whole chain sits in (3, Λ(129/128)]
    for (measured, _) in &chain {
        assert!(*measured > 3.0 && *measured < 3.2);
    }
}

#[test]
fn trivial_regime_acceptance_instance_serves_ratio_one() {
    // the acceptance instance: k = 512, f = 1 on the line is deep in
    // the trivial regime (k ≥ 2(f+1)); the evaluator must agree with
    // the closed-form regime ratio of exactly 1, at full depth
    let report = evaluate_optimal(2, 512, 1, 1e12).expect("trivial instances evaluate");
    assert!(report.is_covered());
    assert!(
        (report.ratio - 1.0).abs() < 1e-6,
        "trivial-regime ratio {} != 1",
        report.ratio
    );
    let closed = raysearch_bounds::RayInstance::new(2, 512, 1)
        .unwrap()
        .regime()
        .ratio()
        .expect("trivial regime has a ratio");
    assert!((report.ratio - closed).abs() / closed <= 1e-6);
}

#[test]
fn oversized_horizons_fail_with_the_typed_error_not_inf() {
    // above f64::MAX / 8 the old pipeline silently multiplied into inf
    // (4x fleet pad, 2x more inside trivial-regime baseline tours); now
    // the overflow is caught before any padding multiplication
    let err = evaluate_optimal(2, 139, 69, f64::MAX / 2.0).unwrap_err();
    assert!(
        matches!(err, CoreError::HorizonOverflow { horizon } if horizon == f64::MAX / 2.0),
        "expected HorizonOverflow, got {err:?}"
    );
    // the guard is about representability, not size per se: the largest
    // paddable horizon proceeds past it
    assert!(!matches!(
        evaluate_optimal(2, 139, 69, f64::MAX / 8.0),
        Err(CoreError::HorizonOverflow { .. })
    ));
    // a genuinely deep horizon still evaluates to a finite ratio at the
    // closed form — depth alone is not an error
    let deep = evaluate_optimal(2, 139, 69, 1e300).expect("deep horizon evaluates");
    let theory = a_rays(2, 139, 69).unwrap();
    assert!(deep.ratio.is_finite());
    assert!((deep.ratio - theory).abs() / theory < 1e-6);
    // the trivial regime honors the same guard boundary (its baseline
    // tours walk out to 8x the horizon)
    assert!(matches!(
        evaluate_optimal(2, 512, 1, f64::MAX / 4.0),
        Err(CoreError::HorizonOverflow { .. })
    ));
    assert!(
        (evaluate_optimal(2, 512, 1, f64::MAX / 8.0).unwrap().ratio - 1.0).abs() < 1e-12,
        "trivial regime must evaluate right up to the guard"
    );
}

#[test]
fn saturating_depths_error_instead_of_returning_inf() {
    // within a factor alpha^(k*m) of f64::MAX, a first-visit constant
    // inside the range itself exceeds linear f64; that must surface as
    // a typed error, never as Ok { ratio: inf }
    for (m, k, f) in [(3u32, 200u32, 100u32), (5, 300, 80)] {
        match evaluate_optimal(m, k, f, f64::MAX / 8.0) {
            Ok(report) => assert!(
                report.ratio.is_finite(),
                "({m},{k},{f}): Ok must imply a finite ratio, got {}",
                report.ratio
            ),
            Err(CoreError::InvalidInput { reason }) => assert!(
                reason.contains("overflows"),
                "({m},{k},{f}): unexpected reason {reason}"
            ),
            Err(other) => panic!("({m},{k},{f}): unexpected error {other}"),
        }
    }
}

/// Bit-level pins of the exact evaluator: `(m, k, f, horizon,
/// ratio bits, breakpoints, (worst ray, worst x bits, worst detection
/// limit bits))`. The first 24 rows are the E12 sweep at `horizon =
/// 1e12`; the rest are trivial-regime and small-`m` cells. Any change
/// to the sweep engine must reproduce every bit.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const GOLDEN: &[(u32, u32, u32, f64, u64, usize, (usize, u64, u64))] = &[
    (2, 128, 64, 1e12, 0x400958612f86a600, 848, (0, 0x42200e41cf7332e1, 0x42396ef6c438f20e)),
    (2, 128, 79, 1e12, 0x4012f417c6fa9608, 2198, (0, 0x4263183b3a68734c, 0x42869e90893c4927)),
    (2, 128, 95, 1e12, 0x4018c8dc2e423939, 3220, (0, 0x4266a1925bc77526, 0x4291873b4f18858e)),
    (2, 128, 127, 1e12, 0x4021ffffffffff08, 5104, (1, 0x426306fe0a31ad18, 0x429567ddcb77e194)),
    (2, 256, 128, 1e12, 0x4008bfbe042975ac, 1456, (1, 0x41b4ba8e7f4beb20, 0x41d0081f7860fe5e)),
    (2, 256, 159, 1e12, 0x4012f417c6fa95ff, 4396, (0, 0x42697f840560cd1f, 0x428e347307c60bf2)),
    (2, 256, 191, 1e12, 0x4018c8dc2e423939, 6440, (0, 0x4266d382ec2cd19b, 0x4291ade932891649)),
    (2, 256, 255, 1e12, 0x4021ffffffffff09, 10206, (1, 0x4261d4873168c0c6, 0x42940f181795d7cb)),
    (2, 512, 256, 1e12, 0x40086a1ae5cbbb22, 2550, (0, 0x4171a78b493710f5, 0x418af0649668c2f4)),
    (2, 512, 319, 1e12, 0x4012f417c6fa9604, 8792, (0, 0x425de2a50ef5aab6, 0x4281b37337b7480d)),
    (2, 512, 383, 1e12, 0x4018c8dc2e42392c, 12878, (0, 0x425ff8e0e3da914c, 0x4288c35825b60f3a)),
    (2, 512, 511, 1e12, 0x4021ffffffffff09, 20410, (1, 0x426087451875a2ac, 0x4292982dbb845602)),
    (2, 1024, 512, 1e12, 0x40083a5365f25aa9, 4536, (0, 0x41a943b58eb460f2, 0x41c320d4bc35e674)),
    (2, 1024, 639, 1e12, 0x4012f417c6fa9601, 17582, (0, 0x425fa0035939f249, 0x4282bb3d7b611553)),
    (2, 1024, 767, 1e12, 0x4018c8dc2e42392c, 25756, (0, 0x42600e0a1c2e001b, 0x4288de9b981b12fb)),
    (2, 1024, 1023, 1e12, 0x4021ffffffffff09, 40820, (1, 0x426059b0d315aa2d, 0x429264e6ed785e76)),
    (2, 2048, 1024, 1e12, 0x40081fd9ddc8a88f, 8164, (0, 0x41d0f0a2c63a2cc5, 0x41e98aad0f272f0e)),
    (2, 2048, 1279, 1e12, 0x4012f417c6fa9603, 35162, (0, 0x425e2b22470f08af, 0x4281de6297ee0d18)),
    (2, 2048, 1535, 1e12, 0x4018c8dc2e423937, 51510, (0, 0x4260c6dd5a3b02df, 0x4289fce8b5252b50)),
    (2, 2048, 2047, 1e12, 0x4021ffffffffff08, 81640, (1, 0x42608a2291246d64, 0x42929b66e348fa10)),
    (2, 4096, 2048, 1e12, 0x400811493dd2f83a, 14844, (0, 0x40ca86ef74165ad6, 0x40e3f387fd58cc92)),
    (2, 4096, 2559, 1e12, 0x4012f417c6fa9601, 70322, (0, 0x425e61f37cf720e4, 0x4281feda6a36deec)),
    (2, 4096, 3071, 1e12, 0x4018c8dc2e42393a, 103018, (0, 0x426354452302cb96, 0x428df10f1352bd3c)),
    (2, 4096, 4095, 1e12, 0x4021ffffffffff05, 163280, (1, 0x42600c7ee447e6cc, 0x42920e0ec0d0e2aa)),
    (2, 512, 1, 1e12, 0x3ff0000000000000, 2, (0, 0x3ff0000000000000, 0x3ff0000000000000)),
    (2, 4, 1, 1e3, 0x3ff0000000000000, 2, (0, 0x3ff0000000000000, 0x3ff0000000000000)),
    (3, 7, 1, 1e4, 0x3ff0000000000000, 3, (0, 0x3ff0000000000000, 0x3ff0000000000000)),
    (2, 1, 0, 1e4, 0x4021fff000000000, 15, (1, 0x40bffffffffffffa, 0x40f1ffeffffffffd)),
    (3, 1, 0, 1e5, 0x402cfffd440ab2d6, 31, (1, 0x40f4ce6b167f30fb, 0x4132db0f4546d2a0)),
    (3, 5, 1, 1e4, 0x4011bcbfe2df987e, 28, (2, 0x40a4bb9130a888f4, 0x40c6fbded2bf2148)),
    (4, 3, 0, 1e6, 0x4014eea9c36d5ad2, 33, (1, 0x410fffffffffffee, 0x4134eea9c36d5ac6)),
    (5, 4, 0, 1e4, 0x4012f417c6f01039, 27, (0, 0x40a869fffffffffe, 0x40ccebb4c7ee0ebe)),
    (2, 5, 2, 1e4, 0x4011bcbf5d778988, 27, (1, 0x40be60000000000a, 0x40e0d629a5b87792)),
];

#[test]
fn evaluator_reports_match_the_frozen_goldens_bit_for_bit() {
    // one shared memo, as the E12 campaign runs it: the second lookup of
    // a geometry is a warm hit and must not move a bit either
    let memo = CompileMemo::new();
    for pass in ["cold", "warm"] {
        for &(m, k, f, horizon, ratio_bits, breakpoints, (ray, x_bits, limit_bits)) in GOLDEN {
            let cell = format!("{pass} ({m},{k},{f}) at {horizon:e}");
            let r = evaluate_optimal_cached(&memo, m, k, f, horizon)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(r.ratio.to_bits(), ratio_bits, "{cell}: ratio {}", r.ratio);
            assert_eq!(r.num_breakpoints, breakpoints, "{cell}: breakpoints");
            assert_eq!(r.uncovered, None, "{cell}: uncovered");
            let w = r.worst.unwrap_or_else(|| panic!("{cell}: no worst target"));
            assert_eq!(
                (w.ray, w.x.to_bits(), w.detection_limit.to_bits()),
                (ray, x_bits, limit_bits),
                "{cell}: worst target {w:?}"
            );
        }
    }
}
