//! Oracle property test for the exact evaluator's prepared event sweep.
//!
//! Every ray path — `RayEvaluator::{evaluate, evaluate_log,
//! evaluate_compiled}`, `evaluate_optimal` — runs the one sweep engine
//! a `CompiledFleet` prepares at build time, so comparing those paths
//! with each other cannot catch a fault in the engine itself. This
//! suite compares it with a brute-force oracle instead: for every
//! boundary candidate, probe each robot's first-visit function on its
//! own and select the `(f+1)`-st smallest constant — the `O(B·k)`
//! per-robot scan the sweep replaces. Random sub-ranges `1 ≤ lo < hi ≤
//! cap`, some snapped onto piece boundaries, exercise the sweep's
//! range slicing.

use proptest::prelude::*;
use raysearch_core::{CompiledFleet, EvalReport, FleetBuilder, RayEvaluator, WorstTarget};
use raysearch_sim::RobotId;
use raysearch_strategies::{CyclicExponential, RayStrategy, ZonePartition};

/// The sup of the `(f+1)`-st first-visit ratio over `[lo, hi]`, by a
/// per-robot scan at every boundary candidate's right-limit probe.
fn oracle(fleet: &CompiledFleet, f: u32, lo: f64, hi: f64) -> EvalReport {
    let needed = f as usize + 1;
    let mut worst: Option<WorstTarget> = None;
    let mut uncovered: Option<WorstTarget> = None;
    let mut num_breakpoints = 0;
    for ray in 0..fleet.num_rays() {
        let mut candidates = vec![lo];
        for robot in 0..fleet.num_robots() {
            for p in fleet.pieces(robot, ray) {
                candidates.extend([p.lo, p.hi].into_iter().filter(|&b| b > lo && b < hi));
            }
        }
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
        num_breakpoints += candidates.len();
        for (i, &b) in candidates.iter().enumerate() {
            let next = candidates.get(i + 1).copied().unwrap_or(hi);
            let probe = 0.5 * (b + next);
            let mut constants = Vec::new();
            for robot in 0..fleet.num_robots() {
                let c = fleet
                    .pieces(robot, ray)
                    .find(|p| p.lo < probe && probe <= p.hi)
                    .map(|p| p.c);
                assert_eq!(
                    fleet.first_visit(robot, ray, probe),
                    c.map(|c| c + probe),
                    "first_visit disagrees with the piece scan"
                );
                constants.extend(c);
            }
            if constants.len() < needed {
                uncovered.get_or_insert(WorstTarget {
                    ray,
                    x: probe,
                    detection_limit: f64::INFINITY,
                });
                continue;
            }
            constants.sort_by(f64::total_cmp);
            let candidate = WorstTarget {
                ray,
                x: b,
                detection_limit: constants[needed - 1] + b,
            };
            let ratio = candidate.detection_limit / candidate.x;
            if worst.is_none_or(|w| ratio > w.detection_limit / w.x) {
                worst = Some(candidate);
            }
        }
    }
    EvalReport {
        ratio: match (uncovered, worst) {
            (None, Some(w)) => w.detection_limit / w.x,
            _ => f64::INFINITY,
        },
        worst,
        uncovered,
        num_breakpoints,
    }
}

fn bits(w: Option<WorstTarget>) -> Option<(usize, u64, u64)> {
    w.map(|w| (w.ray, w.x.to_bits(), w.detection_limit.to_bits()))
}

/// A small fleet: a cyclic exponential one at a random base when
/// `(m, k, f)` is searchable, otherwise the zone partition (which may
/// leave rays undercovered — the uncovered-witness path).
fn fleet(m: u32, k: u32, f: u32, alpha: f64, cap: f64) -> CompiledFleet {
    let mut builder = FleetBuilder::new(m as usize, cap).unwrap();
    match CyclicExponential::with_alpha(m, k, f, alpha) {
        Ok(s) => {
            for r in 0..k as usize {
                builder
                    .push_log_tour(&s.log_tour_prefix(RobotId(r), cap).unwrap())
                    .unwrap();
            }
        }
        Err(_) => {
            for tour in ZonePartition::new(m, k, f)
                .unwrap()
                .fleet_tours(cap)
                .unwrap()
            {
                builder.push_tour(&tour).unwrap();
            }
        }
    }
    builder.finish()
}

/// `u ∈ [0, 1)` to a point of `[1, cap]`, log-uniformly; `snap ≥ 0.5`
/// moves it onto the nearest piece boundary of ray 0 at or above it
/// (when one lies within `[1, cap]`).
fn point(fleet: &CompiledFleet, u: f64, snap: f64, cap: f64) -> f64 {
    let x = cap.powf(u);
    if snap < 0.5 {
        return x;
    }
    fleet
        .boundaries(0, 1.0, cap)
        .iter()
        .copied()
        .find(|&b| b >= x)
        .unwrap_or(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn evaluate_compiled_matches_the_per_robot_oracle(
        (m, k, f_design) in (1u32..5, 1u32..7, 0u32..4),
        f_eval in 0u32..7,
        alpha in 1.1f64..4.0,
        cap in 20.0f64..5e4,
        (u1, s1, u2, s2) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
    ) {
        prop_assume!(f_eval < k);
        let fleet = fleet(m, k, f_design, alpha, cap);
        let (a, b) = (point(&fleet, u1, s1, cap), point(&fleet, u2, s2, cap));
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assume!(lo < hi);
        let got = RayEvaluator::new(m as usize, f_eval, lo, hi)
            .unwrap()
            .evaluate_compiled(&fleet)
            .unwrap();
        let want = oracle(&fleet, f_eval, lo, hi);
        let cell = format!("m={m} k={k} f={f_eval} alpha={alpha} cap={cap} [{lo}, {hi}]");
        prop_assert_eq!(got.ratio.to_bits(), want.ratio.to_bits(), "{}", cell);
        prop_assert_eq!(bits(got.worst), bits(want.worst), "{}", cell);
        prop_assert_eq!(bits(got.uncovered), bits(want.uncovered), "{}", cell);
        prop_assert_eq!(got.num_breakpoints, want.num_breakpoints, "{}", cell);
    }
}
