//! First-visit tables for fleets of ray tours.
//!
//! The Monte-Carlo engine answers hundreds of thousands of first-visit
//! queries per estimate. [`VisitTable`] is a shared view over the
//! compilation layer's [`CompiledFleet`]: for each robot and ray, the
//! sorted slope-1 pieces `(lo, hi, c]` such that targets in `(lo, hi]`
//! are first visited at time `c + x`, each query one binary search.
//!
//! The pieces are the exact evaluator's own (`c` is twice the turning
//! mass before the covering leg), so a table query returns the
//! bit-for-bit same `f64` as
//! [`RayEvaluator::detection_time`](raysearch_core::RayEvaluator::detection_time)
//! composed over the same robots. The degenerate-sampler tests pin this.

use std::sync::Arc;

use raysearch_core::{CompiledFleet, FleetBuilder};
use raysearch_sim::{LogTourItinerary, TourItinerary};

use crate::McError;

/// The compiled first-visit functions of a whole fleet, indexed by
/// `(robot, ray)`: a cheap-to-clone view over a shared
/// [`CompiledFleet`].
///
/// # Example
///
/// ```
/// use raysearch_mc::VisitTable;
/// use raysearch_strategies::{CyclicExponential, RayStrategy};
///
/// let fleet = CyclicExponential::optimal(2, 3, 1)?.fleet_tours(100.0)?;
/// let table = VisitTable::from_fleet(&fleet)?;
/// assert_eq!(table.num_robots(), 3);
/// assert_eq!(table.num_rays(), 2);
/// // some robot reaches distance 5 on ray 0 in finite time
/// assert!((0..3).any(|r| table.first_visit(r, 0, 5.0).is_some()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VisitTable {
    fleet: Arc<CompiledFleet>,
}

impl VisitTable {
    /// Compiles the first-visit functions of every robot in `fleet`.
    ///
    /// Linear tours compile untruncated, so the table answers targets
    /// at every distance.
    ///
    /// # Errors
    ///
    /// Returns [`McError::InvalidInput`] if the fleet is empty or its
    /// tours disagree on the number of rays.
    pub fn from_fleet(fleet: &[TourItinerary]) -> Result<Self, McError> {
        let Some(first) = fleet.first() else {
            return Err(McError::invalid("fleet must have at least one robot"));
        };
        let mut builder = FleetBuilder::new(first.num_rays(), f64::MAX)?;
        for tour in fleet {
            builder.push_tour(tour)?;
        }
        Ok(Arc::new(builder.finish()).into())
    }

    /// Compiles a whole fleet of log-domain tours, each truncated at
    /// `cap` through the *same*
    /// [`compile_first_visit_pieces`](raysearch_core::compile_first_visit_pieces)
    /// the exact evaluator uses. Queries are valid for `x ≤ cap`, and
    /// the overflowing post-horizon padding tail of a large fleet never
    /// reaches linear space.
    ///
    /// # Errors
    ///
    /// Returns [`McError::InvalidInput`] if the fleet is empty, its
    /// tours disagree on the number of rays, `cap` is not positive and
    /// finite, or a first-visit constant within the cap overflows
    /// `f64` (a horizon too deep for the fleet's turning-point growth).
    pub fn from_log_fleet(fleet: &[LogTourItinerary], cap: f64) -> Result<Self, McError> {
        let Some(first) = fleet.first() else {
            return Err(McError::invalid("fleet must have at least one robot"));
        };
        let mut builder = FleetBuilder::new(first.num_rays(), cap)?;
        for tour in fleet {
            builder.push_log_tour(tour)?;
        }
        Ok(Arc::new(builder.finish()).into())
    }

    /// Number of robots in the compiled fleet.
    pub fn num_robots(&self) -> usize {
        self.fleet.num_robots()
    }

    /// Number of rays.
    pub fn num_rays(&self) -> usize {
        self.fleet.num_rays()
    }

    /// First-visit time of `robot` to a target at distance `x` on `ray`,
    /// or `None` if the robot's plan never reaches it.
    #[inline]
    pub fn first_visit(&self, robot: usize, ray: usize, x: f64) -> Option<f64> {
        self.fleet.first_visit(robot, ray, x)
    }

    /// All piece boundaries on `ray` strictly inside `(lo, hi)`, sorted
    /// and deduplicated — the exact adversary's candidate target set,
    /// used by the adversarial-grid replay sampler. A slice of the
    /// boundaries the artifact prepared at compile time.
    pub fn boundaries_on_ray(&self, ray: usize, lo: f64, hi: f64) -> &[f64] {
        self.fleet.boundaries(ray, lo, hi)
    }
}

impl From<Arc<CompiledFleet>> for VisitTable {
    /// Shares a compiled artifact — how Monte-Carlo estimation
    /// piggybacks on fleets already compiled by the exact evaluator or
    /// the serving layer, bit-for-bit like a table built fresh.
    fn from(fleet: Arc<CompiledFleet>) -> Self {
        VisitTable { fleet }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysearch_strategies::{CyclicExponential, RayStrategy};

    fn fleet() -> Vec<TourItinerary> {
        CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .fleet_tours(500.0)
            .unwrap()
    }

    #[test]
    fn matches_the_exact_evaluator_bit_for_bit() {
        use raysearch_core::RayEvaluator;

        let fleet = fleet();
        let table = VisitTable::from_fleet(&fleet).unwrap();
        let evaluator = RayEvaluator::new(3, 1, 1.0, 400.0).unwrap();
        for ray in 0..3 {
            for &x in &[1.0, 1.5, 7.3, 41.0, 333.0] {
                // the (f+1)-st order statistic over the whole fleet,
                // computed from the table exactly as the evaluator does
                let mut times: Vec<f64> = (0..table.num_robots())
                    .filter_map(|r| table.first_visit(r, ray, x))
                    .collect();
                times.sort_by(f64::total_cmp);
                let ours = (times.len() >= 2).then(|| times[1]);
                let truth = evaluator.detection_time(&fleet, ray, x).unwrap();
                assert_eq!(ours, truth, "ray {ray}, x {x}");
            }
        }
    }

    #[test]
    fn unreached_targets_are_none() {
        let table = VisitTable::from_fleet(&fleet()).unwrap();
        for robot in 0..table.num_robots() {
            for ray in 0..table.num_rays() {
                assert_eq!(table.first_visit(robot, ray, 1e12), None);
            }
        }
    }

    #[test]
    fn boundaries_are_sorted_in_range() {
        let table = VisitTable::from_fleet(&fleet()).unwrap();
        let bs = table.boundaries_on_ray(0, 1.0, 400.0);
        assert!(!bs.is_empty());
        assert!(bs.windows(2).all(|w| w[0] < w[1]));
        assert!(bs.iter().all(|&b| b > 1.0 && b < 400.0));
    }

    #[test]
    fn log_fleet_table_answers_bit_for_bit_like_the_linear_one() {
        let strat = CyclicExponential::optimal(3, 4, 1).unwrap();
        let linear = VisitTable::from_fleet(&strat.fleet_tours(500.0).unwrap()).unwrap();
        let log =
            VisitTable::from_log_fleet(&strat.fleet_log_tours(500.0).unwrap(), 125.0).unwrap();
        assert_eq!(log.num_robots(), 4);
        assert_eq!(log.num_rays(), 3);
        for robot in 0..4 {
            for ray in 0..3 {
                for &x in &[1.0, 1.5, 7.3, 41.0, 124.9] {
                    let a = linear.first_visit(robot, ray, x);
                    let b = log.first_visit(robot, ray, x);
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "robot {robot}, ray {ray}, x {x}"
                    );
                }
            }
            for ray in 0..3 {
                assert_eq!(
                    linear.boundaries_on_ray(ray, 1.0, 125.0),
                    log.boundaries_on_ray(ray, 1.0, 125.0)
                );
            }
        }
    }

    #[test]
    fn log_fleet_table_handles_formerly_overflowing_fleets() {
        // k = 149 on the line: the linear fleet does not exist
        let strat = CyclicExponential::optimal(2, 149, 74).unwrap();
        assert!(strat.fleet_tours(4e12).is_err());
        let table =
            VisitTable::from_log_fleet(&strat.fleet_log_tours(4e12).unwrap(), 1e12).unwrap();
        assert_eq!(table.num_robots(), 149);
        // every in-range target is eventually visited by some robot
        for &x in &[1.0, 1e3, 1e9, 1e12] {
            assert!(
                (0..149).any(|r| table.first_visit(r, 0, x).is_some()),
                "x = {x} unreachable"
            );
        }
    }

    #[test]
    fn compiled_artifact_table_is_bit_identical_to_the_streamed_one() {
        use raysearch_core::FleetBuilder;
        use raysearch_sim::RobotId;

        let strat = CyclicExponential::optimal(3, 4, 1).unwrap();
        let streamed =
            VisitTable::from_log_fleet(&strat.fleet_log_tours(500.0).unwrap(), 125.0).unwrap();
        let mut builder = FleetBuilder::new(3, 125.0).unwrap();
        for r in 0..4 {
            builder
                .push_log_tour(&strat.log_tour_prefix(RobotId(r), 125.0).unwrap())
                .unwrap();
        }
        let shared = VisitTable::from(Arc::new(builder.finish()));
        assert_eq!(shared, streamed, "piece-for-piece identical tables");
    }

    #[test]
    fn log_fleet_validates() {
        assert!(VisitTable::from_log_fleet(&[], 10.0).is_err());
        let two_ray = CyclicExponential::optimal(2, 3, 1)
            .unwrap()
            .fleet_log_tours(100.0)
            .unwrap();
        assert!(VisitTable::from_log_fleet(&two_ray, f64::INFINITY).is_err());
        assert!(VisitTable::from_log_fleet(&two_ray, 0.0).is_err());
        let mut mixed = two_ray.clone();
        mixed.push(
            CyclicExponential::optimal(3, 4, 1)
                .unwrap()
                .log_tour(raysearch_sim::RobotId(0), 100.0)
                .unwrap(),
        );
        assert!(VisitTable::from_log_fleet(&mixed, 100.0).is_err());
        let table = VisitTable::from_log_fleet(&two_ray, 100.0).unwrap();
        assert_eq!((table.num_robots(), table.num_rays()), (3, 2));
    }

    #[test]
    fn rejects_bad_fleets() {
        assert!(VisitTable::from_fleet(&[]).is_err());
        let mut mixed = fleet();
        mixed.push(
            CyclicExponential::optimal(2, 3, 1)
                .unwrap()
                .fleet_tours(100.0)
                .unwrap()
                .remove(0),
        );
        assert!(VisitTable::from_fleet(&mixed).is_err());
    }
}
