//! Exact competitive-ratio evaluation against the crash adversary.
//!
//! For a fleet given by turning-point plans, each robot's first-visit time
//! to a target at distance `x` on a fixed side/ray is piecewise of the form
//! `c + x`: between two consecutive "new territory" turning points the
//! covering leg is fixed and `c` is twice the total turning mass before
//! that leg. The adversarial detection time is the `(f+1)`-st order
//! statistic of the robots' first-visit times, and since every piece has
//! slope 1, the ratio `τ(x)/x = (c+x)/x` is *decreasing* on every piece —
//! so the supremum over targets is approached in the right-limit at piece
//! boundaries. The evaluator therefore computes the exact supremum by
//! enumerating boundaries; nothing is sampled.
//!
//! This is the measurement side of the paper: running it on the
//! [`CyclicExponential`] strategy
//! reproduces `Λ(q/k)` to floating-point accuracy (experiments E1/E4/E5).

use raysearch_bounds::{RayInstance, Regime};
use raysearch_sim::{Direction, LineItinerary, LogTourItinerary, RobotId, TourItinerary};
use raysearch_strategies::{CyclicExponential, RayStrategy, ZonePartition};

use crate::canon::CanonF64;
use crate::compiled::{CompileCache, CompiledFleet, FleetBuilder, FleetKey, NoCache};
use crate::CoreError;

/// One slope-1 piece of a first-visit function: targets in `(lo, hi]`
/// are first visited at time `c + x`.
///
/// `hi = ∞` marks a *straddling* piece compiled from a log-domain tour
/// whose true right end lies beyond linear `f64`; its `c` is still
/// exact, and `hi` only ever participates in `x ≤ hi` comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstVisitPiece {
    /// Left end of the covered interval (exclusive).
    pub lo: f64,
    /// Right end of the covered interval (inclusive).
    pub hi: f64,
    /// The first-visit constant: twice the turning mass spent before
    /// the covering leg.
    pub c: f64,
}

/// Compiles the per-ray first-visit pieces of one log-domain tour in a
/// single pass, each ray truncated at `cap`: element `r` of the result
/// is ray `r`'s pieces, sorted by strictly increasing `lo`.
///
/// This is the *one* compilation shared by the exact evaluator and
/// `raysearch-mc`'s `VisitTable` (their documented bit-for-bit
/// agreement rests on it). Pieces are extracted to linear `f64` one
/// excursion at a time, so the construction is bit-identical to a
/// linear-tour compilation for every piece whose `lo` is below `cap` —
/// and those are the only pieces a query in `(0, cap]` can consult
/// (both boundary enumeration and constant lookups need `lo < x`). The
/// overflowing post-horizon padding tail of a large fleet is never
/// materialized: iteration ends once every ray has its straddling
/// piece. The single pass matters: a per-ray scan would walk the
/// `O(m·f)`-excursion tour `m` times, turning many-ray instances
/// quadratic in `m`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if `cap` is not positive and
/// finite, or if a piece *constant* inside the cap overflows `f64` —
/// at caps within a factor `α^(k·m)` of `f64::MAX`, the turning mass
/// ahead of a straddling leg can exceed linear range, and answering
/// with a saturated `∞` would be the silent wrong answer this pipeline
/// exists to eliminate.
pub fn compile_first_visit_pieces(
    tour: &LogTourItinerary,
    cap: f64,
) -> Result<Vec<Vec<FirstVisitPiece>>, CoreError> {
    if !(cap.is_finite() && cap > 0.0) {
        return Err(CoreError::invalid(format!(
            "piece cap must be positive and finite, got {cap}"
        )));
    }
    let m = tour.num_rays();
    let mut pieces: Vec<Vec<FirstVisitPiece>> = vec![Vec::new(); m];
    let mut reach = vec![0.0f64; m];
    let mut open = m;
    let mut prefix = 0.0f64;
    for e in tour.excursions() {
        if open == 0 {
            break;
        }
        let turn = e.turn.to_f64();
        let ray = e.ray.index();
        if reach[ray] < cap && turn > reach[ray] {
            let c = 2.0 * prefix;
            if !c.is_finite() {
                return Err(CoreError::invalid(format!(
                    "first-visit constant on ray {ray} overflows f64 within the \
                     evaluation cap {cap:e}: the horizon is too deep for this \
                     fleet's turning-point growth"
                )));
            }
            pieces[ray].push(FirstVisitPiece {
                lo: reach[ray],
                hi: turn,
                c,
            });
            reach[ray] = turn;
            if reach[ray] >= cap {
                open -= 1;
            }
        }
        prefix += turn;
    }
    Ok(pieces)
}

/// The first-visit pieces of one line itinerary on the given side: they
/// tile `(0, reach]` left to right, so at most one holds a target.
fn line_pieces(itinerary: &LineItinerary, side: Direction) -> Vec<FirstVisitPiece> {
    let mut pieces = Vec::new();
    let mut reach = 0.0f64; // furthest distance visited on `side`
    let mut prefix = 0.0f64; // sum of turn magnitudes before current leg
    for signed in itinerary.signed_turns() {
        let magnitude = signed.abs();
        let on_side = (signed > 0.0) == (side == Direction::Positive);
        if on_side && magnitude > reach {
            pieces.push(FirstVisitPiece {
                lo: reach,
                hi: magnitude,
                c: 2.0 * prefix,
            });
            reach = magnitude;
        }
        prefix += magnitude;
    }
    pieces
}

/// The `(f+1)`-st smallest of `times`, or `None` if there are fewer:
/// the crash adversary's detection time of one target.
fn order_statistic(mut times: Vec<f64>, f: u32) -> Option<f64> {
    times.sort_by(f64::total_cmp);
    times.get(f as usize).copied()
}

/// The target realizing (in the limit) the worst-case ratio.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorstTarget {
    /// Ray index; for the line, `0` is the positive and `1` the negative
    /// side.
    pub ray: usize,
    /// The boundary whose right-neighbourhood attains the supremum:
    /// the adversary hides the target just past this distance.
    pub x: f64,
    /// The limiting detection time `c + x` for targets approaching `x`
    /// from above.
    pub detection_limit: f64,
}

/// The outcome of an exact evaluation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalReport {
    /// The exact supremum of `τ(x)/x` over the evaluation range — the
    /// fleet's competitive ratio against the crash adversary. Infinite if
    /// some target is never confirmed.
    pub ratio: f64,
    /// The target (limit) achieving the supremum, when finite.
    pub worst: Option<WorstTarget>,
    /// A witness target confirmed by fewer than `f+1` robots, if any
    /// (then `ratio` is infinite).
    pub uncovered: Option<WorstTarget>,
    /// Number of boundary candidates examined.
    pub num_breakpoints: usize,
}

impl EvalReport {
    /// Whether every target in range is confirmed in finite time.
    pub fn is_covered(&self) -> bool {
        self.uncovered.is_none()
    }
}

/// Evaluates the *optimal* strategy for the instance `(m, k, f)` exactly
/// over targets in `[1, horizon]`: builds the fleet that attains
/// `A(m, k, f)` and measures its worst-case ratio against the crash
/// adversary.
///
/// In the searchable regime `f < k < m(f+1)` the fleet is the cyclic
/// exponential strategy, generated and evaluated through the log-domain
/// pipeline — turn points are never materialized in linear space, so
/// fleets of thousands of robots at deep horizons evaluate to finite
/// ratios (the linear pipeline overflowed to an error from `k ≈ 139`).
/// In the trivial regime `k ≥ m(f+1)` the fleet is the saturating
/// [`ZonePartition`] (ratio exactly 1, matching
/// [`Regime::Trivial`](raysearch_bounds::Regime)).
///
/// This is the public one-shot entry point the serving layer memoizes:
/// the whole computation is a pure function of `(m, k, f, horizon)`, so
/// repeated calls are bit-identical and safe to cache.
///
/// # Example
///
/// ```
/// use raysearch_core::eval::evaluate_optimal;
///
/// let report = evaluate_optimal(2, 1, 0, 1e4)?; // the classic cow path
/// assert!((report.ratio - 9.0).abs() < 1e-3);
///
/// // a formerly-overflowing large fleet: finite, at the closed form
/// let large = evaluate_optimal(2, 139, 69, 1e6)?;
/// let theory = raysearch_bounds::a_rays(2, 139, 69)?;
/// assert!((large.ratio - theory).abs() / theory < 1e-6);
///
/// // the trivial regime evaluates to ratio 1 instead of erroring
/// assert!((evaluate_optimal(2, 4, 1, 1e3)?.ratio - 1.0).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::HorizonOverflow`] for a horizon that is not
/// finite or exceeds `f64::MAX / 8` (fleets are padded to four times
/// the horizon and the trivial-regime baseline walks out to twice the
/// pad, so larger values would silently become `inf` before any range
/// check), and [`CoreError::InvalidInput`]-style errors for impossible
/// `(m, k, f)`, a horizon outside `(1, ∞)`, or a horizon so deep that
/// a first-visit constant within range overflows `f64` (possible only
/// within a factor `α^(k·m)` of `f64::MAX`).
pub fn evaluate_optimal(m: u32, k: u32, f: u32, horizon: f64) -> Result<EvalReport, CoreError> {
    evaluate_optimal_cached(&NoCache, m, k, f, horizon)
}

/// [`evaluate_optimal`] with an explicit compile cache: the fleet's
/// compiled artifact is fetched through `cache` (keyed by its `f`-free
/// [`FleetKey`]), so repeated evaluations over shared geometry — an
/// η-sweep at fixed `k`, a service answering many `f`s, a verdict
/// following an evaluation — compile once.
///
/// The report is bit-identical to [`evaluate_optimal`]'s for every
/// `(m, k, f, horizon)` regardless of the cache's hit pattern: the
/// artifact holds exactly the pieces a fresh compilation produces.
///
/// # Errors
///
/// As [`evaluate_optimal`]; build errors propagate uncached.
pub fn evaluate_optimal_cached<C: CompileCache>(
    cache: &C,
    m: u32,
    k: u32,
    f: u32,
    horizon: f64,
) -> Result<EvalReport, CoreError> {
    // the fleet prefix must extend past the horizon so every target in
    // range lies strictly inside covered territory; validate *before*
    // the padding multiplications can turn a finite horizon into inf
    // (4x for the fleet, a further 2x inside the zone-partition tours)
    if !(horizon.is_finite() && horizon <= f64::MAX / 8.0) {
        return Err(CoreError::HorizonOverflow { horizon });
    }
    let padded = horizon * 4.0;
    let instance = RayInstance::new(m, k, f)?;
    if instance.regime() == Regime::Trivial {
        // the zone-partition tours depend only on (m, k, cap): every
        // trivial-regime f shares one artifact
        let key = FleetKey::Zone {
            m,
            k,
            cap: CanonF64::new(padded)?,
        };
        let fleet = cache.get_or_compile(key, &mut || {
            let tours = ZonePartition::new(m, k, f)?.fleet_tours(padded)?;
            let mut builder = FleetBuilder::new(m as usize, padded)?;
            for tour in &tours {
                builder.push_tour(tour)?;
            }
            Ok(builder.finish())
        })?;
        return RayEvaluator::new(m as usize, f, 1.0, horizon)?.evaluate_compiled(&fleet);
    }
    // searchable — or impossible, which the strategy constructor rejects
    let strategy = CyclicExponential::optimal(m, k, f)?;
    let evaluator = RayEvaluator::new(m as usize, f, 1.0, horizon)?;
    let key = FleetKey::Cyclic {
        m,
        k,
        alpha: CanonF64::new(strategy.alpha())?,
        cap: CanonF64::new(horizon)?,
    };
    let fleet = cache.get_or_compile(key, &mut || {
        // one bounded tour prefix at a time: peak memory stays
        // independent of the post-horizon padding tail
        let mut builder = FleetBuilder::new(m as usize, horizon)?;
        for r in 0..k as usize {
            builder.push_log_tour(&strategy.log_tour_prefix(RobotId(r), horizon)?)?;
        }
        Ok(builder.finish())
    })?;
    evaluator.evaluate_compiled(&fleet)
}

fn check_range(lo: f64, hi: f64) -> Result<(), CoreError> {
    if !(lo.is_finite() && hi.is_finite() && 1.0 <= lo && lo < hi) {
        return Err(CoreError::invalid(format!(
            "evaluation range must satisfy 1 <= lo < hi, got [{lo}, {hi}]"
        )));
    }
    Ok(())
}

/// Mutable state threaded through the per-domain sup computations: the
/// running worst target, the first uncovered witness, and the breakpoint
/// count.
#[derive(Debug, Default)]
struct SupAccum {
    best: Option<WorstTarget>,
    uncovered: Option<WorstTarget>,
    examined: usize,
}

impl SupAccum {
    /// Finalizes the accumulated state into an [`EvalReport`].
    fn into_report(self) -> EvalReport {
        EvalReport {
            ratio: match (&self.uncovered, &self.best) {
                (Some(_), _) => f64::INFINITY,
                (None, Some(w)) => w.detection_limit / w.x,
                (None, None) => f64::INFINITY,
            },
            worst: self.best,
            uncovered: self.uncovered,
            num_breakpoints: self.examined,
        }
    }
}

/// One ray's event sweep, prepared once: everything the exact sup needs
/// that depends neither on the fault budget `f` nor on the evaluation
/// range.
///
/// A piece `(lo, hi, c)` is active at a probe `x` iff `lo < x ≤ hi`, so
/// it activates at `lo` and deactivates at `hi` (a straddling `hi = ∞`
/// never does). The sweep stores those events sorted by position, each
/// already carrying its constant's rank among the ray's distinct
/// constants (deduplicated by bit pattern, in `total_cmp` order), so an
/// evaluation never sorts, dedups or binary-searches a constant:
///
/// * `bounds` — the distinct finite event positions, ascending. These
///   are exactly the ray's piece boundaries, so they double as the
///   boundary candidates (and as the Monte-Carlo adversarial grid);
/// * `offsets` — the events at `bounds[j]` are
///   `codes[offsets[j]..offsets[j + 1]]`;
/// * `codes` — `rank << 1`, with the low bit set on a deactivation;
/// * `constants` — the distinct constants, ascending: rank → value.
///
/// [`RaySweep::sup`] is then one left-to-right pass over the events,
/// keeping the `(f+1)`-st smallest active constant with a rank pointer
/// over per-rank counts. Each robot's pieces tile `(0, reach]` with
/// nondecreasing constants, so once every robot is active an event
/// either swaps a robot's constant for a larger one or drops the robot:
/// the order statistic never falls, the pointer only climbs, and a pass
/// costs O(events + constants).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RaySweep {
    bounds: Vec<f64>,
    offsets: Vec<u32>,
    codes: Vec<u32>,
    constants: Vec<f64>,
}

impl RaySweep {
    /// Prepares the sweep of one ray from its pieces, across all robots.
    ///
    /// Any order is correct. The intended input is the robots' piece
    /// lists concatenated: within one robot's list both the constants
    /// and the positions already ascend (its pieces tile `(0, reach]`
    /// left to right, and each constant is twice a growing turning-mass
    /// prefix), so the two stable sorts below merge presorted runs, and
    /// almost every deactivation shares its position with the next
    /// piece's activation, so it rides on that entry instead of being
    /// sorted on its own.
    pub(crate) fn from_pieces(pieces: impl IntoIterator<Item = FirstVisitPiece>) -> RaySweep {
        /// Entry kinds, in the low two bits beside the piece index.
        const ACTIVATE: u32 = 0;
        const ACTIVATE_AND_END_PREVIOUS: u32 = 1;
        const DEACTIVATE: u32 = 2;

        let pieces: Vec<FirstVisitPiece> = pieces.into_iter().collect();
        assert!(
            pieces.len() < 1 << 30,
            "a ray sweep indexes fewer than 2^30 pieces"
        );
        // rank the constants in one walk over them in sorted order
        let mut by_constant: Vec<(f64, u32)> = pieces
            .iter()
            .enumerate()
            .map(|(i, p)| (p.c, i as u32))
            .collect();
        by_constant.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut constants: Vec<f64> = Vec::new();
        let mut rank = vec![0u32; pieces.len()];
        for &(c, i) in &by_constant {
            if constants
                .last()
                .is_none_or(|last| last.to_bits() != c.to_bits())
            {
                constants.push(c);
            }
            rank[i as usize] = (constants.len() - 1) as u32;
        }
        drop(by_constant);

        let mut entries: Vec<(f64, u32)> = Vec::with_capacity(pieces.len() + pieces.len() / 4);
        for (i, p) in pieces.iter().enumerate() {
            let ends_previous = i > 0 && pieces[i - 1].hi == p.lo;
            let kind = if ends_previous {
                ACTIVATE_AND_END_PREVIOUS
            } else {
                ACTIVATE
            };
            entries.push((p.lo, (i as u32) << 2 | kind));
            let ended_by_next = pieces.get(i + 1).is_some_and(|next| next.lo == p.hi);
            if p.hi.is_finite() && !ended_by_next {
                entries.push((p.hi, (i as u32) << 2 | DEACTIVATE));
            }
        }
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut bounds: Vec<f64> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(2 * pieces.len());
        for &(x, entry) in &entries {
            if bounds.last() != Some(&x) {
                bounds.push(x);
                offsets.push(codes.len() as u32);
            }
            let i = (entry >> 2) as usize;
            match entry & 3 {
                ACTIVATE => codes.push(rank[i] << 1),
                ACTIVATE_AND_END_PREVIOUS => {
                    codes.push(rank[i] << 1);
                    codes.push(rank[i - 1] << 1 | 1);
                }
                _ => codes.push(rank[i] << 1 | 1),
            }
        }
        offsets.push(codes.len() as u32);
        bounds.shrink_to_fit();
        offsets.shrink_to_fit();
        codes.shrink_to_fit();
        constants.shrink_to_fit();
        RaySweep {
            bounds,
            offsets,
            codes,
            constants,
        }
    }

    /// The piece boundaries strictly inside `(lo, hi)`, ascending and
    /// distinct: two binary searches into the prepared positions.
    pub(crate) fn boundaries(&self, lo: f64, hi: f64) -> &[f64] {
        let first = self.bounds.partition_point(|&b| b <= lo);
        let end = self.bounds.partition_point(|&b| b < hi);
        &self.bounds[first..end.max(first)]
    }

    /// Bytes this sweep holds on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bounds.capacity() * size_of::<f64>()
            + self.offsets.capacity() * size_of::<u32>()
            + self.codes.capacity() * size_of::<u32>()
            + self.constants.capacity() * size_of::<f64>()
    }

    /// The exact sup of the `(f+1)`-st first-visit time ratio over
    /// targets in `[lo, hi]` on this ray, folded into `acc`.
    ///
    /// Semantically identical to probing every boundary's right-limit
    /// with a per-robot lookup and selecting the `(f+1)`-st smallest
    /// active constant: the boundary candidates are `lo` plus the piece
    /// boundaries inside `(lo, hi)`, each probed at the midpoint to its
    /// successor, and `counts[r]` holds how many active pieces have
    /// constant rank `r` at that probe. Since a robot's pieces on a ray
    /// tile `(0, reach]` disjointly, the active piece count at a probe
    /// equals the number of robots whose plan covers it, so coverage
    /// and selection agree exactly with the per-robot scan, bit for bit.
    ///
    /// The selection is a pointer `rank` with `below` active pieces
    /// ranked under it: at each probe it steps down while `below`
    /// already reaches `f+1`, then up while `below + counts[rank]` falls
    /// short, landing on the smallest rank whose prefix count reaches
    /// `f+1`. Any input order is correct; on tiled input (every
    /// constructor in this crate) the order statistic is nondecreasing
    /// after the first probe, the downward step never runs, and the
    /// pointer's total travel is at most the number of distinct
    /// constants. Without that step an untiled input would leave a
    /// stale, too-large constant, which an earlier probe's ratio
    /// dominates except at rounding edges, so it stays for exactness.
    fn sup(&self, f: u32, lo: f64, hi: f64, ray: usize, acc: &mut SupAccum) {
        let needed = f as usize + 1;
        let inner = self.boundaries(lo, hi);
        acc.examined += 1 + inner.len();
        let mut counts = vec![0u32; self.constants.len()];
        let mut rank = 0usize;
        let mut below = 0usize;
        let mut active = 0usize;
        let mut next_event = 0usize;
        let mut b = lo;
        for i in 0..=inner.len() {
            let next = inner.get(i).copied().unwrap_or(hi);
            // an interior probe point of (b, next): no boundary lies
            // inside, so every robot's constant is uniform on the whole
            // open segment
            let probe = 0.5 * (b + next);
            // probes strictly increase, so the event pointer only advances
            while next_event < self.bounds.len() && self.bounds[next_event] < probe {
                let at = self.offsets[next_event] as usize..self.offsets[next_event + 1] as usize;
                for &code in &self.codes[at] {
                    let r = (code >> 1) as usize;
                    if code & 1 == 0 {
                        counts[r] += 1;
                        active += 1;
                        below += usize::from(r < rank);
                    } else {
                        counts[r] -= 1;
                        active -= 1;
                        below -= usize::from(r < rank);
                    }
                }
                next_event += 1;
            }
            if active < needed {
                if acc.uncovered.is_none() {
                    acc.uncovered = Some(WorstTarget {
                        ray,
                        x: probe,
                        detection_limit: f64::INFINITY,
                    });
                }
            } else {
                // move the pointer to the (f+1)-st smallest active constant
                while below >= needed {
                    rank -= 1;
                    below -= counts[rank] as usize;
                }
                while below + (counts[rank] as usize) < needed {
                    below += counts[rank] as usize;
                    rank += 1;
                }
                let c = self.constants[rank];
                let candidate = WorstTarget {
                    ray,
                    x: b,
                    detection_limit: c + b,
                };
                let ratio = candidate.detection_limit / candidate.x;
                if acc.best.is_none_or(|w| ratio > w.detection_limit / w.x) {
                    acc.best = Some(candidate);
                }
            }
            b = next;
        }
    }
}

/// Exact evaluator for line fleets.
///
/// # Example
///
/// ```
/// use raysearch_core::LineEvaluator;
/// use raysearch_strategies::{DoublingCowPath, LineStrategy};
///
/// let cow = DoublingCowPath::classic();
/// let fleet = cow.fleet_itineraries(1e5)?;
/// let report = LineEvaluator::new(0, 1.0, 1e4)?.evaluate(&fleet)?;
/// assert!((report.ratio - 9.0).abs() < 1e-3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineEvaluator {
    f: u32,
    lo: f64,
    hi: f64,
}

impl LineEvaluator {
    /// Creates an evaluator for `f` crash faults over targets
    /// `lo ≤ |x| ≤ hi`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] unless `1 ≤ lo < hi`, both
    /// finite.
    pub fn new(f: u32, lo: f64, hi: f64) -> Result<Self, CoreError> {
        check_range(lo, hi)?;
        Ok(LineEvaluator { f, lo, hi })
    }

    /// Evaluates the exact worst-case ratio of a fleet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet has fewer than
    /// `f+1` robots.
    pub fn evaluate(&self, fleet: &[LineItinerary]) -> Result<EvalReport, CoreError> {
        if fleet.len() <= self.f as usize {
            return Err(CoreError::invalid(format!(
                "need more than f = {} robots, got {}",
                self.f,
                fleet.len()
            )));
        }
        let mut acc = SupAccum::default();
        for (ray, side) in [(0, Direction::Positive), (1, Direction::Negative)] {
            RaySweep::from_pieces(fleet.iter().flat_map(|it| line_pieces(it, side)))
                .sup(self.f, self.lo, self.hi, ray, &mut acc);
        }
        Ok(acc.into_report())
    }

    /// Exact adversarial detection time of a single signed target: the
    /// `(f+1)`-st smallest first-visit time over the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on a non-finite or sub-unit
    /// `|x|`.
    pub fn detection_time(
        &self,
        fleet: &[LineItinerary],
        x: f64,
    ) -> Result<Option<f64>, CoreError> {
        if !(x.is_finite() && x.abs() >= 1.0) {
            return Err(CoreError::invalid(format!(
                "target must satisfy |x| >= 1, got {x}"
            )));
        }
        let side = if x > 0.0 {
            Direction::Positive
        } else {
            Direction::Negative
        };
        let x = x.abs();
        let times = fleet
            .iter()
            .filter_map(|it| {
                let pieces = line_pieces(it, side);
                let p = pieces.iter().find(|p| p.lo < x && x <= p.hi)?;
                Some(p.c + x)
            })
            .collect();
        Ok(order_statistic(times, self.f))
    }
}

/// Exact evaluator for `m`-ray fleets.
///
/// # Example
///
/// ```
/// use raysearch_core::RayEvaluator;
/// use raysearch_strategies::{CyclicExponential, RayStrategy};
///
/// let strat = CyclicExponential::optimal(3, 1, 0)?;
/// let fleet = strat.fleet_tours(1e5)?;
/// let report = RayEvaluator::new(3, 0, 1.0, 1e4)?.evaluate(&fleet)?;
/// // single robot on 3 rays: the classic 14.5
/// assert!((report.ratio - 14.5).abs() < 1e-3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayEvaluator {
    m: usize,
    f: u32,
    lo: f64,
    hi: f64,
}

impl RayEvaluator {
    /// Creates an evaluator for `m` rays and `f` crash faults over targets
    /// at distance `lo ≤ x ≤ hi`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] unless `m ≥ 1` and
    /// `1 ≤ lo < hi`.
    pub fn new(m: usize, f: u32, lo: f64, hi: f64) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::invalid("need at least one ray"));
        }
        check_range(lo, hi)?;
        Ok(RayEvaluator { m, f, lo, hi })
    }

    /// Evaluates the exact worst-case ratio of a fleet of tours.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet has fewer than
    /// `f+1` robots or a tour is for the wrong number of rays.
    pub fn evaluate(&self, fleet: &[TourItinerary]) -> Result<EvalReport, CoreError> {
        // linear tours compile untruncated, so the evaluation range is
        // a valid cap
        let mut builder = FleetBuilder::new(self.m, self.hi)?;
        for tour in fleet {
            builder.push_tour(tour)?;
        }
        self.evaluate_compiled(&builder.finish())
    }

    /// Evaluates the exact worst-case ratio of a fleet of *log-domain*
    /// tours — the overflow-proof twin of [`RayEvaluator::evaluate`].
    ///
    /// Wherever the corresponding linear fleet exists (no turn point
    /// overflows `f64`), the report is bit-identical to evaluating it:
    /// in-range pieces are extracted to the same linear values in the
    /// same order, and pieces past the evaluation range — the only ones
    /// a log tour may carry that a linear tour cannot — never influence
    /// the supremum.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet has fewer than
    /// `f+1` robots, a tour is for the wrong number of rays, or a
    /// first-visit constant within range overflows `f64` (see
    /// [`compile_first_visit_pieces`]).
    ///
    /// # Example
    ///
    /// ```
    /// use raysearch_core::RayEvaluator;
    /// use raysearch_strategies::CyclicExponential;
    ///
    /// // k = 199 on the line: the linear fleet overflows, the log fleet
    /// // evaluates to the closed form
    /// let strat = CyclicExponential::optimal(2, 199, 99)?;
    /// let fleet = strat.fleet_log_tours(4e5)?;
    /// let report = RayEvaluator::new(2, 99, 1.0, 1e5)?.evaluate_log(&fleet)?;
    /// let theory = raysearch_bounds::a_rays(2, 199, 99)?;
    /// assert!((report.ratio - theory).abs() / theory < 1e-6);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn evaluate_log(&self, fleet: &[LogTourItinerary]) -> Result<EvalReport, CoreError> {
        let mut builder = FleetBuilder::new(self.m, self.hi)?;
        for tour in fleet {
            builder.push_log_tour(tour)?;
        }
        self.evaluate_compiled(&builder.finish())
    }

    /// Evaluates the exact worst-case ratio of a [`CompiledFleet`]
    /// artifact — the compile-once/evaluate-many path every ray
    /// evaluator ends in. Nothing is sorted here: each ray's events,
    /// constant ranks and boundaries were prepared when the artifact
    /// was built, so this is one linear pass per ray over the events
    /// and boundaries in range, for any `f`: a rank pointer that only
    /// climbs on the artifact's tiled pieces tracks the `(f+1)`-st
    /// smallest active constant in O(events + constants).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the fleet has fewer than
    /// `f+1` robots, is compiled for the wrong number of rays, or its
    /// compilation cap falls short of the evaluation range (its pieces
    /// could silently miss coverage past the cap).
    pub fn evaluate_compiled(&self, fleet: &CompiledFleet) -> Result<EvalReport, CoreError> {
        if fleet.num_robots() <= self.f as usize {
            return Err(CoreError::invalid(format!(
                "need more than f = {} robots, got {}",
                self.f,
                fleet.num_robots()
            )));
        }
        if fleet.num_rays() != self.m {
            return Err(CoreError::invalid(format!(
                "fleet is compiled for {} rays, evaluator expects {}",
                fleet.num_rays(),
                self.m
            )));
        }
        if fleet.cap() < self.hi {
            return Err(CoreError::invalid(format!(
                "fleet is compiled for targets up to {:e}, evaluator range ends at {:e}",
                fleet.cap(),
                self.hi
            )));
        }
        let mut acc = SupAccum::default();
        for ray in 0..self.m {
            fleet
                .sweep(ray)
                .sup(self.f, self.lo, self.hi, ray, &mut acc);
        }
        Ok(acc.into_report())
    }

    /// Exact adversarial detection time of a target on a given ray: the
    /// fleet compiled through [`FleetBuilder::push_tour`], then one
    /// [`CompiledFleet::first_visit`] lookup per robot.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] on an out-of-range ray,
    /// `x < 1`, or a tour for the wrong number of rays.
    pub fn detection_time(
        &self,
        fleet: &[TourItinerary],
        ray: usize,
        x: f64,
    ) -> Result<Option<f64>, CoreError> {
        if ray >= self.m {
            return Err(CoreError::invalid(format!(
                "ray {ray} out of range for m = {}",
                self.m
            )));
        }
        if !(x.is_finite() && x >= 1.0) {
            return Err(CoreError::invalid(format!(
                "target must satisfy x >= 1, got {x}"
            )));
        }
        let mut builder = FleetBuilder::new(self.m, self.hi)?;
        for tour in fleet {
            builder.push_tour(tour)?;
        }
        let compiled = builder.finish();
        let times = (0..compiled.num_robots())
            .filter_map(|robot| compiled.first_visit(robot, ray, x))
            .collect();
        Ok(order_statistic(times, self.f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysearch_strategies::{
        CyclicExponential, DoublingCowPath, LineStrategy, RayStrategy, ReplicatedDoubling,
        ZonePartition,
    };

    #[test]
    fn cow_path_evaluates_to_nine() {
        let fleet = DoublingCowPath::classic().fleet_itineraries(1e6).unwrap();
        let r = LineEvaluator::new(0, 1.0, 1e5)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        assert!(r.is_covered());
        // the finite-horizon sup is 9 - 2/b at the largest breakpoint b;
        // it approaches 9 from below as the horizon grows
        assert!(r.ratio <= 9.0 + 1e-12);
        assert!((r.ratio - 9.0).abs() < 1e-4, "ratio {} != 9", r.ratio);
    }

    #[test]
    fn cow_path_other_bases_are_worse() {
        for base in [1.5, 3.0] {
            let cow = DoublingCowPath::new(base).unwrap();
            let fleet = cow.fleet_itineraries(1e6).unwrap();
            let r = LineEvaluator::new(0, 1.0, 1e5)
                .unwrap()
                .evaluate(&fleet)
                .unwrap();
            assert!(
                (r.ratio - cow.theoretical_ratio()).abs() < 1e-3,
                "base {base}: measured {} vs theory {}",
                r.ratio,
                cow.theoretical_ratio()
            );
        }
    }

    #[test]
    fn optimal_line_strategy_matches_theorem1() {
        for (k, f) in [(1u32, 0u32), (3, 1), (5, 2), (5, 3), (7, 3)] {
            let strat = CyclicExponential::optimal(2, k, f)
                .unwrap()
                .to_line()
                .unwrap();
            let fleet = strat.fleet_itineraries(1e6).unwrap();
            let r = LineEvaluator::new(f, 1.0, 1e4)
                .unwrap()
                .evaluate(&fleet)
                .unwrap();
            let theory = raysearch_bounds::a_line(k, f).unwrap();
            assert!(
                r.is_covered(),
                "(k={k}, f={f}) uncovered: {:?}",
                r.uncovered
            );
            assert!(r.ratio <= theory + 1e-9, "(k={k}, f={f}) exceeds theory");
            assert!(
                (r.ratio - theory).abs() < 1e-3,
                "(k={k}, f={f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn optimal_ray_strategy_matches_theorem6() {
        for (m, k, f) in [
            (3u32, 1u32, 0u32),
            (3, 2, 0),
            (4, 3, 0),
            (3, 5, 1),
            (5, 4, 0),
        ] {
            let strat = CyclicExponential::optimal(m, k, f).unwrap();
            let fleet = strat.fleet_tours(1e6).unwrap();
            let r = RayEvaluator::new(m as usize, f, 1.0, 1e4)
                .unwrap()
                .evaluate(&fleet)
                .unwrap();
            let theory = raysearch_bounds::a_rays(m, k, f).unwrap();
            assert!(r.is_covered(), "(m={m},k={k},f={f}) uncovered");
            assert!(
                r.ratio <= theory + 1e-9,
                "(m={m},k={k},f={f}) exceeds theory"
            );
            assert!(
                (r.ratio - theory).abs() < 1e-3,
                "(m={m},k={k},f={f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn replicated_doubling_is_nine_for_any_f() {
        let s = ReplicatedDoubling::new(4).unwrap();
        let fleet = s.fleet_itineraries(1e6).unwrap();
        for f in 0..4u32 {
            let r = LineEvaluator::new(f, 1.0, 1e4)
                .unwrap()
                .evaluate(&fleet)
                .unwrap();
            if f < 4 {
                assert!((r.ratio - 9.0).abs() < 1e-3, "f={f}: {}", r.ratio);
            }
        }
    }

    #[test]
    fn zone_partition_saturated_is_ratio_one() {
        let z = ZonePartition::new(2, 4, 1).unwrap();
        let fleet = z.fleet_tours(1e4).unwrap();
        let r = RayEvaluator::new(2, 1, 1.0, 1e3)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        assert!(r.is_covered());
        assert!((r.ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zone_partition_undersized_is_uncovered() {
        let z = ZonePartition::new(3, 4, 1).unwrap();
        let fleet = z.fleet_tours(1e4).unwrap();
        let r = RayEvaluator::new(3, 1, 1.0, 1e3)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        assert!(!r.is_covered());
        assert!(r.ratio.is_infinite());
        // rays 1 and 2 each have a single robot; the first
        // undercovered ray found is ray 1
        assert_ne!(r.uncovered.unwrap().ray, 0);
    }

    #[test]
    fn detection_time_matches_visit_engine_ground_truth() {
        use raysearch_faults::CrashAdversary;
        use raysearch_sim::{LinePoint, LineTrajectory, VisitEngine};

        let strat = CyclicExponential::optimal(2, 3, 1)
            .unwrap()
            .to_line()
            .unwrap();
        let fleet = strat.fleet_itineraries(1e4).unwrap();
        let evaluator = LineEvaluator::new(1, 1.0, 1e3).unwrap();
        let engine = VisitEngine::new(
            fleet
                .iter()
                .map(LineTrajectory::compile)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let adv = CrashAdversary::new(1);
        for &x in &[1.0, -2.5, 7.3, -41.0, 333.0] {
            let fast = evaluator.detection_time(&fleet, x).unwrap();
            let truth = adv
                .detection_time(&engine.schedule(LinePoint::new(x).unwrap()))
                .map(|t| t.as_f64());
            match (fast, truth) {
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() < 1e-9, "x={x}: {a} vs {b}");
                }
                (a, b) => panic!("x={x}: symbolic {a:?} vs engine {b:?}"),
            }
        }
    }

    #[test]
    fn ray_detection_time_matches_a_per_robot_tour_walk() {
        let fleet = CyclicExponential::optimal(3, 5, 1)
            .unwrap()
            .fleet_tours(1e4)
            .unwrap();
        // a robot first reaches x on `ray` on its first excursion there
        // that turns at or past x, after twice the turning mass before it
        let first_visit = |tour: &TourItinerary, ray: usize, x: f64| {
            let mut elapsed = 0.0f64;
            for e in tour.excursions() {
                if e.ray.index() == ray && e.turn >= x {
                    return Some(elapsed + x);
                }
                elapsed += 2.0 * e.turn;
            }
            None
        };
        for f in 0..5u32 {
            let evaluator = RayEvaluator::new(3, f, 1.0, 1e3).unwrap();
            for ray in 0..3 {
                for &x in &[1.0, 2.5, 7.3, 41.0, 333.0, 5e3] {
                    let times = fleet.iter().filter_map(|t| first_visit(t, ray, x));
                    let truth = order_statistic(times.collect(), f);
                    let fast = evaluator.detection_time(&fleet, ray, x).unwrap();
                    assert_eq!(
                        fast.map(f64::to_bits),
                        truth.map(f64::to_bits),
                        "f={f}, ray {ray}, x={x}"
                    );
                }
            }
        }
        let e = RayEvaluator::new(3, 1, 1.0, 1e3).unwrap();
        assert!(e.detection_time(&fleet, 3, 5.0).is_err());
        assert!(e.detection_time(&fleet, 0, 0.5).is_err());
    }

    /// The sweep's answer by brute force: every probe's active
    /// constants collected and sorted afresh.
    fn brute_force_sup(pieces: &[FirstVisitPiece], f: u32, lo: f64, hi: f64) -> EvalReport {
        let mut inner: Vec<f64> = pieces
            .iter()
            .flat_map(|p| [p.lo, p.hi])
            .filter(|&b| lo < b && b < hi)
            .collect();
        inner.sort_by(f64::total_cmp);
        inner.dedup();
        let mut acc = SupAccum {
            examined: 1 + inner.len(),
            ..SupAccum::default()
        };
        let starts = std::iter::once(lo).chain(inner.iter().copied());
        let ends = inner.iter().copied().chain(std::iter::once(hi));
        for (b, next) in starts.zip(ends) {
            let probe = 0.5 * (b + next);
            let active = pieces.iter().filter(|p| p.lo < probe && probe <= p.hi);
            match order_statistic(active.map(|p| p.c).collect(), f) {
                None => {
                    acc.uncovered.get_or_insert(WorstTarget {
                        ray: 0,
                        x: probe,
                        detection_limit: f64::INFINITY,
                    });
                }
                Some(c) => {
                    let ratio = (c + b) / b;
                    if acc.best.is_none_or(|w| ratio > w.detection_limit / w.x) {
                        acc.best = Some(WorstTarget {
                            ray: 0,
                            x: b,
                            detection_limit: c + b,
                        });
                    }
                }
            }
        }
        acc.into_report()
    }

    #[test]
    fn sweep_matches_brute_force_on_untiled_pieces() {
        let piece = |lo: f64, hi: f64, c: f64| FirstVisitPiece { lo, hi, c };
        // robots as piece lists that break the tiling of (0, reach] with
        // nondecreasing constants, the input that makes the pointer step down
        let mut cases: Vec<Vec<Vec<FirstVisitPiece>>> = vec![
            // a late activation below the current order statistic
            vec![
                vec![piece(0.0, f64::INFINITY, 10.0)],
                vec![piece(0.0, f64::INFINITY, 20.0)],
                vec![piece(5.0, f64::INFINITY, 1.0)],
            ],
            // pure activations at positive positions, descending constants
            (1..=6)
                .map(|i| {
                    vec![piece(
                        f64::from(i * 3),
                        f64::INFINITY,
                        f64::from(60 - 9 * i),
                    )]
                })
                .collect(),
            // gaps within a robot
            vec![
                vec![piece(0.0, 4.0, 2.0), piece(9.0, 20.0, 3.0)],
                vec![piece(2.0, 6.0, 8.0), piece(12.0, 30.0, 1.0)],
                vec![piece(1.0, 25.0, 5.0)],
            ],
            // constants that fall within a robot's tiling
            vec![
                vec![
                    piece(0.0, 3.0, 30.0),
                    piece(3.0, 11.0, 4.0),
                    piece(11.0, 40.0, 0.5),
                ],
                vec![piece(0.0, 8.0, 6.0), piece(8.0, 40.0, 2.0)],
                vec![piece(0.0, 40.0, 7.0)],
            ],
            // a pointer left above the order statistic repeats an earlier
            // probe's constant at a larger x, whose ratio the earlier one
            // dominates, except at a rounding edge like this one: with f = 0
            // a stale 2^-53 would turn the exact ratio 1 at 1 + 2^-52 into
            // 1 + 2^-52
            vec![
                vec![piece(0.0, f64::INFINITY, f64::EPSILON / 2.0)],
                vec![piece(1.0 + f64::EPSILON, f64::INFINITY, 0.0)],
            ],
        ];
        // seeded random robots on a coarse grid, so positions and
        // constants collide, with all of the above mixed in
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..40 {
            let robots = 1 + next(6);
            let fleet = (0..robots)
                .map(|_| {
                    let mut at = 0.5 * next(8) as f64;
                    (0..1 + next(4))
                        .map(|_| {
                            let lo = at;
                            at = lo + 0.5 * (1 + next(12)) as f64;
                            let hi = if next(5) == 0 { f64::INFINITY } else { at };
                            at += 0.5 * next(3) as f64;
                            piece(lo, hi, next(10) as f64)
                        })
                        .collect()
                })
                .collect();
            cases.push(fleet);
        }
        for (i, robots) in cases.iter().enumerate() {
            let mut order: Vec<&Vec<FirstVisitPiece>> = robots.iter().collect();
            for shuffle in [false, true] {
                if shuffle {
                    // a fixed derangement-ish shuffle of the robot order
                    let half = order.len() / 2;
                    order.reverse();
                    order.rotate_left(half);
                }
                let pieces: Vec<FirstVisitPiece> =
                    order.iter().flat_map(|r| r.iter().copied()).collect();
                let sweep = RaySweep::from_pieces(pieces.iter().copied());
                for f in 0..4u32 {
                    for (lo, hi) in [(1.0, 2.0), (1.0, 9.5), (1.0, 45.0), (2.25, 17.0)] {
                        let mut acc = SupAccum::default();
                        sweep.sup(f, lo, hi, 0, &mut acc);
                        let got = acc.into_report();
                        let want = brute_force_sup(&pieces, f, lo, hi);
                        let ctx = format!("case {i}, shuffled {shuffle}, f={f}, [{lo}, {hi}]");
                        assert_eq!(got.ratio.to_bits(), want.ratio.to_bits(), "{ctx}");
                        assert_eq!(got, want, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn evaluator_validation() {
        assert!(LineEvaluator::new(0, 0.5, 10.0).is_err());
        assert!(LineEvaluator::new(0, 10.0, 10.0).is_err());
        assert!(RayEvaluator::new(0, 0, 1.0, 10.0).is_err());
        let e = LineEvaluator::new(2, 1.0, 10.0).unwrap();
        // fleet smaller than f+1
        let fleet = DoublingCowPath::classic().fleet_itineraries(100.0).unwrap();
        assert!(e.evaluate(&fleet).is_err());
        assert!(e.detection_time(&fleet, 0.5).is_err());
    }

    #[test]
    fn ray_evaluator_rejects_mismatched_tours() {
        let strat = CyclicExponential::optimal(3, 2, 0).unwrap();
        let fleet = strat.fleet_tours(100.0).unwrap();
        let e = RayEvaluator::new(4, 0, 1.0, 10.0).unwrap();
        assert!(e.evaluate(&fleet).is_err());
    }

    #[test]
    fn evaluate_log_is_bit_identical_to_evaluate() {
        for (m, k, f) in [(2u32, 5u32, 2u32), (3, 5, 1), (5, 4, 0)] {
            let strat = CyclicExponential::optimal(m, k, f).unwrap();
            let linear = strat.fleet_tours(4e4).unwrap();
            let log = strat.fleet_log_tours(4e4).unwrap();
            let e = RayEvaluator::new(m as usize, f, 1.0, 1e4).unwrap();
            let a = e.evaluate(&linear).unwrap();
            let b = e.evaluate_log(&log).unwrap();
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "({m},{k},{f})");
            assert_eq!(a.num_breakpoints, b.num_breakpoints);
            assert_eq!(a.worst, b.worst);
            assert_eq!(a.uncovered, b.uncovered);
        }
    }

    #[test]
    fn evaluate_log_validates_like_evaluate() {
        let strat = CyclicExponential::optimal(3, 2, 0).unwrap();
        let fleet = strat.fleet_log_tours(100.0).unwrap();
        // wrong ray count
        assert!(RayEvaluator::new(4, 0, 1.0, 10.0)
            .unwrap()
            .evaluate_log(&fleet)
            .is_err());
        // fleet smaller than f+1
        assert!(RayEvaluator::new(3, 2, 1.0, 10.0)
            .unwrap()
            .evaluate_log(&fleet)
            .is_err());
    }

    #[test]
    fn evaluate_compiled_is_bit_identical_to_evaluate_log() {
        use crate::compiled::FleetBuilder;

        for (m, k, f) in [(2u32, 5u32, 2u32), (3, 5, 1), (2, 149, 74)] {
            let strat = CyclicExponential::optimal(m, k, f).unwrap();
            let e = RayEvaluator::new(m as usize, f, 1.0, 1e4).unwrap();
            let log = strat.fleet_log_tours(4e4).unwrap();
            let a = e.evaluate_log(&log).unwrap();
            // the artifact path: bounded tour prefixes, arena storage
            let mut builder = FleetBuilder::new(m as usize, 1e4).unwrap();
            for r in 0..k as usize {
                builder
                    .push_log_tour(&strat.log_tour_prefix(RobotId(r), 1e4).unwrap())
                    .unwrap();
            }
            let b = e.evaluate_compiled(&builder.finish()).unwrap();
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits(), "({m},{k},{f})");
            assert_eq!(a.num_breakpoints, b.num_breakpoints);
            assert_eq!(a.worst, b.worst);
            assert_eq!(a.uncovered, b.uncovered);
        }
    }

    #[test]
    fn evaluate_compiled_validates() {
        use crate::compiled::FleetBuilder;

        let strat = CyclicExponential::optimal(3, 2, 0).unwrap();
        let mut builder = FleetBuilder::new(3, 100.0).unwrap();
        for r in 0..2usize {
            builder
                .push_log_tour(&strat.log_tour_prefix(RobotId(r), 100.0).unwrap())
                .unwrap();
        }
        let fleet = builder.finish();
        // wrong ray count
        assert!(RayEvaluator::new(4, 0, 1.0, 10.0)
            .unwrap()
            .evaluate_compiled(&fleet)
            .is_err());
        // fleet smaller than f+1
        assert!(RayEvaluator::new(3, 2, 1.0, 10.0)
            .unwrap()
            .evaluate_compiled(&fleet)
            .is_err());
        // cap short of the evaluation range
        assert!(RayEvaluator::new(3, 0, 1.0, 200.0)
            .unwrap()
            .evaluate_compiled(&fleet)
            .is_err());
        // in range: fine
        assert!(RayEvaluator::new(3, 0, 1.0, 100.0)
            .unwrap()
            .evaluate_compiled(&fleet)
            .is_ok());
    }

    #[test]
    fn evaluate_optimal_cached_is_bit_identical_across_hits_and_regimes() {
        use crate::compiled::CompileMemo;

        let memo = CompileMemo::new();
        // searchable and trivial instances, each evaluated twice: the
        // second pass is all cache hits and must not move a single bit
        for (m, k, f) in [(2u32, 5u32, 2u32), (3, 5, 1), (2, 4, 1), (2, 512, 1)] {
            let fresh = evaluate_optimal(m, k, f, 1e4).unwrap();
            let cold = evaluate_optimal_cached(&memo, m, k, f, 1e4).unwrap();
            let warm = evaluate_optimal_cached(&memo, m, k, f, 1e4).unwrap();
            for r in [&cold, &warm] {
                assert_eq!(fresh.ratio.to_bits(), r.ratio.to_bits(), "({m},{k},{f})");
                assert_eq!(fresh.num_breakpoints, r.num_breakpoints);
                assert_eq!(fresh.worst, r.worst);
                assert_eq!(fresh.uncovered, r.uncovered);
            }
        }
        let stats = memo.stats();
        assert_eq!(stats.misses, 4, "one compile per distinct geometry");
        assert_eq!(stats.hits, 4, "one hit per repeated evaluation");
    }

    #[test]
    fn trivial_regime_cells_share_one_zone_artifact_across_f() {
        use crate::compiled::CompileMemo;

        let memo = CompileMemo::new();
        // (2, 512, f) is trivial for every f ≥ 1 shown here, and the
        // zone fleet is f-free: one compile serves all three
        for f in [1u32, 3, 7] {
            let r = evaluate_optimal_cached(&memo, 2, 512, f, 1e4).unwrap();
            assert!((r.ratio - 1.0).abs() < 1e-12, "f={f}: ratio {}", r.ratio);
        }
        let stats = memo.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
    }

    #[test]
    fn evaluate_optimal_covers_the_formerly_overflowing_range() {
        // q = k + 1 fleets past the old k ≈ 139 linear-overflow wall
        for (k, f) in [(139u32, 69u32), (199, 99)] {
            let r = evaluate_optimal(2, k, f, 1e8).unwrap();
            let theory = raysearch_bounds::a_rays(2, k, f).unwrap();
            assert!(r.is_covered(), "(2,{k},{f}) uncovered");
            assert!(r.ratio.is_finite(), "(2,{k},{f}) ratio not finite");
            assert!(
                (r.ratio - theory).abs() / theory < 1e-6,
                "(2,{k},{f}): measured {} vs theory {theory}",
                r.ratio
            );
        }
    }

    #[test]
    fn evaluate_optimal_trivial_regime_is_ratio_one() {
        for (m, k, f) in [(2u32, 4u32, 1u32), (2, 512, 1), (3, 7, 1)] {
            let r = evaluate_optimal(m, k, f, 1e4).unwrap();
            assert!(r.is_covered(), "({m},{k},{f}) uncovered");
            assert!(
                (r.ratio - 1.0).abs() < 1e-12,
                "({m},{k},{f}): ratio {} != 1",
                r.ratio
            );
        }
        // impossible stays an error
        assert!(evaluate_optimal(2, 3, 3, 1e4).is_err());
    }

    #[test]
    fn evaluate_optimal_rejects_unpaddable_horizons() {
        for h in [f64::MAX / 2.0, f64::INFINITY, f64::NAN] {
            match evaluate_optimal(2, 3, 1, h) {
                Err(CoreError::HorizonOverflow { horizon }) => {
                    assert_eq!(horizon.to_bits(), h.to_bits())
                }
                other => panic!("horizon {h}: expected HorizonOverflow, got {other:?}"),
            }
        }
        // the largest paddable horizon passes the overflow gate (and
        // fails later only on evaluator-range grounds, if at all)
        assert!(!matches!(
            evaluate_optimal(2, 1, 0, 1e4),
            Err(CoreError::HorizonOverflow { .. })
        ));
    }

    #[test]
    fn worst_target_is_just_past_a_turning_point() {
        let fleet = DoublingCowPath::classic().fleet_itineraries(1e6).unwrap();
        let r = LineEvaluator::new(0, 1.0, 1e5)
            .unwrap()
            .evaluate(&fleet)
            .unwrap();
        let w = r.worst.unwrap();
        // the worst target hides just past a power of two
        let log = w.x.log2();
        assert!(
            (log - log.round()).abs() < 1e-9,
            "worst x = {} not a power of 2",
            w.x
        );
    }
}
