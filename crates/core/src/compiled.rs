//! The compilation layer: fleet geometry compiled once, evaluated many
//! times.
//!
//! Every consumer of a fleet — the exact evaluator, the tightness
//! verdict, the Monte-Carlo `VisitTable`, every campaign grid cell —
//! needs the same derived structure: the per-`(robot, ray)` first-visit
//! pieces of [`compile_first_visit_pieces`]. That structure depends
//! only on the fleet's *geometry* (which strategy, how many rays and
//! robots, the geometric base, the compilation cap), not on the fault
//! budget `f` being evaluated against it; an η-sweep over `f` at fixed
//! geometry recompiles nothing.
//!
//! This module makes the compiled geometry a first-class artifact:
//!
//! * [`CompiledFleet`] — the arena-backed artifact: one contiguous
//!   structure-of-arrays piece store (`starts`/`ends`/`constants`) with
//!   `(robot, ray)` span indices, instead of `k·m` little
//!   `Vec<FirstVisitPiece>`s, plus each ray's prepared event sweep
//!   (sorted events with precomputed constant ranks, distinct
//!   constants, distinct boundaries), so a warm evaluation is one
//!   linear pass per ray with no sorting: a rank pointer over per-rank
//!   counts tracks the `(f+1)`-st smallest active constant, and since
//!   the tiled pieces' order statistic never falls after the first
//!   probe, it only climbs, in O(events + constants);
//! * [`FleetBuilder`] — streaming construction, one tour at a time,
//!   through the *same* single-pass compilation the evaluator always
//!   used (bit-for-bit identical pieces); [`FleetBuilder::finish`]
//!   prepares the sweeps;
//! * [`FleetKey`] — the memoization key `(strategy, m, k, α-or-η,
//!   cap)`, deliberately `f`-free;
//! * [`CompileCache`] / [`NoCache`] / [`CompileMemo`] — the cache
//!   seam: callers thread any cache through
//!   [`evaluate_optimal_cached`](crate::eval::evaluate_optimal_cached)
//!   and friends; [`CompileMemo`] is the sharded in-process memo the
//!   campaign runner and serving layer use, with hit/miss/timing
//!   counters ([`CompileStats`]).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use raysearch_sim::{LogTourItinerary, TourItinerary};

use crate::canon::CanonF64;
use crate::eval::{compile_first_visit_pieces, FirstVisitPiece, RaySweep};
use crate::CoreError;

/// The memoization key of a compiled fleet: everything the piece arenas
/// depend on, and nothing they don't.
///
/// The key is deliberately **`f`-free**: the cyclic exponential fleet's
/// excursions are a function of `(m, k, α, cap)` — the fault budget
/// enters only through the evaluator's order statistic (and through
/// `α`, when the caller derives `α` from `f`); the zone-partition fleet
/// is a function of `(m, k, cap)` alone, so trivial-regime cells with
/// different `f` share one artifact outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetKey {
    /// A [`CyclicExponential`](raysearch_strategies::CyclicExponential)
    /// fleet compiled with the given piece cap.
    Cyclic {
        /// Number of rays.
        m: u32,
        /// Number of robots.
        k: u32,
        /// The geometric base `α`.
        alpha: CanonF64,
        /// The compilation cap (the evaluation range's upper end).
        cap: CanonF64,
    },
    /// A [`ZonePartition`](raysearch_strategies::ZonePartition) fleet
    /// whose tours walk out to `cap`.
    Zone {
        /// Number of rays.
        m: u32,
        /// Number of robots.
        k: u32,
        /// The tour horizon the zone walkers were generated at.
        cap: CanonF64,
    },
}

/// A compiled fleet: every robot's first-visit pieces on every ray, in
/// one arena, plus every ray's prepared event sweep.
///
/// Piece storage is a structure of arrays — contiguous `starts`,
/// `ends`, `constants` vectors — with the pieces of `(robot, ray)`
/// occupying the contiguous index range `spans[robot·m + ray]`, sorted
/// by strictly increasing `lo` within each span. Piece *values* are
/// bit-for-bit the ones [`compile_first_visit_pieces`] produces, so
/// every consumer (exact sup, verdict, Monte-Carlo table) answers
/// identically whether it compiled fresh or pulled the artifact from a
/// cache.
///
/// Beside the arena, each ray holds everything of the exact sup that
/// depends neither on the fault budget `f` nor on the evaluation
/// range: the activation/deactivation events sorted by position, each
/// carrying its constant's precomputed rank; the distinct constants;
/// and the distinct piece boundaries. Building them costs one pair of
/// run-merging sorts per ray at compile time, and roughly doubles the
/// artifact's bytes ([`CompiledFleet::heap_bytes`]); in exchange a warm
/// evaluation, for any `f`, is one linear pass over the events. Each
/// robot's pieces tile `(0, reach]` with nondecreasing constants, so
/// after the first probe an event only swaps a robot's constant for a
/// larger one or drops the robot: the `(f+1)`-st order statistic never
/// falls, and the pass keeps it with a rank pointer that only climbs,
/// in O(events + constants).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFleet {
    m: usize,
    cap: f64,
    starts: Vec<f64>,
    ends: Vec<f64>,
    constants: Vec<f64>,
    /// `spans[robot * m + ray] = (first, last+1)` into the arenas.
    spans: Vec<(u32, u32)>,
    /// `sweeps[ray]`, prepared by [`FleetBuilder::finish`].
    sweeps: Vec<RaySweep>,
}

impl CompiledFleet {
    /// Number of rays.
    #[inline]
    pub fn num_rays(&self) -> usize {
        self.m
    }

    /// Number of compiled robots.
    #[inline]
    pub fn num_robots(&self) -> usize {
        self.spans.len() / self.m
    }

    /// The compilation cap: queries are valid for targets `x ≤ cap`.
    #[inline]
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// Total pieces across all robots and rays.
    #[inline]
    pub fn num_pieces(&self) -> usize {
        self.starts.len()
    }

    /// The pieces of one `(robot, ray)` pair, sorted by strictly
    /// increasing `lo`, materialized from the arena.
    ///
    /// # Panics
    ///
    /// Panics if `robot` or `ray` is out of range.
    pub fn pieces(&self, robot: usize, ray: usize) -> impl Iterator<Item = FirstVisitPiece> + '_ {
        assert!(ray < self.m, "ray {ray} out of range for m = {}", self.m);
        let (a, b) = self.spans[robot * self.m + ray];
        (a as usize..b as usize).map(|i| FirstVisitPiece {
            lo: self.starts[i],
            hi: self.ends[i],
            c: self.constants[i],
        })
    }

    /// The arena index range of one `(robot, ray)` pair.
    #[inline]
    fn span(&self, robot: usize, ray: usize) -> (usize, usize) {
        let (a, b) = self.spans[robot * self.m + ray];
        (a as usize, b as usize)
    }

    /// First-visit time of `robot` to a target at distance `x` on
    /// `ray`, or `None` if the robot's compiled plan never reaches it —
    /// one binary search on the `(robot, ray)` span, bit-identical to
    /// the evaluator's piece lookup.
    ///
    /// # Panics
    ///
    /// Panics if `robot` or `ray` is out of range.
    #[inline]
    pub fn first_visit(&self, robot: usize, ray: usize, x: f64) -> Option<f64> {
        let (a, b) = self.span(robot, ray);
        let starts = &self.starts[a..b];
        let idx = starts.partition_point(|&lo| lo < x);
        if idx == 0 {
            return None;
        }
        let i = a + idx - 1;
        (x <= self.ends[i]).then(|| self.constants[i] + x)
    }

    /// The prepared event sweep of one ray.
    #[inline]
    pub(crate) fn sweep(&self, ray: usize) -> &RaySweep {
        &self.sweeps[ray]
    }

    /// Every piece boundary on `ray` strictly inside `(lo, hi)`, sorted
    /// ascending and distinct — the exact adversary's candidate target
    /// set, sliced out of the prepared sweep with two binary searches.
    ///
    /// # Panics
    ///
    /// Panics if `ray` is out of range.
    pub fn boundaries(&self, ray: usize, lo: f64, hi: f64) -> &[f64] {
        self.sweeps[ray].boundaries(lo, hi)
    }

    /// Bytes the artifact holds on the heap: the piece arena, the span
    /// index and the prepared sweeps.
    pub fn heap_bytes(&self) -> usize {
        (self.starts.capacity() + self.ends.capacity() + self.constants.capacity())
            * size_of::<f64>()
            + self.spans.capacity() * size_of::<(u32, u32)>()
            + self.sweeps.capacity() * size_of::<RaySweep>()
            + self.sweeps.iter().map(RaySweep::heap_bytes).sum::<usize>()
    }
}

/// Streaming builder for a [`CompiledFleet`]: fix the geometry's ray
/// count and cap, push one tour per robot, then [`finish`].
///
/// [`finish`]: FleetBuilder::finish
///
/// # Example
///
/// ```
/// use raysearch_core::compiled::FleetBuilder;
/// use raysearch_sim::RobotId;
/// use raysearch_strategies::CyclicExponential;
///
/// let s = CyclicExponential::optimal(2, 3, 1)?;
/// let mut b = FleetBuilder::new(2, 100.0)?;
/// for r in 0..3 {
///     b.push_log_tour(&s.log_tour_prefix(RobotId(r), 100.0)?)?;
/// }
/// let fleet = b.finish();
/// assert_eq!(fleet.num_robots(), 3);
/// assert!(fleet.first_visit(0, 0, 5.0).is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FleetBuilder {
    fleet: CompiledFleet,
}

impl FleetBuilder {
    /// A builder for an `m`-ray fleet whose pieces are valid for
    /// queries up to `cap`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if `m = 0` or `cap` is not
    /// positive and finite.
    pub fn new(m: usize, cap: f64) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::invalid("need at least one ray"));
        }
        if !(cap.is_finite() && cap > 0.0) {
            return Err(CoreError::invalid(format!(
                "piece cap must be positive and finite, got {cap}"
            )));
        }
        Ok(FleetBuilder {
            fleet: CompiledFleet {
                m,
                cap,
                starts: Vec::new(),
                ends: Vec::new(),
                constants: Vec::new(),
                spans: Vec::new(),
                sweeps: Vec::new(),
            },
        })
    }

    /// Appends the per-ray piece vectors of one robot to the arenas.
    fn push_compiled(&mut self, per_ray: Vec<Vec<FirstVisitPiece>>) {
        for pieces in per_ray {
            let start = self.fleet.starts.len() as u32;
            for p in pieces {
                self.fleet.starts.push(p.lo);
                self.fleet.ends.push(p.hi);
                self.fleet.constants.push(p.c);
            }
            self.fleet
                .spans
                .push((start, self.fleet.starts.len() as u32));
        }
    }

    /// Compiles one robot's log-domain tour (truncated at the builder's
    /// cap) through [`compile_first_visit_pieces`] and appends it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the tour's ray count
    /// disagrees with the builder's, or a first-visit constant within
    /// the cap overflows `f64`.
    pub fn push_log_tour(&mut self, tour: &LogTourItinerary) -> Result<(), CoreError> {
        if tour.num_rays() != self.fleet.m {
            return Err(CoreError::invalid(format!(
                "tour is for {} rays, builder expects {}",
                tour.num_rays(),
                self.fleet.m
            )));
        }
        let per_ray = compile_first_visit_pieces(tour, self.fleet.cap)?;
        self.push_compiled(per_ray);
        Ok(())
    }

    /// Compiles one robot's linear tour and appends it — the exact
    /// mirror of the evaluator's historical per-ray construction (no
    /// cap truncation, so a finite tour compiles in full), in one pass
    /// over the excursions.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if the tour's ray count
    /// disagrees with the builder's.
    pub fn push_tour(&mut self, tour: &TourItinerary) -> Result<(), CoreError> {
        if tour.num_rays() != self.fleet.m {
            return Err(CoreError::invalid(format!(
                "tour is for {} rays, builder expects {}",
                tour.num_rays(),
                self.fleet.m
            )));
        }
        let m = self.fleet.m;
        let mut per_ray: Vec<Vec<FirstVisitPiece>> = vec![Vec::new(); m];
        let mut reach = vec![0.0f64; m];
        let mut prefix = 0.0f64;
        for e in tour.excursions() {
            let ray = e.ray.index();
            if e.turn > reach[ray] {
                per_ray[ray].push(FirstVisitPiece {
                    lo: reach[ray],
                    hi: e.turn,
                    c: 2.0 * prefix,
                });
                reach[ray] = e.turn;
            }
            prefix += e.turn;
        }
        self.push_compiled(per_ray);
        Ok(())
    }

    /// Finalizes the artifact: prepares every ray's event sweep from
    /// the robots' piece lists (each already sorted, so the sweep's
    /// sorts merge presorted runs) and trims the arenas.
    pub fn finish(self) -> CompiledFleet {
        let mut fleet = self.fleet;
        fleet.sweeps = (0..fleet.m)
            .map(|ray| {
                RaySweep::from_pieces(
                    (0..fleet.num_robots()).flat_map(|robot| fleet.pieces(robot, ray)),
                )
            })
            .collect();
        fleet.starts.shrink_to_fit();
        fleet.ends.shrink_to_fit();
        fleet.constants.shrink_to_fit();
        fleet.spans.shrink_to_fit();
        fleet
    }
}

/// The cache seam of the compilation layer: anything that can answer
/// "give me the artifact for this key, compiling at most once on a
/// miss".
///
/// Implementations must return the `build` result unmodified on a miss
/// and must not cache errors.
pub trait CompileCache {
    /// Returns the artifact for `key`, invoking `build` only on a miss.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error (which is then *not* cached).
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError>;
}

/// The trivial cache: always compiles. Threading [`NoCache`] through a
/// `_cached` entry point reproduces the uncached behavior exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl CompileCache for NoCache {
    fn get_or_compile(
        &self,
        _key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        Ok(Arc::new(build()?))
    }
}

/// A snapshot of a [`CompileMemo`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CompileStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Artifacts currently held.
    pub entries: u64,
    /// Total wall-clock microseconds spent compiling on misses.
    pub compile_micros: u64,
}

impl CompileStats {
    /// The counter deltas `self − earlier` (entries stay absolute: they
    /// are a level, not a flow).
    pub fn since(&self, earlier: &CompileStats) -> CompileStats {
        CompileStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            compile_micros: self.compile_micros.saturating_sub(earlier.compile_micros),
        }
    }
}

/// A sharded, unbounded in-process compile memo: the [`CompileCache`]
/// the campaign runner threads through its worker pool so grid cells
/// with shared geometry compile once, and the second memo tier the
/// serving layer keeps beside its result LRU.
///
/// Compilation happens under the shard lock, so concurrent requests for
/// the same key compile exactly once and everyone else blocks briefly
/// and shares the artifact. Errors are never cached. The memo is
/// unbounded — artifacts are a few megabytes at the largest fleet
/// sizes ([`CompiledFleet::heap_bytes`]), and a campaign's key set is
/// finite; a serving layer that needs eviction wraps its own bounded
/// store instead.
///
/// # Example
///
/// ```
/// use raysearch_core::compiled::CompileMemo;
/// use raysearch_core::eval::evaluate_optimal_cached;
///
/// let memo = CompileMemo::new();
/// let a = evaluate_optimal_cached(&memo, 2, 3, 1, 1e4)?;
/// let b = evaluate_optimal_cached(&memo, 2, 3, 1, 1e4)?;
/// assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
/// let stats = memo.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// # Ok::<(), raysearch_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct CompileMemo {
    shards: Vec<Mutex<HashMap<FleetKey, Arc<CompiledFleet>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compile_micros: AtomicU64,
}

impl Default for CompileMemo {
    fn default() -> Self {
        CompileMemo::new()
    }
}

impl CompileMemo {
    /// Default shard count: enough to keep an 8-thread campaign off a
    /// single lock without bloating the empty memo.
    const DEFAULT_SHARDS: usize = 16;

    /// A memo with the default shard count.
    pub fn new() -> Self {
        CompileMemo::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A memo with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shards = 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "compile memo needs at least one shard");
        CompileMemo {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compile_micros: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &FleetKey) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Snapshots the counters.
    pub fn stats(&self) -> CompileStats {
        CompileStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().len() as u64).sum(),
            compile_micros: self.compile_micros.load(Ordering::Relaxed),
        }
    }

    /// Drops every held artifact (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

impl CompileCache for CompileMemo {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        let mut shard = self.shards[self.shard_of(&key)].lock();
        if let Some(found) = shard.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        // compile under the shard lock: same-key racers block and share
        // the one artifact instead of compiling redundantly
        let started = Instant::now();
        let built = build()?;
        self.compile_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(built);
        shard.insert(key, Arc::clone(&arc));
        Ok(arc)
    }
}

// `&C` caches transparently delegate, so call sites can thread either
// an owned cache or a shared reference without ceremony.
impl<C: CompileCache + ?Sized> CompileCache for &C {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        (**self).get_or_compile(key, build)
    }
}

impl<C: CompileCache + ?Sized> CompileCache for Arc<C> {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        (**self).get_or_compile(key, build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysearch_sim::RobotId;
    use raysearch_strategies::{CyclicExponential, RayStrategy, ZonePartition};

    fn cyclic_fleet(cap: f64) -> CompiledFleet {
        let s = CyclicExponential::optimal(3, 4, 1).unwrap();
        let mut b = FleetBuilder::new(3, cap).unwrap();
        for r in 0..4 {
            b.push_log_tour(&s.log_tour_prefix(RobotId(r), cap).unwrap())
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn builder_validates() {
        assert!(FleetBuilder::new(0, 10.0).is_err());
        assert!(FleetBuilder::new(2, 0.0).is_err());
        assert!(FleetBuilder::new(2, f64::INFINITY).is_err());
        let mut b = FleetBuilder::new(2, 10.0).unwrap();
        let three_ray = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .log_tour(RobotId(0), 10.0)
            .unwrap();
        assert!(b.push_log_tour(&three_ray).is_err());
        let three_ray_linear = CyclicExponential::optimal(3, 4, 1)
            .unwrap()
            .fleet_tours(10.0)
            .unwrap()
            .remove(0);
        assert!(b.push_tour(&three_ray_linear).is_err());
    }

    #[test]
    fn arena_pieces_match_fresh_compilation_bit_for_bit() {
        let s = CyclicExponential::optimal(3, 4, 1).unwrap();
        let cap = 500.0;
        let fleet = cyclic_fleet(cap);
        assert_eq!(fleet.num_rays(), 3);
        assert_eq!(fleet.num_robots(), 4);
        assert_eq!(fleet.cap(), cap);
        for r in 0..4usize {
            // the reference path: the full padded tour, compiled fresh
            let tour = s.log_tour(RobotId(r), cap * 4.0).unwrap();
            let fresh = compile_first_visit_pieces(&tour, cap).unwrap();
            for (ray, fresh_ray) in fresh.iter().enumerate() {
                let arena: Vec<FirstVisitPiece> = fleet.pieces(r, ray).collect();
                assert_eq!(arena.len(), fresh_ray.len(), "robot {r}, ray {ray}");
                for (a, b) in arena.iter().zip(fresh_ray) {
                    assert_eq!(a.lo.to_bits(), b.lo.to_bits());
                    assert_eq!(a.hi.to_bits(), b.hi.to_bits());
                    assert_eq!(a.c.to_bits(), b.c.to_bits());
                }
            }
        }
    }

    #[test]
    fn first_visit_answers_like_the_piece_lookup() {
        let fleet = cyclic_fleet(500.0);
        for robot in 0..4usize {
            for ray in 0..3usize {
                for &x in &[0.5, 1.0, 7.3, 41.0, 499.0] {
                    let by_scan = fleet
                        .pieces(robot, ray)
                        .find(|p| p.lo < x && x <= p.hi)
                        .map(|p| p.c + x);
                    assert_eq!(
                        fleet.first_visit(robot, ray, x),
                        by_scan,
                        "robot {robot}, ray {ray}, x {x}"
                    );
                }
                // past the cap: the compiled plan's straddling piece
                // still answers (hi may exceed cap) or yields None
                assert_eq!(fleet.first_visit(robot, ray, 0.0), None);
            }
        }
    }

    #[test]
    fn linear_push_matches_zone_partition_tours() {
        let tours = ZonePartition::new(2, 4, 1)
            .unwrap()
            .fleet_tours(100.0)
            .unwrap();
        let mut b = FleetBuilder::new(2, 100.0).unwrap();
        for t in &tours {
            b.push_tour(t).unwrap();
        }
        let fleet = b.finish();
        assert_eq!(fleet.num_robots(), 4);
        // zone walkers go straight out: one piece on their own ray
        for (robot, tour) in tours.iter().enumerate() {
            let own_ray = tour.excursions()[0].ray.index();
            for ray in 0..2usize {
                let n = fleet.pieces(robot, ray).count();
                assert_eq!(n, usize::from(ray == own_ray), "robot {robot}, ray {ray}");
            }
        }
    }

    #[test]
    fn memo_hits_share_one_artifact_and_count() {
        let memo = CompileMemo::new();
        let key = FleetKey::Cyclic {
            m: 3,
            k: 4,
            alpha: CanonF64::new(1.5).unwrap(),
            cap: CanonF64::new(200.0).unwrap(),
        };
        let a = memo
            .get_or_compile(key, &mut || Ok(cyclic_fleet(200.0)))
            .unwrap();
        let b = memo
            .get_or_compile(key, &mut || panic!("hit must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        memo.clear();
        assert_eq!(memo.stats().entries, 0);
        // counters survive the clear
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn memo_does_not_cache_errors() {
        let memo = CompileMemo::new();
        let key = FleetKey::Zone {
            m: 2,
            k: 4,
            cap: CanonF64::new(100.0).unwrap(),
        };
        let err = memo.get_or_compile(key, &mut || Err(CoreError::invalid("transient failure")));
        assert!(err.is_err());
        assert_eq!(memo.stats().entries, 0);
        // the next lookup compiles successfully
        let ok = memo.get_or_compile(key, &mut || Ok(cyclic_fleet(100.0)));
        assert!(ok.is_ok());
        assert_eq!(memo.stats().entries, 1);
    }

    #[test]
    fn stats_deltas() {
        let a = CompileStats {
            hits: 10,
            misses: 4,
            entries: 4,
            compile_micros: 900,
        };
        let b = CompileStats {
            hits: 25,
            misses: 6,
            entries: 6,
            compile_micros: 1500,
        };
        let d = b.since(&a);
        assert_eq!(
            (d.hits, d.misses, d.entries, d.compile_micros),
            (15, 2, 6, 600)
        );
    }

    #[test]
    fn keys_distinguish_geometry_not_faults() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(1e4).unwrap(),
        });
        // same geometry again: no new entry
        assert!(!set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(1e4).unwrap(),
        }));
        // a different cap is a different artifact
        assert!(set.insert(FleetKey::Cyclic {
            m: 2,
            k: 8,
            alpha: CanonF64::new(1.25).unwrap(),
            cap: CanonF64::new(2e4).unwrap(),
        }));
        // zone keys never collide with cyclic keys
        assert!(set.insert(FleetKey::Zone {
            m: 2,
            k: 8,
            cap: CanonF64::new(1e4).unwrap(),
        }));
    }
}
