//! `sweep_e12`: the E12 large-fleet sweep, in process, one thread,
//! through the public `Campaign` runner and `evaluate_optimal_cached`.
//! Cold passes start from an empty `CompileMemo`; warm passes share the
//! memo the set-up primed.

use std::cell::Cell as StdCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raysearch_bounds::a_rays;
use raysearch_core::campaign::{Campaign, ParamGrid};
use raysearch_core::{
    evaluate_optimal_cached, CompileCache, CompileMemo, CompiledFleet, CoreError, FleetKey,
};

use crate::gen::{sweep_cells, SWEEP_HORIZON};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Warm passes per cold pass in the timed loop.
const WARM_PER_COLD: usize = 2;
/// E12's relative-error tolerance against the closed form.
const REL_TOL: f64 = 1e-6;

/// What the traced closure saw inside one cell, as offsets from the
/// run's epoch in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct CellTiming {
    cell: (u64, u64),
    evaluate: (u64, u64),
    compile_ns: u64,
    pieces: u64,
}

#[derive(Debug, Clone)]
struct Row {
    ratio: f64,
    breakpoints: usize,
    timing: Option<CellTiming>,
}

/// A `CompileCache` that forwards to the shared memo and records, for
/// the traced run, the compile time and piece count of what it returns.
struct Probe<'a> {
    memo: &'a CompileMemo,
    compile_ns: StdCell<u64>,
    pieces: StdCell<u64>,
}

impl CompileCache for Probe<'_> {
    fn get_or_compile(
        &self,
        key: FleetKey,
        build: &mut dyn FnMut() -> Result<CompiledFleet, CoreError>,
    ) -> Result<Arc<CompiledFleet>, CoreError> {
        let fleet = self.memo.get_or_compile(key, &mut || {
            let started = Instant::now();
            let built = build();
            self.compile_ns
                .set(self.compile_ns.get() + started.elapsed().as_nanos() as u64);
            built
        })?;
        self.pieces
            .set(self.pieces.get() + fleet.num_pieces() as u64);
        Ok(fleet)
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn campaign(
    cells: &[(u32, u32)],
    memo: Arc<CompileMemo>,
    traced: bool,
    epoch: Instant,
) -> Campaign<Result<Row, String>> {
    let grid = ParamGrid::new().axis_zip(
        &["k", "f"],
        cells.iter().map(|&(k, f)| vec![k.into(), f.into()]),
    );
    let cell_memo = Arc::clone(&memo);
    Campaign::new("sweep_e12", "E12 sweep, seeded f", grid, move |cell| {
        let (k, f) = (cell.get_u32("k"), cell.get_u32("f"));
        if !traced {
            return evaluate_optimal_cached(&*cell_memo, 2, k, f, SWEEP_HORIZON)
                .map(|r| Row {
                    ratio: r.ratio,
                    breakpoints: r.num_breakpoints,
                    timing: None,
                })
                .map_err(|e| format!("(k={k}, f={f}): {e}"));
        }
        let cell_start = ns_since(epoch);
        let probe = Probe {
            memo: &cell_memo,
            compile_ns: StdCell::new(0),
            pieces: StdCell::new(0),
        };
        let eval_start = ns_since(epoch);
        let report = evaluate_optimal_cached(&probe, 2, k, f, SWEEP_HORIZON);
        let eval_end = ns_since(epoch);
        report
            .map(|r| Row {
                ratio: r.ratio,
                breakpoints: r.num_breakpoints,
                timing: Some(CellTiming {
                    cell: (cell_start, ns_since(epoch)),
                    evaluate: (eval_start, eval_end),
                    compile_ns: probe.compile_ns.get(),
                    pieces: probe.pieces.get(),
                }),
            })
            .map_err(|e| format!("(k={k}, f={f}): {e}"))
    })
    .threads(Some(1))
    .with_compile_memo(memo)
}

/// One timed pass: wall time around `Campaign::run`, its compile-memo
/// delta, and the rows.
struct Pass {
    micros: f64,
    run_micros: f64,
    misses: u64,
    compile_micros: u64,
    rows: Vec<Row>,
}

fn run_pass(
    cells: &[(u32, u32)],
    memo: Arc<CompileMemo>,
    traced: bool,
    epoch: Instant,
) -> Result<Pass, String> {
    let campaign = campaign(cells, memo, traced, epoch);
    let started = Instant::now();
    let run = campaign.run();
    let micros = started.elapsed().as_nanos() as f64 / 1000.0;
    let stats = run.compile.expect("the memo is attached");
    let rows = run.rows().cloned().collect::<Result<Vec<Row>, String>>()?;
    Ok(Pass {
        micros,
        run_micros: run.micros as f64,
        misses: stats.misses,
        compile_micros: stats.compile_micros,
        rows,
    })
}

/// Checks one pass against the reference rows: bit-identical ratios and
/// breakpoint counts.
fn check_identical(
    reference: &[Row],
    pass: &Pass,
    cells: &[(u32, u32)],
    what: &str,
) -> Vec<String> {
    reference
        .iter()
        .zip(&pass.rows)
        .zip(cells)
        .filter(|((a, b), _)| {
            a.ratio.to_bits() != b.ratio.to_bits() || a.breakpoints != b.breakpoints
        })
        .map(|(_, (k, f))| {
            format!("sweep_e12 {what} pass: (k={k}, f={f}) differs from the first pass")
        })
        .collect()
}

/// Checks a pass's rows against Λ(q/k) = A(2, k, f) within E12's
/// tolerance.
fn check_bound(rows: &[Row], cells: &[(u32, u32)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (row, &(k, f)) in rows.iter().zip(cells) {
        let lambda = match a_rays(2, k, f) {
            Ok(v) => v,
            Err(e) => {
                failures.push(format!("sweep_e12 (k={k}, f={f}): closed form: {e}"));
                continue;
            }
        };
        let rel_err = (row.ratio - lambda).abs() / lambda;
        if !(row.ratio.is_finite() && row.ratio <= lambda * (1.0 + 1e-9) && rel_err <= REL_TOL) {
            failures.push(format!(
                "sweep_e12 (k={k}, f={f}): measured {} vs Λ = {lambda} (rel err {rel_err:.3e})",
                row.ratio
            ));
        }
    }
    failures
}

/// Per-layer figures from the traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    pub compile_us: f64,
    pub compile_misses: f64,
    pub evaluate_us: f64,
    pub evaluate_max_cell_us: f64,
    pub pieces: f64,
    pub breakpoints: f64,
    pub campaign_overhead_us: f64,
    pub unattributed_us: f64,
    /// Traced over untraced warm-pass median.
    pub trace_overhead: f64,
}

/// When a timed pass started (seconds into the timed window), how long
/// it took, and whether it was cold.
#[derive(Debug, Clone, Copy)]
pub struct PassTime {
    pub start_s: f64,
    pub ms: f64,
    pub cold: bool,
}

pub struct SweepRun {
    pub outcome: Outcome,
    pub setup_s: Vec<f64>,
    pub passes: Vec<PassTime>,
    /// Rows per pass.
    pub cells: usize,
    pub layers: Option<Layers>,
}

/// Runs set-up and then cold and warm passes for `seconds`.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer) -> SweepRun {
    let epoch = tracer.epoch();
    let mut outcome = Outcome::default();
    let mut setup_s = Vec::new();
    let mut shared = Arc::new(CompileMemo::new());
    let mut cells = Vec::new();
    let mut reference: Vec<Row> = Vec::new();
    // set-up: generate the cells and prime the shared memo with one
    // pass; the last set-up's memo and rows are kept
    for _ in 0..SETUPS {
        let started = Instant::now();
        cells = sweep_cells(seed);
        shared = Arc::new(CompileMemo::new());
        let prime = run_pass(&cells, Arc::clone(&shared), false, epoch);
        setup_s.push(started.elapsed().as_secs_f64());
        match prime {
            Ok(pass) => reference = pass.rows,
            Err(e) => {
                outcome.mismatch(format!("sweep_e12 set-up: {e}"));
                return SweepRun {
                    outcome,
                    setup_s,
                    passes: Vec::new(),
                    cells: 0,
                    layers: None,
                };
            }
        }
    }
    let mut cold: Vec<Pass> = Vec::new();
    let mut warm: Vec<Pass> = Vec::new();
    let mut untraced_warm_ms = Vec::new();
    let mut times = Vec::new();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut req = 0u64;
    let mut cycle = 0;
    while started.elapsed() < deadline {
        cycle += 1;
        for i in 0..=WARM_PER_COLD {
            let is_cold = i == 0;
            let memo = if is_cold {
                Arc::new(CompileMemo::new())
            } else {
                Arc::clone(&shared)
            };
            // a traced run alternates traced and untraced warm passes,
            // so the tracing overhead is a paired comparison
            let trace_pass = traced && (is_cold || (i + cycle) % 2 == 0);
            req += 1;
            let start_s = started.elapsed().as_secs_f64();
            let span = if trace_pass {
                tracer.begin(
                    if is_cold {
                        "sweep.cold_pass"
                    } else {
                        "sweep.warm_pass"
                    },
                    None,
                    req,
                )
            } else {
                None
            };
            let pass = run_pass(&cells, memo, trace_pass, epoch);
            tracer.end(span);
            outcome.attempted += cells.len() as u64;
            let pass = match pass {
                Ok(pass) => pass,
                Err(e) => {
                    outcome.failed += cells.len() as u64;
                    outcome.mismatch(format!("sweep_e12: {e}"));
                    continue;
                }
            };
            if !(traced && !trace_pass && !is_cold) {
                times.push(PassTime {
                    start_s,
                    ms: pass.micros / 1000.0,
                    cold: is_cold,
                });
            }
            let what = if is_cold { "cold" } else { "warm" };
            for failure in check_bound(&pass.rows, &cells)
                .into_iter()
                .chain(check_identical(&reference, &pass, &cells, what))
            {
                outcome.failed += 1;
                outcome.mismatch(failure);
            }
            if !is_cold && pass.misses != 0 {
                outcome.mismatch(format!(
                    "sweep_e12: a warm pass recorded {} compile misses",
                    pass.misses
                ));
            }
            if let Some(span) = span {
                record_cells(tracer, span, req, &pass);
            }
            if is_cold {
                cold.push(pass);
            } else if traced && !trace_pass {
                untraced_warm_ms.push(pass.micros / 1000.0);
            } else {
                warm.push(pass);
            }
        }
    }
    let warm_ms: Vec<f64> = warm.iter().map(|p| p.micros / 1000.0).collect();
    let layers = traced.then(|| Layers {
        trace_overhead: median(&warm_ms) / median(&untraced_warm_ms),
        ..layers(&cold, &warm)
    });
    SweepRun {
        outcome,
        setup_s,
        passes: times,
        cells: cells.len(),
        layers,
    }
}

/// Adds the cell, evaluate and compile spans of a traced pass under its
/// pass span.
fn record_cells(tracer: &mut Tracer, pass_span: usize, req: u64, pass: &Pass) {
    for row in &pass.rows {
        let Some(t) = row.timing else { continue };
        let push = |tracer: &mut Tracer, name, (start_ns, end_ns), parent| {
            tracer.spans.push(crate::trace::SpanRec {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                req,
            });
            tracer.spans.len() - 1
        };
        let cell = push(tracer, "campaign.cell", t.cell, pass_span);
        let eval = push(tracer, "core.evaluate", t.evaluate, cell);
        if t.compile_ns > 0 {
            push(
                tracer,
                "core.compile",
                (t.evaluate.0, t.evaluate.0 + t.compile_ns),
                eval,
            );
        }
    }
}

fn layers(cold: &[Pass], warm: &[Pass]) -> Layers {
    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let timing = |p: &Pass| p.rows.iter().filter_map(|r| r.timing).collect::<Vec<_>>();
    let us = |(a, b): (u64, u64)| b.saturating_sub(a) as f64 / 1000.0;
    let cells = warm.first().map_or(0, |p| p.rows.len());
    // per-cell warm evaluate times, cell by cell across passes
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut all_eval = Vec::new();
    for pass in warm {
        for (i, t) in timing(pass).into_iter().enumerate() {
            per_cell[i].push(us(t.evaluate));
            all_eval.push(us(t.evaluate));
        }
    }
    let cell_sum = |p: &Pass| timing(p).iter().map(|t| us(t.cell)).sum::<f64>();
    let eval_sum = |p: &Pass| timing(p).iter().map(|t| us(t.evaluate)).sum::<f64>();
    Layers {
        compile_us: per_pass(cold, &|p| p.compile_micros as f64),
        compile_misses: per_pass(cold, &|p| p.misses as f64),
        evaluate_us: crate::stats::mean(&all_eval),
        evaluate_max_cell_us: per_cell.iter().map(|c| median(c)).fold(0.0, f64::max),
        pieces: per_pass(cold, &|p| timing(p).iter().map(|t| t.pieces as f64).sum()),
        breakpoints: per_pass(warm, &|p| p.rows.iter().map(|r| r.breakpoints as f64).sum()),
        campaign_overhead_us: per_pass(warm, &|p| p.run_micros - cell_sum(p)),
        // the pass's wall time less the campaign layer's own time and
        // the evaluate calls inside it
        unattributed_us: per_pass(warm, &|p| {
            p.micros - (p.run_micros - cell_sum(p)) - eval_sum(p)
        }),
        trace_overhead: f64::NAN,
    }
}
