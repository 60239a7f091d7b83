//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <sweep_e12|serve_hot|serve_compute> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload untraced for `S` seconds and
//! prints its end-to-end metrics; with `--trace 1` it runs the named
//! workload for `S` seconds, untraced and traced work alternating, and
//! the other two briefly, and prints every per-layer metric (each
//! layer's split, the unattributed remainder and the tracing overhead).
//! The last line of standard output is one JSON object `{"correct",
//! "attempted", "failed", "metrics"}`. Any wrong output (a sweep row off
//! the closed form or not bit-identical, a served answer that differs
//! from the in-process one or off the closed form, a job result that
//! differs from a fresh in-process state's answer) or a failed mechanism
//! check makes the run exit 1.

mod gen;
mod layers;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::time::Instant;

use crate::serve::{Client, Fleet, HotKeys, Phase};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["sweep_e12", "serve_hot", "serve_compute"];

/// The per-layer metrics a traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.compile_us", "us"),
    ("core.compile_misses", "count"),
    ("core.evaluate_us", "us"),
    ("core.evaluate_max_cell_us", "us"),
    ("core.pieces", "count"),
    ("core.breakpoints", "count"),
    ("campaign.overhead_us", "us"),
    ("mc.estimate_us", "us"),
    ("mc.samples_per_s", "1/s"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("http.response_bytes", "bytes"),
    ("api.hit_us", "us"),
    ("api.miss_us.evaluate", "us"),
    ("api.miss_us.verdict", "us"),
    ("api.miss_us.montecarlo", "us"),
    ("api.miss_us.campaign", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("compile.hit_ratio", "ratio"),
    ("compile.misses", "count"),
    ("server.direct_p50_us", "us"),
    ("server.transport_us", "us"),
    ("route.hop_us", "us"),
    ("route.forwards", "count"),
    ("route.failovers", "count"),
    ("jobs.queue_wait_us", "us"),
    ("jobs.polls_per_job", "count"),
    ("jobs.envelope_us", "us"),
    ("jobs.shed", "count"),
    ("sweep_e12.unattributed_us", "us"),
    ("serve_hot.unattributed_us", "us"),
    ("serve_compute.unattributed_us", "us"),
    ("sweep_e12.trace_overhead", "ratio"),
    ("serve_hot.trace_overhead", "ratio"),
    ("serve_compute.trace_overhead", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Operations attempted and failed, and wrong outputs seen.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a wrong output or failed mechanism check.
    pub fn mismatch(&mut self, msg: String) {
        self.mismatches += 1;
        self.note(msg);
    }

    pub fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        for note in other.notes {
            self.note(note);
        }
    }
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric and prints it with the sample count it rests on.
    fn add(&mut self, name: &str, value: f64, unit: &'static str, basis: &str) {
        println!("  {name:<32} {value:>14.3} {unit:<6} {basis}");
        self.0.push((name.to_owned(), value, unit));
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?} (have {WORKLOADS:?})")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or("--seconds takes a positive number")?,
                );
            }
            "--trace" => trace = Some(matches!(value.as_str(), "1")),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn header(workload: &str) {
    println!("{workload}:");
}

fn fail_line(outcome: &Outcome) {
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<32} {ratio:>14.6} ratio  ({} failed of {} attempted, {} wrong outputs)",
        "fail_ratio", outcome.failed, outcome.attempted, outcome.mismatches
    );
}

// ------------------------------------------------------------- end to end

/// Time slices per end-to-end run: each metric is the median over the
/// slices of that slice's statistic, so a disturbance shorter than half
/// the run does not move it.
const SLICES_E2E: usize = 15;

/// Median over slices of `stat` of each slice.
fn over_slices<T>(slices: &[T], stat: impl Fn(&T) -> f64) -> f64 {
    median(&slices.iter().map(stat).collect::<Vec<_>>())
}

fn sweep_e2e(seed: u64, seconds: f64, metrics: &mut Metrics) -> Outcome {
    let run = sweep::run(seed, seconds, false, &mut Tracer::off());
    header("sweep_e12");
    // fewer slices than cold passes would leave a slice without one
    let n = SLICES_E2E
        .min(run.passes.iter().filter(|p| p.cold).count())
        .max(1);
    let mut slices: Vec<Vec<sweep::PassTime>> = vec![Vec::new(); n];
    for pass in &run.passes {
        let i = (pass.start_s / seconds * n as f64) as usize;
        slices[i.min(n - 1)].push(*pass);
    }
    let times = |passes: &[sweep::PassTime], cold: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.cold == cold)
            .map(|p| p.ms * 1e3)
            .collect()
    };
    let (cold, warm) = (times(&run.passes, true), times(&run.passes, false));
    let (nc, nw) = (cold.len(), warm.len());
    println!(
        "  sweep_cold_ms = {:.3} ms (median of {nc} cold passes), sweep_warm_ms = {:.3} ms (median of {nw} warm passes)",
        median(&cold) / 1e3,
        median(&warm) / 1e3
    );
    let per_slice = format!("median over {n} slices");
    let rows_per_s = |passes: &Vec<sweep::PassTime>| {
        passes.len() as f64 * run.cells as f64 / (passes.iter().map(|p| p.ms).sum::<f64>() / 1e3)
    };
    metrics.add(
        "setup_s",
        median(&run.setup_s),
        "s",
        &format!("median of {} set-ups", run.setup_s.len()),
    );
    metrics.add(
        "rps",
        over_slices(&slices, rows_per_s),
        "1/s",
        &format!("sweep rows per second, {per_slice}"),
    );
    metrics.add(
        "latency_p50_us",
        over_slices(&slices, |s| median(&times(s, false))),
        "us",
        &format!("warm pass, n={nw}, {per_slice}"),
    );
    metrics.add(
        "latency_p90_us",
        over_slices(&slices, |s| quantile(&times(s, false), 0.9)),
        "us",
        &format!("warm pass, {per_slice}"),
    );
    metrics.add(
        "slow_p50_us",
        over_slices(&slices, |s| median(&times(s, true))),
        "us",
        &format!("cold pass, n={nc}, {per_slice}"),
    );
    metrics.add(
        "slow_p90_us",
        over_slices(&slices, |s| quantile(&times(s, true), 0.9)),
        "us",
        &format!("cold pass, {per_slice}"),
    );
    let mut outcome = run.outcome;
    if slices
        .iter()
        .any(|s| times(s, true).is_empty() || times(s, false).is_empty())
    {
        outcome.mismatch(
            "sweep_e12: a time slice holds no cold and warm pass; raise --seconds".to_owned(),
        );
    }
    outcome
}

/// Fresh fleets per serve run, one slice each. A fleet keeps the speed
/// it started with (thread placement, sockets) for its whole life, and
/// that speed varies from fleet to fleet by more than within one, so a
/// run takes the median over as many fleets as it has slices.
const FLEETS: usize = SLICES_E2E;

/// Sets up [`FLEETS`] fleets one after another and runs [`SLICES_E2E`]
/// slices of `seconds` in total spread over them, each slice on fresh
/// client input streams; `check` sees each fleet before and after its
/// slices. Returns each set-up's wall time and the slices.
fn on_fleets(
    seconds: f64,
    setup: impl Fn() -> Result<Fleet, String>,
    phase: impl Fn(&str, f64, u64) -> Phase,
    mut check: impl FnMut(&Fleet, bool),
) -> Result<(Vec<f64>, Vec<Phase>), String> {
    let per_fleet = SLICES_E2E / FLEETS;
    let slice_s = seconds / (per_fleet * FLEETS) as f64;
    let mut setup_s = Vec::new();
    let mut slices = Vec::new();
    for f in 0..FLEETS {
        let started = Instant::now();
        let fleet = setup()?;
        setup_s.push(started.elapsed().as_secs_f64());
        let entry = fleet.entry();
        check(&fleet, false);
        for i in 0..per_fleet {
            let streams = ((f * per_fleet + i) as u64) * serve::CLIENTS;
            slices.push(phase(&entry, slice_s, streams));
        }
        check(&fleet, true);
        fleet.shutdown();
    }
    Ok((setup_s, slices))
}

fn serve_metrics(
    name: &str,
    setup_s: &[f64],
    slices: Vec<Phase>,
    metrics: &mut Metrics,
) -> Outcome {
    header(name);
    let ns: usize = slices.iter().map(|p| p.sync_us.len()).sum();
    let nj: usize = slices.iter().map(|p| p.jobs.len()).sum();
    let per_slice = format!("median over {} slices", slices.len());
    metrics.add(
        "setup_s",
        median(setup_s),
        "s",
        &format!("median of {} set-ups", setup_s.len()),
    );
    metrics.add(
        "rps",
        over_slices(&slices, Phase::rps),
        "1/s",
        &format!("completions per second, sync and jobs, {per_slice}"),
    );
    metrics.add(
        "latency_p50_us",
        over_slices(&slices, Phase::sync_p50),
        "us",
        &format!("sync requests, n={ns}, {per_slice}"),
    );
    metrics.add(
        "latency_p90_us",
        over_slices(&slices, |p| quantile(&p.sync_us, 0.9)),
        "us",
        &format!("sync requests, {per_slice}"),
    );
    // p99 moves with the host's scheduling stalls by far more than any
    // bound could absorb, so it is printed but not a gated metric
    println!(
        "  {:<32} {:>14.3} us     sync requests, {per_slice} (not gated)",
        "latency_p99_us",
        over_slices(&slices, |p| quantile(&p.sync_us, 0.99))
    );
    metrics.add(
        "slow_p50_us",
        over_slices(&slices, |p| median(&p.job_us())),
        "us",
        &format!("job_latency_p50_us, POST /jobs to done, n={nj}, {per_slice}"),
    );
    metrics.add(
        "slow_p90_us",
        over_slices(&slices, |p| quantile(&p.job_us(), 0.9)),
        "us",
        &format!("job_latency_p90_us, {per_slice}"),
    );
    let mut outcome = Outcome::default();
    for slice in slices {
        outcome.merge(slice.outcome);
    }
    outcome
}

fn hot_e2e(seed: u64, seconds: f64, metrics: &mut Metrics) -> Result<Outcome, String> {
    let hot = HotKeys::new(seed)?;
    let (mut before, mut timed_misses) = (0, 0);
    let (setup_s, slices) = on_fleets(
        seconds,
        || serve::hot_setup(&hot),
        |entry, secs, streams| serve::hot_phase(entry, &hot, seed, secs, false, streams),
        |fleet, after| {
            let misses = serve::backend_misses(fleet);
            if after {
                timed_misses += misses - before;
            } else {
                before = misses;
            }
        },
    )?;
    let mut outcome = serve_metrics("serve_hot", &setup_s, slices, metrics);
    if timed_misses != 0 {
        outcome.mismatch(format!(
            "serve_hot: backends recorded {timed_misses} result-cache misses while timing"
        ));
    }
    Ok(outcome)
}

fn compute_e2e(seed: u64, seconds: f64, metrics: &mut Metrics) -> Result<Outcome, String> {
    // per tier: (hits, misses, evictions) summed over the fleets' timed
    // slices
    let counters = |fleet: &Fleet| {
        let state = fleet.backends[0].state();
        [state.cache_stats(), state.compile_stats()].map(|c| [c.hits, c.misses, c.evictions])
    };
    let (mut before, mut totals) = ([[0u64; 3]; 2], [[0u64; 3]; 2]);
    let (setup_s, slices) = on_fleets(
        seconds,
        || serve::compute_setup(seed),
        |entry, secs, streams| serve::compute_phase(entry, seed, secs, false, streams),
        |fleet, after| {
            let now = counters(fleet);
            if !after {
                before = now;
                return;
            }
            for tier in 0..2 {
                for c in 0..3 {
                    totals[tier][c] += now[tier][c] - before[tier][c];
                }
            }
        },
    )?;
    let mut outcome = serve_metrics("serve_compute", &setup_s, slices, metrics);
    for (tier, [hits, misses, evictions]) in ["result LRU", "compile tier"].into_iter().zip(totals)
    {
        println!("  {tier}: {hits} hits, {misses} misses, {evictions} evictions");
        if hits == 0 || misses == 0 || evictions == 0 {
            outcome.mismatch(format!(
                "serve_compute: the {tier} must hit, miss and evict (saw {hits}/{misses}/{evictions})"
            ));
        }
    }
    Ok(outcome)
}

// ------------------------------------------------------------- per layer

/// A top-level `GET /stats` counter (`NaN` when unavailable).
fn stat(addr: &str, key: &str) -> f64 {
    let Ok((200, body)) = Client::new(addr).call("GET", "/stats", None) else {
        return f64::NAN;
    };
    serde_json::from_str(&body)
        .ok()
        .and_then(|doc| doc.get(key).and_then(|v| v.as_u64()))
        .map_or(f64::NAN, |n| n as f64)
}

fn traced_sweep(
    seed: u64,
    seconds: f64,
    label: &str,
    metrics: &mut Metrics,
    tracers: &mut Vec<Tracer>,
) -> Outcome {
    let mut tracer = Tracer::new(true, Instant::now());
    let traced = sweep::run(seed, seconds, true, &mut tracer);
    tracers.push(tracer);
    header(label);
    let l = traced.layers.unwrap_or_default();
    let nc = traced.passes.iter().filter(|p| p.cold).count();
    let nw = traced.passes.len() - nc;
    metrics.add(
        "core.compile_us",
        l.compile_us,
        "us",
        &format!("CompileStats delta per cold pass, n={nc}"),
    );
    metrics.add(
        "core.compile_misses",
        l.compile_misses,
        "count",
        "per cold pass",
    );
    metrics.add(
        "core.evaluate_us",
        l.evaluate_us,
        "us",
        &format!("warm evaluate_optimal_cached per cell, {nw} passes"),
    );
    metrics.add(
        "core.evaluate_max_cell_us",
        l.evaluate_max_cell_us,
        "us",
        "costliest cell, median over warm passes",
    );
    metrics.add(
        "core.pieces",
        l.pieces,
        "count",
        "compiled pieces per cold pass",
    );
    metrics.add(
        "core.breakpoints",
        l.breakpoints,
        "count",
        "breakpoints per pass",
    );
    metrics.add(
        "campaign.overhead_us",
        l.campaign_overhead_us,
        "us",
        "Campaign::run minus its cells, per warm pass",
    );
    metrics.add(
        "sweep_e12.unattributed_us",
        l.unattributed_us,
        "us",
        "warm pass minus campaign and evaluate time",
    );
    metrics.add(
        "sweep_e12.trace_overhead",
        l.trace_overhead,
        "ratio",
        "traced / untraced warm pass, alternating",
    );
    traced.outcome
}

/// Runs `phase` in [`SLICES`] alternating untraced and traced slices
/// of `seconds` in total, each slice on fresh client input streams, and
/// returns the (untraced, traced) halves.
fn alternate(seconds: f64, phase: impl Fn(bool, f64, u64) -> Phase) -> (Phase, Phase) {
    let slice = seconds / SLICES as f64;
    let mut halves: [Option<Phase>; 2] = [None, None];
    for i in 0..SLICES {
        // A B B A A B …: neither side always runs first
        let traced = (i + i / 2) % 2 == 1;
        let part = phase(traced, slice, i * serve::CLIENTS);
        match &mut halves[usize::from(traced)] {
            Some(half) => half.absorb(part),
            empty => *empty = Some(part),
        }
    }
    let [untraced, traced] = halves;
    (
        untraced.expect("an untraced slice ran"),
        traced.expect("a traced slice ran"),
    )
}

/// Slices per paired traced/untraced comparison.
const SLICES: u64 = 6;

fn traced_hot(
    seed: u64,
    seconds: f64,
    label: &str,
    metrics: &mut Metrics,
    tracers: &mut Vec<Tracer>,
) -> Result<Outcome, String> {
    let hot = HotKeys::new(seed)?;
    let fleet = serve::hot_setup(&hot)?;
    let entry = fleet.entry();
    let router = fleet.router.as_ref().expect("serve_hot is routed").state();
    let (forwards0, failovers0) = (stat(&entry, "routed_total"), router.failover_total());
    let (untraced, routed) = alternate(seconds * 2.0 / 3.0, |traced, secs, streams| {
        serve::hot_phase(&entry, &hot, seed, secs, traced, streams)
    });
    let (forwards1, failovers1) = (stat(&entry, "routed_total"), router.failover_total());
    drop(router);
    let direct_addr = fleet.backends[0].addr().to_string();
    serve::prime(&direct_addr, &hot)?;
    let direct = serve::hot_phase(&direct_addr, &hot, seed, seconds / 3.0, true, 0);
    fleet.shutdown();
    let l = layers::hot_layers(&hot.keys, &hot.reference);
    header(label);
    let (routed_p50, direct_p50) = (routed.sync_p50(), direct.sync_p50());
    let hop = routed_p50 - direct_p50;
    let in_process = l.parse_us + l.hit_us + l.write_us;
    let routed_s = routed.seconds + untraced.seconds;
    metrics.add(
        "http.parse_us",
        l.parse_us,
        "us",
        "read_request per hot request",
    );
    metrics.add(
        "http.write_us",
        l.write_us,
        "us",
        "Response::write_to per hot response",
    );
    metrics.add(
        "http.response_bytes",
        l.response_bytes,
        "bytes",
        "mean hot response on the wire",
    );
    metrics.add(
        "api.hit_us",
        l.hit_us,
        "us",
        "ServiceState::handle on a primed state",
    );
    metrics.add(
        "server.direct_p50_us",
        direct_p50,
        "us",
        &format!(
            "hot mix straight to one backend, n={}",
            direct.sync_us.len()
        ),
    );
    let transport = direct_p50 - in_process;
    metrics.add(
        "server.transport_us",
        transport,
        "us",
        "direct p50 minus parse, hit and write",
    );
    metrics.add(
        "route.hop_us",
        hop,
        "us",
        &format!("routed p50 minus direct p50, n={}", routed.sync_us.len()),
    );
    metrics.add(
        "route.forwards",
        forwards1 - forwards0,
        "count",
        &format!("router forwards in {routed_s:.1} s"),
    );
    metrics.add(
        "route.failovers",
        (failovers1 - failovers0) as f64,
        "count",
        "router failovers while timing",
    );
    // A routed request crosses both tiers. The backend tier is the whole
    // direct round trip; the router tier parses and writes once more, and
    // its client-side transport is taken equal to the direct one. What
    // is left is the router's own forwarding work (routing, the fresh
    // backend connection per forward) that no layer call covers.
    metrics.add(
        "serve_hot.unattributed_us",
        hop - (l.parse_us + l.write_us) - transport,
        "us",
        "router hop minus a second parse, write and transport",
    );
    metrics.add(
        "serve_hot.trace_overhead",
        routed_p50 / untraced.sync_p50(),
        "ratio",
        "traced / untraced routed p50, alternating slices",
    );
    let mut outcome = untraced.outcome;
    for phase in [routed, direct] {
        outcome.merge(phase.outcome);
        tracers.extend(phase.tracers);
    }
    Ok(outcome)
}

/// Warm job minus warm sync time (µs) for the same montecarlo payloads.
fn job_envelope(addr: &str, seed: u64) -> Result<f64, String> {
    let pool = gen::geometry_pool(seed);
    let ops: Vec<gen::Op> = pool[..16]
        .iter()
        .enumerate()
        .map(|(i, (m, k, f, h))| gen::Op {
            endpoint: "montecarlo",
            payload: format!(
                "{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":{h},\"samples\":{},\"seed\":{},\"faults\":\"uniform\"}}",
                gen::MC_SAMPLES,
                900_000 + i
            ),
            job: true,
        })
        .collect();
    let mut client = Client::new(addr);
    for op in &ops {
        client.call("POST", &op.sync_path(), Some(&op.payload))?;
    }
    let (mut sync, mut job) = (Vec::new(), Vec::new());
    let mut off = Tracer::off();
    for _ in 0..5 {
        for op in &ops {
            let started = Instant::now();
            client.call("POST", &op.sync_path(), Some(&op.payload))?;
            sync.push(started.elapsed().as_nanos() as f64 / 1000.0);
            match serve::run_job(&mut client, &op.job_body("perfbench-envelope"), &mut off, 0) {
                Ok(done) => job.push(done.latency_us),
                Err(_) => return Err("envelope job failed".to_owned()),
            }
        }
    }
    Ok(median(&job) - median(&sync))
}

fn traced_compute(
    seed: u64,
    seconds: f64,
    label: &str,
    metrics: &mut Metrics,
    tracers: &mut Vec<Tracer>,
) -> Result<Outcome, String> {
    let fleet: Fleet = serve::compute_setup(seed)?;
    let entry = fleet.entry();
    let state = fleet.backends[0].state();
    let (cache0, compile0) = (state.cache_stats(), state.compile_stats());
    let (untraced, traced) = alternate(seconds, |traced, secs, streams| {
        serve::compute_phase(&entry, seed, secs, traced, streams)
    });
    let (cache1, compile1) = (state.cache_stats(), state.compile_stats());
    drop(state);
    let envelope = job_envelope(&entry, seed);
    fleet.shutdown();
    header(label);
    for endpoint in ["evaluate", "verdict", "montecarlo", "campaign"] {
        let samples = if endpoint == "campaign" { 8 } else { 16 };
        let us = layers::miss_us(seed, endpoint, samples);
        metrics.add(
            &format!("api.miss_us.{endpoint}"),
            us,
            "us",
            &format!("handle on a fresh state, median of {samples}"),
        );
    }
    let (mc_us, mc_rate) = layers::mc_layer(seed, 20);
    metrics.add(
        "mc.estimate_us",
        mc_us,
        "us",
        &format!(
            "warm estimate_cached, {} samples, median of 20",
            gen::MC_SAMPLES
        ),
    );
    metrics.add(
        "mc.samples_per_s",
        mc_rate,
        "1/s",
        "samples over the median estimate",
    );
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    metrics.add(
        "cache.hit_ratio",
        ratio(cache1.hits - cache0.hits, cache1.misses - cache0.misses),
        "ratio",
        "result LRU, traced and untraced slices",
    );
    metrics.add(
        "cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
        "result LRU while timing",
    );
    metrics.add(
        "compile.hit_ratio",
        ratio(
            compile1.hits - compile0.hits,
            compile1.misses - compile0.misses,
        ),
        "ratio",
        "compile tier while timing",
    );
    metrics.add(
        "compile.misses",
        (compile1.misses - compile0.misses) as f64,
        "count",
        "compile tier while timing",
    );
    let waits: Vec<f64> = traced.jobs.iter().map(|j| j.queue_wait_us).collect();
    let polls: Vec<f64> = traced.jobs.iter().map(|j| f64::from(j.polls)).collect();
    let rest: Vec<f64> = traced
        .jobs
        .iter()
        .map(|j| j.latency_us - j.queue_wait_us - j.run_us)
        .collect();
    let nj = traced.jobs.len();
    metrics.add(
        "jobs.queue_wait_us",
        median(&waits),
        "us",
        &format!("queue_wait_micros of done records, n={nj}"),
    );
    metrics.add(
        "jobs.polls_per_job",
        mean(&polls),
        "count",
        &format!("GET /jobs polls per job, n={nj}"),
    );
    let envelope = envelope.unwrap_or(f64::NAN);
    metrics.add(
        "jobs.envelope_us",
        envelope,
        "us",
        "warm job minus warm sync, same payloads",
    );
    metrics.add(
        "jobs.shed",
        traced.shed as f64,
        "count",
        "503s while timing",
    );
    metrics.add(
        "serve_compute.unattributed_us",
        median(&rest),
        "us",
        "job latency minus queue wait and run time",
    );
    metrics.add(
        "serve_compute.trace_overhead",
        traced.sync_p50() / untraced.sync_p50(),
        "ratio",
        "traced / untraced sync p50",
    );
    let mut outcome = untraced.outcome;
    outcome.merge(traced.outcome);
    tracers.extend(traced.tracers);
    Ok(outcome)
}

/// Share of `--seconds` a traced run gives each workload other than
/// the one named, so that every per-layer metric is printed.
const COMPANION_SHARE: f64 = 1.0 / 6.0;

/// The traced run: the named workload for `--seconds`, untraced and
/// traced work alternating, and each other workload briefly so that
/// every per-layer metric is printed.
fn traced(args: &Args, metrics: &mut Metrics) -> Result<Outcome, String> {
    let mut tracers = Vec::new();
    let mut outcome = Outcome::default();
    for workload in WORKLOADS {
        let (seconds, label) = if workload == args.workload {
            (args.seconds, format!("{workload} (traced)"))
        } else {
            let s = args.seconds * COMPANION_SHARE;
            (s, format!("{workload} (traced, companion run of {s:.1} s)"))
        };
        let part = match workload {
            "sweep_e12" => traced_sweep(args.seed, seconds, &label, metrics, &mut tracers),
            "serve_hot" => traced_hot(args.seed, seconds, &label, metrics, &mut tracers)?,
            _ => traced_compute(args.seed, seconds, &label, metrics, &mut tracers)?,
        };
        outcome.merge(part);
    }
    let ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    metrics.add(
        "fail_ratio",
        ratio,
        "ratio",
        &format!(
            "{} failed of {} attempted",
            outcome.failed, outcome.attempted
        ),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let refs: Vec<&Tracer> = tracers.iter().collect();
    match trace::write_chrome(&path, &refs) {
        Ok(n) => println!("wrote {n} spans to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing spans: {e}"),
    }
    Ok(outcome)
}

fn run(args: &Args, metrics: &mut Metrics) -> Result<Outcome, String> {
    if args.trace {
        return traced(args, metrics);
    }
    match args.workload.as_str() {
        "sweep_e12" => Ok(sweep_e2e(args.seed, args.seconds, metrics)),
        "serve_hot" => hot_e2e(args.seed, args.seconds, metrics),
        "serve_compute" => compute_e2e(args.seed, args.seconds, metrics),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let mut outcome = match run(&args, &mut metrics) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if !args.trace {
        fail_line(&outcome);
    }
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            outcome.mismatch(format!("metric {name} is not finite"));
        }
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let correct = outcome.mismatches == 0;
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
    const DESIGN_JSON: &str = include_str!("../design.json");

    fn names(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("list present")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(|v| v.as_str())
                        .unwrap_or_default()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let listed = names(&doc, "per_layer");
        let printed: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed, printed);
        let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn design_json_maps_every_per_layer_metric() {
        let doc = serde_json::from_str(DESIGN_JSON).expect("design.json parses");
        let mapped: Vec<String> = doc
            .get("interactions")
            .and_then(|v| v.as_array())
            .expect("interactions present")
            .iter()
            .map(|m| {
                m.get("metric")
                    .and_then(|v| v.as_str())
                    .expect("metric")
                    .to_owned()
            })
            .collect();
        let printed: Vec<String> = PER_LAYER.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(mapped, printed);
    }

    #[test]
    fn args_parse() {
        let argv: Vec<String> = "--workload serve_hot --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let args = parse_args(&argv).expect("parses");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("serve_hot", 7, 3.0, true)
        );
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
    }
}
