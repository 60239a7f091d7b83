//! In-process layer timings for the traced run: the benchmark calls one
//! public entry point at a time (`read_request`, `ServiceState::handle`,
//! `Response::write_to`, `estimate_cached`) and times it alone.

use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use raysearch_core::CompileMemo;
use raysearch_mc::{estimate_cached, FaultSampler, McConfig, Scenario, TargetSampler};
use raysearch_service::http::read_request;
use raysearch_service::ServiceState;

use crate::gen::{geometry_pool, ComputeStream, Op, MC_SAMPLES};
use crate::stats::median;

/// Rounds over the whole key set per timing.
const ROUNDS: usize = 200;

/// Median over rounds of the mean per-call time (µs) of `call` over
/// every item.
fn per_call_us<T>(items: &[T], mut call: impl FnMut(&T)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for item in items {
                call(item);
            }
            started.elapsed().as_nanos() as f64 / 1000.0 / items.len() as f64
        })
        .collect();
    median(&rounds)
}

/// HTTP and API figures on the hot key set against a primed state.
pub struct HotLayers {
    pub parse_us: f64,
    pub write_us: f64,
    pub response_bytes: f64,
    pub hit_us: f64,
}

pub fn hot_layers(keys: &[Op], primed: &ServiceState) -> HotLayers {
    let wires: Vec<Vec<u8>> = keys.iter().map(Op::wire).collect();
    let requests: Vec<_> = wires
        .iter()
        .map(|w| read_request(&mut Cursor::new(w.as_slice())).expect("generated requests parse"))
        .collect();
    let responses: Vec<_> = requests.iter().map(|r| primed.handle(r)).collect();
    let parse_us = per_call_us(&wires, |w| {
        black_box(read_request(&mut Cursor::new(black_box(w.as_slice()))).ok());
    });
    let hit_us = per_call_us(&requests, |r| {
        black_box(primed.handle(black_box(r)));
    });
    let mut sink = Vec::with_capacity(1 << 16);
    let write_us = per_call_us(&responses, |r| {
        sink.clear();
        r.write_to(&mut sink, true)
            .expect("writing to memory succeeds");
        black_box(&sink);
    });
    let bytes: usize = responses
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            r.write_to(&mut out, true)
                .expect("writing to memory succeeds");
            out.len()
        })
        .sum();
    HotLayers {
        parse_us,
        write_us,
        response_bytes: bytes as f64 / responses.len() as f64,
        hit_us,
    }
}

/// Median `ServiceState::handle` time (µs) of a first-time request per
/// endpoint, each on a fresh state (both caches empty).
pub fn miss_us(seed: u64, endpoint: &str, samples: usize) -> f64 {
    let mut stream = ComputeStream::new(seed, 7);
    let mut times = Vec::new();
    while times.len() < samples {
        let op = stream.next_op();
        if op.endpoint != endpoint {
            continue;
        }
        let req = read_request(&mut Cursor::new(op.wire())).expect("generated requests parse");
        let state = ServiceState::new(4096, 16);
        let started = Instant::now();
        let response = state.handle(&req);
        times.push(started.elapsed().as_nanos() as f64 / 1000.0);
        assert_eq!(
            response.status,
            200,
            "{} answered {}",
            op.render(),
            response.body
        );
    }
    median(&times)
}

/// Median warm `estimate_cached` time (µs) and its sample rate, on the
/// first pool geometry with the serve_compute montecarlo settings.
pub fn mc_layer(seed: u64, calls: usize) -> (f64, f64) {
    let (m, k, f, h) = geometry_pool(seed)[0];
    let horizon: f64 = h.parse().expect("pool horizons are numbers");
    let scenario = Scenario::new(
        m,
        k,
        f,
        horizon,
        FaultSampler::UniformSubset { f },
        TargetSampler::LogUniform {
            lo: 1.0,
            hi: horizon,
        },
    )
    .expect("pool instances are searchable");
    let cfg = McConfig {
        seed,
        samples: MC_SAMPLES,
        threads: Some(1),
        ..McConfig::default()
    };
    let memo = CompileMemo::new();
    estimate_cached(&scenario, &cfg, &memo).expect("estimate succeeds");
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            black_box(estimate_cached(&scenario, &cfg, &memo).expect("estimate succeeds"));
            started.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    let us = median(&times);
    (us, cfg.samples as f64 / (us / 1e6))
}
