//! The serving workloads, driven from outside over HTTP: `serve_hot`
//! (client → in-process `RouterState` → two in-process `raysearchd`
//! backends, every timed request a result-cache hit) and
//! `serve_compute` (client → one in-process `raysearchd`, mostly
//! first-time keys, heavy requests through the job tier). Both are
//! closed loops of [`CLIENTS`] threads, each holding one keep-alive
//! connection and waiting for every reply before sending the next.

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raysearch_bounds::a_rays;
use raysearch_service::client::HttpClient;
use raysearch_service::http::read_request;
use raysearch_service::{
    BackendSpec, RouterState, Server, ServerConfig, ServerHandle, ServiceState,
};
use serde_json::Value;

use crate::gen::{geometry_pool, hot_keys, ComputeStream, HotStream, Op, Rng};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Outcome;

/// Client threads, one connection each (the box has 2 cores).
pub const CLIENTS: u64 = 2;
/// Long-poll budget per `GET /jobs/{id}`.
const POLL: &str = "?wait_micros=2000000";

fn backend_config(node: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        job_node: node,
        ..ServerConfig::default()
    }
}

/// In-process servers: backends, and the router in front of them when
/// the workload is routed.
pub struct Fleet {
    pub backends: Vec<ServerHandle>,
    pub router: Option<ServerHandle<RouterState>>,
}

impl Fleet {
    /// Binds `n` backends, and a router over them when `routed`; the
    /// router must find every backend healthy in one health pass.
    pub fn start(n: u64, routed: bool) -> Result<Fleet, String> {
        let mut backends = Vec::new();
        for node in 0..n {
            let server =
                Server::bind(backend_config(node)).map_err(|e| format!("bind backend: {e}"))?;
            backends.push(server.spawn());
        }
        let mut fleet = Fleet {
            backends,
            router: None,
        };
        if routed {
            let specs = fleet
                .backends
                .iter()
                .enumerate()
                .map(|(i, b)| BackendSpec::fixed(&format!("backend-{i}"), &b.addr().to_string()))
                .collect();
            let state = RouterState::new(specs, None);
            let healthy = state.check_backends_now();
            if healthy != n as usize {
                fleet.shutdown();
                return Err(format!(
                    "router health pass found {healthy} of {n} backends"
                ));
            }
            let cfg = ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServerConfig::default()
            };
            let router =
                Server::bind_with(cfg, Arc::new(state)).map_err(|e| format!("bind router: {e}"))?;
            fleet.router = Some(router.spawn());
        }
        Ok(fleet)
    }

    /// Where clients connect: the router, or the first backend.
    pub fn entry(&self) -> String {
        match &self.router {
            Some(router) => router.addr().to_string(),
            None => self.backends[0].addr().to_string(),
        }
    }

    pub fn shutdown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for backend in self.backends {
            backend.shutdown();
        }
    }
}

/// A keep-alive connection that reconnects after a transport error.
pub struct Client {
    addr: String,
    conn: Option<HttpClient>,
}

impl Client {
    pub fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_owned(),
            conn: None,
        }
    }

    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        if self.conn.is_none() {
            self.conn = Some(
                HttpClient::connect(&self.addr)
                    .map_err(|e| format!("connect {}: {e}", self.addr))?,
            );
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.request(method, path, body).map_err(|e| {
            self.conn = None;
            format!("{method} {path}: {e}")
        })
    }
}

/// The first 160 characters of `text`, for failure notes.
fn clip(text: &str) -> String {
    match text.char_indices().nth(160) {
        Some((end, _)) => format!("{}…", &text[..end]),
        None => text.to_owned(),
    }
}

/// The payload inside a synchronous `{"cached":…,"result":…}` body.
pub fn sync_payload(body: &str) -> Option<(&str, bool)> {
    let rest = body.strip_suffix('}')?;
    if let Some(p) = rest.strip_prefix("{\"cached\":true,\"result\":") {
        Some((p, true))
    } else {
        rest.strip_prefix("{\"cached\":false,\"result\":")
            .map(|p| (p, false))
    }
}

/// The raw `result` bytes of a done job record.
fn record_payload(record: &str) -> Option<&str> {
    let start = record.find("\"result\":")? + "\"result\":".len();
    let end = record.rfind(",\"started_micros\":")?;
    (start <= end).then(|| &record[start..end])
}

/// A finished job, as the client saw it.
#[derive(Debug, Clone)]
pub struct JobDone {
    pub latency_us: f64,
    pub polls: u32,
    pub queue_wait_us: f64,
    pub run_us: f64,
    pub result: String,
}

pub enum JobError {
    Shed,
    Failed(String),
}

/// Submits `body` to `POST /jobs` and long-polls `GET /jobs/{id}` until
/// the record is done; the latency runs from the submit to the done
/// record.
pub fn run_job(
    client: &mut Client,
    body: &str,
    tracer: &mut Tracer,
    req: u64,
) -> Result<JobDone, JobError> {
    let started = Instant::now();
    let job_span = tracer.begin("client.job", None, req);
    let span = tracer.begin("jobs.submit", job_span, req);
    let (status, reply) = client
        .call("POST", "/jobs", Some(body))
        .map_err(JobError::Failed)?;
    tracer.end(span);
    if status == 503 {
        return Err(JobError::Shed);
    }
    if status != 202 {
        return Err(JobError::Failed(format!(
            "POST /jobs returned {status}: {reply}"
        )));
    }
    let id = reply
        .split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .ok_or_else(|| JobError::Failed(format!("submit reply without id: {reply}")))?;
    let target = format!("/jobs/{id}{POLL}");
    let mut polls = 0;
    loop {
        polls += 1;
        let span = tracer.begin("jobs.poll", job_span, req);
        let (status, record) = client
            .call("GET", &target, None)
            .map_err(JobError::Failed)?;
        tracer.end(span);
        if status != 200 {
            return Err(JobError::Failed(format!(
                "job poll returned {status}: {record}"
            )));
        }
        let doc = serde_json::from_str(&record)
            .map_err(|e| JobError::Failed(format!("job record: {e}")))?;
        match doc.get("state").and_then(Value::as_str) {
            Some("done") => {
                let latency_us = started.elapsed().as_nanos() as f64 / 1000.0;
                tracer.end(job_span);
                let micros = |key: &str| doc.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
                let result = record_payload(&record).ok_or_else(|| {
                    JobError::Failed(format!("done record without result: {record}"))
                })?;
                return Ok(JobDone {
                    latency_us,
                    polls,
                    queue_wait_us: micros("queue_wait_micros"),
                    run_us: micros("finished_micros") - micros("started_micros"),
                    result: result.to_owned(),
                });
            }
            Some("queued" | "running") => {}
            other => return Err(JobError::Failed(format!("job reached {other:?}: {record}"))),
        }
    }
}

/// What one client thread measured.
#[derive(Debug)]
pub struct ClientStats {
    pub outcome: Outcome,
    pub sync_us: Vec<f64>,
    pub jobs: Vec<JobDone>,
    pub shed: u64,
    pub tracer: Tracer,
    /// A seeded sample of job results, checked after the phase.
    pub sampled: Vec<(Op, String)>,
}

/// Everything a timed phase measured, over all clients.
#[derive(Debug)]
pub struct Phase {
    pub outcome: Outcome,
    pub sync_us: Vec<f64>,
    pub jobs: Vec<JobDone>,
    pub shed: u64,
    pub seconds: f64,
    pub tracers: Vec<Tracer>,
    pub sampled: Vec<(Op, String)>,
}

impl Phase {
    /// Folds another phase of the same kind into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.outcome.merge(other.outcome);
        self.sync_us.extend(other.sync_us);
        self.jobs.extend(other.jobs);
        self.shed += other.shed;
        self.seconds += other.seconds;
        self.tracers.extend(other.tracers);
        self.sampled.extend(other.sampled);
    }

    pub fn rps(&self) -> f64 {
        (self.sync_us.len() + self.jobs.len()) as f64 / self.seconds
    }

    pub fn job_us(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.latency_us).collect()
    }

    pub fn sync_p50(&self) -> f64 {
        median(&self.sync_us)
    }
}

/// Runs [`CLIENTS`] closed-loop client threads for `seconds`; client
/// `c` draws input stream `streams + c`.
fn phase(
    seconds: f64,
    traced: bool,
    streams: u64,
    client: impl Fn(u64, Instant, Tracer) -> ClientStats + Sync,
) -> Phase {
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = &client;
                scope.spawn(move || client(streams + c, deadline, Tracer::new(traced, epoch)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let seconds = epoch.elapsed().as_secs_f64();
    let mut out = Phase {
        outcome: Outcome::default(),
        sync_us: Vec::new(),
        jobs: Vec::new(),
        shed: 0,
        seconds,
        tracers: Vec::new(),
        sampled: Vec::new(),
    };
    for s in stats {
        out.outcome.merge(s.outcome);
        out.sync_us.extend(s.sync_us);
        out.jobs.extend(s.jobs);
        out.shed += s.shed;
        out.tracers.push(s.tracer);
        out.sampled.extend(s.sampled);
    }
    out
}

fn new_stats(tracer: Tracer) -> ClientStats {
    ClientStats {
        outcome: Outcome::default(),
        sync_us: Vec::new(),
        jobs: Vec::new(),
        shed: 0,
        tracer,
        sampled: Vec::new(),
    }
}

fn request_id(client: u64, n: u64) -> u64 {
    (client << 40) | n
}

// ---------------------------------------------------------------- serve_hot

/// The primed key set with the in-process reference answers.
pub struct HotKeys {
    pub keys: Vec<Op>,
    /// `ServiceState::handle`'s body for each key once cached.
    pub expected: Vec<String>,
    /// The primed in-process reference state.
    pub reference: ServiceState,
}

impl HotKeys {
    pub fn new(seed: u64) -> Result<HotKeys, String> {
        let keys = hot_keys(seed);
        let reference = ServiceState::new(4096, 16);
        let mut expected = Vec::with_capacity(keys.len());
        for op in &keys {
            let req = read_request(&mut Cursor::new(op.wire()))
                .map_err(|e| format!("parse {}: {e}", op.render()))?;
            reference.handle(&req);
            let response = reference.handle(&req);
            if response.status != 200 || !response.body.starts_with("{\"cached\":true,") {
                return Err(format!(
                    "reference answer for {}: {} {}",
                    op.render(),
                    response.status,
                    response.body
                ));
            }
            expected.push(response.body);
        }
        Ok(HotKeys {
            keys,
            expected,
            reference,
        })
    }
}

/// Sends every key once to `addr` so the owning backend caches it, and
/// checks each answer's payload against the reference.
pub fn prime(addr: &str, hot: &HotKeys) -> Result<(), String> {
    let mut client = Client::new(addr);
    for (op, expected) in hot.keys.iter().zip(&hot.expected) {
        let (status, body) = client.call("POST", &op.sync_path(), Some(&op.payload))?;
        let want = sync_payload(expected).map(|p| p.0);
        if status != 200 || sync_payload(&body).map(|p| p.0) != want {
            return Err(format!("priming {} answered {status} {body}", op.render()));
        }
    }
    Ok(())
}

/// `serve_hot` set-up: bind two backends and the router, run the
/// router's health pass, prime every key.
pub fn hot_setup(hot: &HotKeys) -> Result<Fleet, String> {
    let fleet = Fleet::start(2, true)?;
    if let Err(e) = prime(&fleet.entry(), hot) {
        fleet.shutdown();
        return Err(e);
    }
    Ok(fleet)
}

/// One timed `serve_hot` phase against `addr`.
pub fn hot_phase(
    addr: &str,
    hot: &HotKeys,
    seed: u64,
    seconds: f64,
    traced: bool,
    streams: u64,
) -> Phase {
    phase(seconds, traced, streams, |c, deadline, tracer| {
        let mut stats = new_stats(tracer);
        let mut client = Client::new(addr);
        let mut stream = HotStream::new(seed, c, &hot.keys);
        let label = format!("perfbench-{c}");
        let mut n = 0;
        while Instant::now() < deadline {
            n += 1;
            let req = request_id(c, n);
            let (idx, as_job) = stream.next_op();
            let op = &hot.keys[idx];
            stats.outcome.attempted += 1;
            if as_job {
                match run_job(&mut client, &op.job_body(&label), &mut stats.tracer, req) {
                    Ok(done) => {
                        if Some(done.result.as_str())
                            != sync_payload(&hot.expected[idx]).map(|p| p.0)
                        {
                            stats.outcome.failed += 1;
                            stats.outcome.mismatch(format!(
                                "serve_hot job {} differs from its synchronous twin",
                                op.render()
                            ));
                        }
                        stats.jobs.push(done);
                    }
                    Err(JobError::Shed) => {
                        stats.shed += 1;
                        stats.outcome.failed += 1;
                    }
                    Err(JobError::Failed(e)) => {
                        stats.outcome.failed += 1;
                        stats.outcome.note(format!("serve_hot job: {e}"));
                    }
                }
                continue;
            }
            let path = op.sync_path();
            let span = stats.tracer.begin("client.request", None, req);
            let started = Instant::now();
            let reply = client.call("POST", &path, Some(&op.payload));
            let micros = started.elapsed().as_nanos() as f64 / 1000.0;
            stats.tracer.end(span);
            match reply {
                Ok((200, body)) if body == hot.expected[idx] => stats.sync_us.push(micros),
                Ok((200, body)) => {
                    stats.outcome.failed += 1;
                    stats.outcome.mismatch(format!(
                        "serve_hot {} answered {}, in-process reference {}",
                        op.render(),
                        clip(&body),
                        clip(&hot.expected[idx])
                    ));
                }
                Ok((503, _)) => {
                    stats.shed += 1;
                    stats.outcome.failed += 1;
                }
                Ok((status, body)) => {
                    stats.outcome.failed += 1;
                    stats.outcome.note(format!(
                        "serve_hot {} answered {status} {body}",
                        op.render()
                    ));
                }
                Err(e) => {
                    stats.outcome.failed += 1;
                    stats.outcome.note(format!("serve_hot: {e}"));
                }
            }
        }
        stats
    })
}

/// Result-cache misses summed over the fleet's backends.
pub fn backend_misses(fleet: &Fleet) -> u64 {
    fleet
        .backends
        .iter()
        .map(|b| b.state().cache_stats().misses)
        .sum()
}

// ------------------------------------------------------------ serve_compute

/// Checks one `serve_compute` result payload (a synchronous reply's
/// `result`, or a done job's) against the closed form; `Err` is a wrong
/// output.
fn check_compute(op: &Op, payload: &str) -> Result<(), String> {
    let params = serde_json::from_str(&op.payload).map_err(|e| e.to_string())?;
    let doc = serde_json::from_str(payload).map_err(|e| format!("payload: {e}"))?;
    let param = |name: &str, default: u64| {
        params.get(name).and_then(Value::as_u64).unwrap_or(default) as u32
    };
    let (m, k, f) = (param("m", 2), param("k", 0), param("f", 0));
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
    match op.endpoint {
        "closed_form" => {
            let searchable = f < k && k < m * (f + 1);
            let regime = doc.get("regime").and_then(Value::as_str);
            if searchable != (regime == Some("searchable")) {
                return Err(format!("({m},{k},{f}) answered regime {regime:?}"));
            }
            if searchable {
                let want = a_rays(m, k, f).map_err(|e| e.to_string())?;
                let got = num(doc.get("a"));
                if (got - want).abs() > 1e-12 * want {
                    return Err(format!("A({m},{k},{f}) = {got}, closed form {want}"));
                }
            }
        }
        "evaluate" => {
            // Over this workload's whole evaluate key space the
            // finite-horizon ratio sits below Λ by at most 0.055/horizon
            // (relative; scanned), so 1/horizon bounds it from below.
            let want = a_rays(m, k, f).map_err(|e| e.to_string())?;
            let horizon = num(params.get("horizon"));
            let got = num(doc.get("report").and_then(|r| r.get("ratio")));
            if !(got <= want * (1.0 + 1e-9) && got >= want * (1.0 - 1.0 / horizon)) {
                return Err(format!(
                    "ratio {got} outside [Λ(1 - 1/horizon), Λ(1 + 1e-9)], Λ = {want}"
                ));
            }
        }
        "verdict" => {
            let theory = num(doc.get("theory"));
            let measured = num(doc.get("measured_upper"));
            let want = a_rays(m, k, f).map_err(|e| e.to_string())?;
            if (theory - want).abs() > 1e-12 * want
                || measured.is_nan()
                || measured > theory * (1.0 + 1e-9)
            {
                return Err(format!(
                    "verdict theory {theory} measured {measured}, closed form {want}"
                ));
            }
        }
        "montecarlo" => {
            let comparison = doc.get("comparison");
            let closed = num(comparison.and_then(|c| c.get("closed_form")));
            let within = comparison
                .and_then(|c| c.get("within_worst_case"))
                .and_then(Value::as_bool);
            let want = a_rays(m, k, f).map_err(|e| e.to_string())?;
            if (closed - want).abs() > 1e-12 * want || within != Some(true) {
                return Err(format!(
                    "montecarlo closed form {closed} (want {want}), within worst case {within:?}"
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Job results each client keeps, a seeded uniform sample of its jobs,
/// for the check against a fresh in-process state after the phase.
const JOB_CHECKS: usize = 16;

/// Checks sampled job results byte for byte against
/// `ServiceState::handle`'s answer on a fresh in-process state (empty
/// caches, so nothing the served fleet computed is reused).
fn check_sampled(out: &mut Phase) {
    let reference = ServiceState::new(4096, 16);
    for (op, result) in std::mem::take(&mut out.sampled) {
        let wire = op.wire();
        let Ok(req) = read_request(&mut Cursor::new(wire.as_slice())) else {
            out.outcome
                .mismatch(format!("unparsable request {}", op.render()));
            continue;
        };
        let response = reference.handle(&req);
        if sync_payload(&response.body).map(|p| p.0) != Some(result.as_str()) {
            out.outcome.failed += 1;
            out.outcome.mismatch(format!(
                "serve_compute job {} answered {}, in-process reference {}",
                op.render(),
                clip(&result),
                clip(&response.body)
            ));
        }
    }
}

/// `serve_compute` set-up: bind one backend and prime its compile tier
/// with the geometry pool (one `POST /evaluate` per instance; the last
/// 64 stay resident).
pub fn compute_setup(seed: u64) -> Result<Fleet, String> {
    let fleet = Fleet::start(1, false)?;
    let mut client = Client::new(&fleet.entry());
    for (m, k, f, h) in geometry_pool(seed) {
        let payload = format!("{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":{h}}}");
        match client.call("POST", "/evaluate", Some(&payload)) {
            Ok((200, _)) => {}
            other => {
                fleet.shutdown();
                return Err(format!("priming /evaluate {payload}: {other:?}"));
            }
        }
    }
    Ok(fleet)
}

/// One timed `serve_compute` phase against `addr`.
pub fn compute_phase(addr: &str, seed: u64, seconds: f64, traced: bool, streams: u64) -> Phase {
    let mut out = phase(seconds, traced, streams, |c, deadline, tracer| {
        let mut stats = new_stats(tracer);
        let mut client = Client::new(addr);
        let mut stream = ComputeStream::new(seed, c);
        let mut pick = Rng::new(seed, 300 + c);
        let label = format!("perfbench-{c}");
        let (mut n, mut jobs) = (0, 0u64);
        while Instant::now() < deadline {
            n += 1;
            let req = request_id(c, n);
            let op = stream.next_op();
            stats.outcome.attempted += 1;
            if op.job {
                match run_job(&mut client, &op.job_body(&label), &mut stats.tracer, req) {
                    Ok(done) => match check_compute(&op, &done.result) {
                        Ok(()) => {
                            // reservoir sampling keeps each job with
                            // equal chance
                            jobs += 1;
                            let slot = pick.range(0, jobs - 1) as usize;
                            if stats.sampled.len() < JOB_CHECKS {
                                stats.sampled.push((op, done.result.clone()));
                            } else if slot < JOB_CHECKS {
                                stats.sampled[slot] = (op, done.result.clone());
                            }
                            stats.jobs.push(done);
                        }
                        Err(e) => {
                            stats.outcome.failed += 1;
                            stats
                                .outcome
                                .mismatch(format!("serve_compute {}: {e}", op.render()));
                        }
                    },
                    Err(JobError::Shed) => {
                        stats.shed += 1;
                        stats.outcome.failed += 1;
                    }
                    Err(JobError::Failed(e)) => {
                        stats.outcome.failed += 1;
                        stats.outcome.note(format!("serve_compute job: {e}"));
                    }
                }
                continue;
            }
            let span = stats.tracer.begin("client.request", None, req);
            let started = Instant::now();
            let reply = client.call("POST", &op.sync_path(), Some(&op.payload));
            let micros = started.elapsed().as_nanos() as f64 / 1000.0;
            stats.tracer.end(span);
            match reply {
                Ok((200, body)) => {
                    let checked = sync_payload(&body)
                        .ok_or_else(|| "answer is not a {cached, result} document".to_owned())
                        .and_then(|(payload, _)| check_compute(&op, payload));
                    match checked {
                        Ok(()) => stats.sync_us.push(micros),
                        Err(e) => {
                            stats.outcome.failed += 1;
                            stats
                                .outcome
                                .mismatch(format!("serve_compute {}: {e}", op.render()));
                        }
                    }
                }
                Ok((503, _)) => {
                    stats.shed += 1;
                    stats.outcome.failed += 1;
                }
                Ok((status, body)) => {
                    stats.outcome.failed += 1;
                    stats.outcome.note(format!(
                        "serve_compute {} answered {status} {body}",
                        op.render()
                    ));
                }
                Err(e) => {
                    stats.outcome.failed += 1;
                    stats.outcome.note(format!("serve_compute: {e}"));
                }
            }
        }
        stats
    });
    check_sampled(&mut out);
    out
}
