//! Kill-a-backend integration test: a router over three real
//! `raysearchd` child processes keeps serving byte-identical responses
//! when one backend is SIGKILLed mid-replay, grows only the failover
//! counter, reports itself degraded, and recovers once the backend is
//! respawned (on a fresh ephemeral port, rediscovered through its port
//! file).
//!
//! Health passes are driven manually (`check_backends_now`) instead of
//! through the background thread, so the router's health view at every
//! step — stale right after the kill, refreshed after the pass — is
//! deterministic.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use raysearch_service::backends::BackendFleet;
use raysearch_service::client::HttpClient;
use raysearch_service::http::Request;
use raysearch_service::replay::{replay, smoke_mix};
use raysearch_service::route::{rendezvous_rank, RouterState};
use raysearch_service::routing_key;
use raysearch_service::server::{Server, ServerConfig};
use raysearch_service::tape::{Tape, TapeEntry, TapeRecorder};
use serde_json::Value;

/// Rebuilds the `Request` a tape entry describes, for offline shard
/// prediction.
fn entry_request(entry: &TapeEntry) -> Request {
    let (path, query_text) = match entry.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (entry.target.as_str(), ""),
    };
    let query = query_text
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (pair.to_owned(), String::new()),
        })
        .collect();
    Request {
        method: entry.method.clone(),
        version: "HTTP/1.1".to_owned(),
        path: path.to_owned(),
        query,
        headers: Vec::new(),
        body: entry.body.as_bytes().to_vec(),
    }
}

/// Fetches the router's `/healthz` status string.
fn healthz_status(addr: &str) -> String {
    let (status, body) = HttpClient::connect(addr)
        .expect("connect router")
        .request("GET", "/healthz", None)
        .expect("healthz");
    assert_eq!(status, 200);
    let doc: Value = serde_json::from_str(&body).expect("healthz is JSON");
    doc.get("status")
        .and_then(Value::as_str)
        .expect("healthz carries a status")
        .to_owned()
}

fn router_config() -> ServerConfig {
    ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    }
}

#[test]
fn sigkilled_backend_fails_over_without_wrong_bytes() {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_raysearchd"));
    let dir = std::env::temp_dir().join(format!("raysearch-kill-{}", std::process::id()));
    let mut fleet = BackendFleet::spawn(&bin, 3, &dir).expect("spawn fleet");
    fleet
        .wait_ready(Duration::from_secs(10))
        .expect("backends ready");

    // --- record a tape through a recording router over the fleet ---
    let tape_path = dir.join("kill.tape");
    {
        let recorder = TapeRecorder::create(&tape_path).expect("create tape");
        let state = Arc::new(RouterState::new(fleet.specs(), Some(recorder)));
        assert_eq!(state.check_backends_now(), 3, "all backends healthy");
        let router = Server::bind_with(router_config(), state)
            .expect("bind recording router")
            .spawn();
        let addr = router.addr().to_string();
        let mut client = HttpClient::connect(&addr).expect("connect recording router");
        for (method, target, body) in smoke_mix() {
            client
                .request(method, &target, Some(&body))
                .expect("recording request");
        }
        router.shutdown();
    }
    let tape = Tape::load(&tape_path).expect("load tape");
    assert_eq!(tape.entries.len(), smoke_mix().len());

    // --- a fresh router over the same (still warm) fleet ---
    let state = Arc::new(RouterState::new(fleet.specs(), None));
    assert_eq!(state.check_backends_now(), 3);
    let router = Server::bind_with(router_config(), Arc::clone(&state))
        .expect("bind router")
        .spawn();
    let addr = router.addr().to_string();
    assert_eq!(healthz_status(&addr), "ok");

    // healthy replay: everything matches, nothing fails over
    let healthy_pass = replay(&addr, &tape, 4).expect("healthy replay");
    assert_eq!(healthy_pass.mismatched, 0, "{}", healthy_pass.fingerprint());
    assert_eq!(healthy_pass.transport_errors, 0);
    assert_eq!(healthy_pass.sheds, 0);
    assert_eq!(state.failover_total(), 0);
    // the pass's client-side percentiles: every endpoint timed, each
    // ladder ordered, and every request in exactly one histogram
    let endpoints = &healthy_pass.endpoints;
    assert!(
        endpoints.iter().any(|e| e.endpoint == "evaluate"),
        "{endpoints:?}"
    );
    for e in endpoints {
        assert!(e.requests > 0, "{e:?}");
        assert!(
            e.p50_micros <= e.p90_micros
                && e.p90_micros <= e.p95_micros
                && e.p95_micros <= e.p99_micros
                && e.p99_micros <= e.max_micros,
            "{e:?}"
        );
    }
    assert_eq!(
        endpoints.iter().map(|e| e.requests).sum::<u64>(),
        healthy_pass.requests
    );

    // --- pick the victim: the backend owning the most tape keys, so
    // the kill is guaranteed to sit in the replay's path ---
    let ids = state.backend_ids();
    let mut owned = vec![0usize; ids.len()];
    for entry in &tape.entries {
        let key = routing_key(&entry_request(entry));
        owned[rendezvous_rank(&ids, &key)[0]] += 1;
    }
    let victim = (0..ids.len()).max_by_key(|&i| owned[i]).unwrap();
    assert!(owned[victim] > 0, "victim owns no keys: {owned:?}");

    // SIGKILL it and replay immediately — the router's health view is
    // still stale, so requests the victim owned hit a dead socket and
    // must fail over down the rendezvous ranking
    fleet.kill(victim);
    let degraded_pass = replay(&addr, &tape, 4).expect("degraded replay");
    assert_eq!(
        degraded_pass.mismatched, 0,
        "wrong bytes after kill: {:?}",
        degraded_pass.mismatch_details
    );
    assert_eq!(
        degraded_pass.transport_errors, 0,
        "failover must hide the crash"
    );
    assert_eq!(degraded_pass.sheds, 0);
    assert_eq!(degraded_pass.matched, degraded_pass.requests);
    assert!(
        state.failover_total() > 0,
        "the kill only shows up as failover-counter growth"
    );

    // a health pass notices; /healthz degrades
    assert_eq!(state.check_backends_now(), 2);
    assert_eq!(healthz_status(&addr), "degraded");

    // --- respawn under the same logical id (new ephemeral port) ---
    fleet.respawn(victim).expect("respawn victim");
    let deadline = Instant::now() + Duration::from_secs(10);
    while state.check_backends_now() < 3 {
        assert!(
            Instant::now() < deadline,
            "respawned backend never turned healthy"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(healthz_status(&addr), "ok");

    // recovered replay: byte-identical again, no new failover hops
    let failovers_before = state.failover_total();
    let recovered_pass = replay(&addr, &tape, 4).expect("recovered replay");
    assert_eq!(
        recovered_pass.mismatched,
        0,
        "{}",
        recovered_pass.fingerprint()
    );
    assert_eq!(recovered_pass.transport_errors, 0);
    assert_eq!(recovered_pass.matched, recovered_pass.requests);
    assert_eq!(state.failover_total(), failovers_before);

    router.shutdown();
    drop(fleet);
    std::fs::remove_dir_all(&dir).ok();
}
