//! Seeded input generators. Everything a workload sends to the program
//! is drawn here from `--seed`, through the benchmark's own SplitMix64
//! (not the program's), so a change to the program can never change
//! the inputs. The *shape* of each workload — endpoint shares, key-space
//! size, geometry-pool size — is fixed by the constants below and does
//! not depend on the seed; the seed only picks which concrete keys fill
//! that shape.

/// The E12 fleet sizes: k ∈ {128, …, 4096} on the line.
pub const SWEEP_FLEETS: [u32; 6] = [128, 256, 512, 1024, 2048, 4096];
/// E12's evaluation horizon.
pub const SWEEP_HORIZON: f64 = 1e12;

// The traffic shares below come from the repository's one recorded
// caller mix, `replay::smoke_mix` (the requests behind the committed
// smoke tape): of its 18 well-formed memoizable requests, 5 are
// closed_form, 7 evaluate, 2 verdict, 3 montecarlo and 1 campaign, and
// 3 of the 18 repeat an earlier request. Where a number is set only to
// exercise a mechanism, its comment says so.

/// Distinct keys in the `serve_hot` key set: `smoke_mix`'s 18 requests
/// times ten (the result LRU holds 4096).
pub const HOT_KEYS: usize = 180;
/// `serve_hot` keys per endpoint, `smoke_mix`'s per-endpoint counts
/// times ten; sums to [`HOT_KEYS`]. Keys are drawn uniformly, so these
/// are also the request shares.
pub const HOT_SHARES: [(&str, usize); 5] = [
    ("closed_form", 50),
    ("evaluate", 70),
    ("verdict", 20),
    ("montecarlo", 30),
    ("campaign", 10),
];
/// One `serve_hot` operation in this many is a job (`POST /jobs` plus a
/// long poll) on a primed montecarlo or campaign key. Set only so the
/// warm job envelope is measured: `smoke_mix` sends no jobs.
pub const HOT_JOB_EVERY: u64 = 50;
/// Monte-Carlo samples per request, as in every `smoke_mix` montecarlo
/// request.
pub const MC_SAMPLES: u64 = 500;

/// Instances in the `serve_compute` geometry pool that verdict and
/// montecarlo requests draw from. Set only to exceed the 64-entry
/// compile tier, so that it evicts.
pub const GEOMETRY_POOL: usize = 96;
/// `serve_compute` operation shares, in eighteenths of operations:
/// `smoke_mix`'s 15 first-time requests and 3 repeats, montecarlo and
/// campaign sent as jobs. One of its 6 first-time evaluates is sent as
/// an above-threshold job instead, so the job path carries evaluates
/// (`load::request_mix` likewise gives its evaluates a large-fleet
/// tail).
pub const COMPUTE_SHARES: [(&str, u64); 7] = [
    ("closed_form", 4),
    ("evaluate", 5),
    ("verdict", 2),
    ("repeat", 3),
    ("job_montecarlo", 2),
    ("job_evaluate", 1),
    ("job_campaign", 1),
];
/// Share denominator of [`COMPUTE_SHARES`].
pub const COMPUTE_SHARE_TOTAL: u64 = 18;
/// How many of a client's recent synchronous requests a `repeat` draws
/// from: `smoke_mix`'s furthest repeat is 16 requests back.
pub const REPEAT_WINDOW: usize = 16;

/// Experiments `/campaign` keys are drawn from, with their `max_k`
/// ranges: the ones a worker finishes in milliseconds.
const CAMPAIGNS: [(&str, u32, u32); 5] = [
    ("e1", 1, 12),
    ("e2", 1, 12),
    ("e3", 1, 12),
    ("e5", 1, 12),
    ("e8", 1, 12),
];

/// The benchmark's own SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

/// The E12 cells for one seed: for each fleet size, four faulty counts,
/// one from each quarter of the searchable band `k/2 ≤ f ≤ k−1`.
pub fn sweep_cells(seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, 1);
    let mut cells = Vec::new();
    for k in SWEEP_FLEETS {
        let (lo, width) = (k / 2, k / 2);
        for quarter in 0..4 {
            let q_lo = lo + quarter * width / 4;
            let q_hi = lo + (quarter + 1) * width / 4 - 1;
            cells.push((k, rng.range(u64::from(q_lo), u64::from(q_hi)) as u32));
        }
    }
    cells
}

/// One request the benchmark sends: a synchronous endpoint call, or a
/// job wrapping the same payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The memoizable endpoint (`"evaluate"`, …).
    pub endpoint: &'static str,
    /// The endpoint's JSON parameters.
    pub payload: String,
    /// Submit through `POST /jobs` instead of the synchronous endpoint.
    pub job: bool,
}

impl Op {
    fn sync(endpoint: &'static str, payload: String) -> Op {
        Op {
            endpoint,
            payload,
            job: false,
        }
    }

    /// The synchronous request line: path and body.
    pub fn sync_path(&self) -> String {
        format!("/{}", self.endpoint)
    }

    /// The `POST /jobs` body: the payload plus the endpoint tag and an
    /// admission label.
    pub fn job_body(&self, client: &str) -> String {
        format!(
            "{{\"endpoint\":\"{}\",\"client\":\"{client}\",{}",
            self.endpoint,
            &self.payload[1..]
        )
    }

    /// Wire bytes of the synchronous request, as the service client
    /// sends them (used for the in-process reference and layer timings).
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nHost: raysearchd\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            self.sync_path(),
            self.payload.len(),
            self.payload
        )
        .into_bytes()
    }

    /// A stable one-line rendering (the determinism test compares these).
    pub fn render(&self) -> String {
        format!(
            "{} {} {}",
            if self.job { "job" } else { "sync" },
            self.endpoint,
            self.payload
        )
    }
}

const HORIZONS_HOT: [&str; 3] = ["1e4", "1e5", "1e6"];
const HORIZONS_COMPUTE: [&str; 3] = ["1e4", "1e6", "1e8"];

/// A draw from stratum `i` of `n` equal strata of `lo..=hi`, so a
/// set of `n` draws spreads over the range the same way for any seed.
fn stratum(rng: &mut Rng, i: usize, n: usize, lo: u64, hi: u64) -> u64 {
    let width = hi - lo + 1;
    let a = lo + width * i as u64 / n as u64;
    let b = (lo + width * (i as u64 + 1) / n as u64).max(a + 1) - 1;
    rng.range(a, b.min(hi))
}

/// A searchable `(m, k, f)` instance (`f < k < m(f+1)`) with `k` in
/// `k_lo..=k_hi`.
fn searchable(rng: &mut Rng, ms: &[u32], k_lo: u32, k_hi: u32) -> (u32, u32, u32) {
    let k = rng.range(u64::from(k_lo), u64::from(k_hi)) as u32;
    searchable_k(rng, ms, k)
}

fn searchable_k(rng: &mut Rng, ms: &[u32], k: u32) -> (u32, u32, u32) {
    let m = *rng.pick(ms);
    let f = rng.range(u64::from(k / m), u64::from(k - 1)) as u32;
    (m, k, f)
}

fn instance_json(m: u32, k: u32, f: u32, horizon: &str) -> String {
    format!("\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":{horizon}")
}

fn campaign_payload(rng: &mut Rng) -> String {
    let (id, lo, hi) = *rng.pick(&CAMPAIGNS);
    let max_k = rng.range(u64::from(lo), u64::from(hi));
    format!("{{\"id\":\"{id}\",\"max_k\":{max_k}}}")
}

/// Key `i` of the `n` hot keys of `endpoint`: fleet sizes, horizons and
/// campaign sizes are stratified over `i`, the rest drawn at random.
fn hot_payload(rng: &mut Rng, endpoint: &str, i: usize, n: usize) -> String {
    let h = HORIZONS_HOT[i % HORIZONS_HOT.len()];
    let mut k_in = |hi: u64| stratum(rng, i, n, 1, hi) as u32;
    match endpoint {
        "closed_form" => {
            let k = k_in(64);
            let m = rng.range(2, 4) as u32;
            let f = rng.range(0, u64::from(k - 1)) as u32;
            format!("{{\"m\":{m},\"k\":{k},\"f\":{f}}}")
        }
        "evaluate" => {
            let k = k_in(48);
            let (m, k, f) = searchable_k(rng, &[2, 3], k);
            format!("{{{}}}", instance_json(m, k, f, h))
        }
        "verdict" => {
            let k = k_in(24);
            let (m, k, f) = searchable_k(rng, &[2, 3], k);
            let eps = rng.pick(&["0.01", "0.02", "0.05"]);
            format!("{{{},\"eps\":{eps}}}", instance_json(m, k, f, h))
        }
        "montecarlo" => {
            let k = k_in(24);
            let (m, k, f) = searchable_k(rng, &[2], k);
            let seed = rng.range(1, 1 << 32);
            let faults = rng.pick(&["uniform", "worst"]);
            format!(
                "{{{},\"samples\":{MC_SAMPLES},\"seed\":{seed},\"faults\":\"{faults}\"}}",
                instance_json(m, k, f, h)
            )
        }
        "campaign" => {
            let (id, lo, hi) = CAMPAIGNS[i % CAMPAIGNS.len()];
            let per_id = n.div_ceil(CAMPAIGNS.len());
            let max_k = stratum(
                rng,
                i / CAMPAIGNS.len(),
                per_id,
                u64::from(lo),
                u64::from(hi),
            );
            format!("{{\"id\":\"{id}\",\"max_k\":{max_k}}}")
        }
        other => unreachable!("no hot endpoint {other}"),
    }
}

/// The `serve_hot` key set: [`HOT_KEYS`] distinct synchronous requests
/// with exactly [`HOT_SHARES`] per endpoint.
pub fn hot_keys(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 2);
    let mut keys: Vec<Op> = Vec::with_capacity(HOT_KEYS);
    for (endpoint, count) in HOT_SHARES {
        let mut made = 0;
        while made < count {
            let op = Op::sync(endpoint, hot_payload(&mut rng, endpoint, made, count));
            if !keys.contains(&op) {
                keys.push(op);
                made += 1;
            }
        }
    }
    keys
}

/// One `serve_hot` client's operation stream: indices into the key set,
/// with every [`HOT_JOB_EVERY`]-th operation a job on a job-eligible key.
#[derive(Debug)]
pub struct HotStream {
    rng: Rng,
    keys: usize,
    job_keys: Vec<usize>,
    n: u64,
}

impl HotStream {
    pub fn new(seed: u64, client: u64, keys: &[Op]) -> HotStream {
        HotStream {
            rng: Rng::new(seed, 100 + client),
            keys: keys.len(),
            job_keys: keys
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op.endpoint, "montecarlo" | "campaign"))
                .map(|(i, _)| i)
                .collect(),
            n: 0,
        }
    }

    /// The next `(key index, as a job)` pair.
    pub fn next_op(&mut self) -> (usize, bool) {
        self.n += 1;
        if self.n.is_multiple_of(HOT_JOB_EVERY) {
            (*self.rng.pick(&self.job_keys), true)
        } else {
            (self.rng.range(0, self.keys as u64 - 1) as usize, false)
        }
    }
}

/// The `serve_compute` geometry pool: searchable line instances, fleet
/// sizes stratified over the pool, that verdict and montecarlo
/// requests share.
pub fn geometry_pool(seed: u64) -> Vec<(u32, u32, u32, &'static str)> {
    let mut rng = Rng::new(seed, 3);
    let mut pool = Vec::with_capacity(GEOMETRY_POOL);
    while pool.len() < GEOMETRY_POOL {
        let i = pool.len();
        let k = stratum(&mut rng, i, GEOMETRY_POOL, 4, 64) as u32;
        let (m, k, f) = searchable_k(&mut rng, &[2], k);
        let h = HORIZONS_COMPUTE[i % HORIZONS_COMPUTE.len()];
        if !pool.contains(&(m, k, f, h)) {
            pool.push((m, k, f, h));
        }
    }
    pool
}

/// One `serve_compute` client's stream of mostly first-time keys.
#[derive(Debug)]
pub struct ComputeStream {
    rng: Rng,
    pool: Vec<(u32, u32, u32, &'static str)>,
    recent: Vec<Op>,
}

impl ComputeStream {
    pub fn new(seed: u64, client: u64) -> ComputeStream {
        ComputeStream {
            rng: Rng::new(seed, 200 + client),
            pool: geometry_pool(seed),
            recent: Vec::with_capacity(REPEAT_WINDOW),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let mut roll = self.rng.range(0, COMPUTE_SHARE_TOTAL - 1);
        let mut kind = COMPUTE_SHARES[0].0;
        for (name, share) in COMPUTE_SHARES {
            if roll < share {
                kind = name;
                break;
            }
            roll -= share;
        }
        let rng = &mut self.rng;
        let op = match kind {
            "repeat" if !self.recent.is_empty() => {
                return rng.pick(&self.recent).clone();
            }
            "closed_form" | "repeat" => {
                let m = rng.range(2, 8) as u32;
                let k = rng.range(1, 4096) as u32;
                let f = rng.range(0, u64::from(k - 1)) as u32;
                Op::sync("closed_form", format!("{{\"m\":{m},\"k\":{k},\"f\":{f}}}"))
            }
            "evaluate" => {
                let (m, k, f) = searchable(rng, &[2, 3], 8, 96);
                let h = *rng.pick(&HORIZONS_COMPUTE);
                Op::sync("evaluate", format!("{{{}}}", instance_json(m, k, f, h)))
            }
            "verdict" => {
                let (m, k, f, h) = *rng.pick(&self.pool);
                let eps = rng.range(100, 5000) as f64 / 100_000.0;
                Op::sync(
                    "verdict",
                    format!("{{{},\"eps\":{eps}}}", instance_json(m, k, f, h)),
                )
            }
            "job_montecarlo" => {
                let (m, k, f, h) = *rng.pick(&self.pool);
                let seed = rng.range(1, 1 << 40);
                Op {
                    endpoint: "montecarlo",
                    payload: format!(
                        "{{{},\"samples\":{MC_SAMPLES},\"seed\":{seed},\"faults\":\"uniform\"}}",
                        instance_json(m, k, f, h)
                    ),
                    job: true,
                }
            }
            "job_evaluate" => {
                // k·m·(f+2) ≥ 2^16 clears the job cost threshold
                let k = rng.range(256, 1024) as u32;
                let f = rng.range(u64::from(k / 2), u64::from(k - 1)) as u32;
                Op {
                    endpoint: "evaluate",
                    payload: format!("{{{}}}", instance_json(2, k, f, "1e6")),
                    job: true,
                }
            }
            "job_campaign" => Op {
                endpoint: "campaign",
                payload: campaign_payload(rng),
                job: true,
            },
            other => unreachable!("no compute op {other}"),
        };
        if !op.job {
            if self.recent.len() == REPEAT_WINDOW {
                let slot = self.rng.range(0, REPEAT_WINDOW as u64 - 1) as usize;
                self.recent[slot] = op.clone();
            } else {
                self.recent.push(op.clone());
            }
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_bytes(seed: u64, client: u64, n: usize) -> String {
        let mut stream = ComputeStream::new(seed, client);
        (0..n).map(|_| stream.next_op().render() + "\n").collect()
    }

    fn hot_bytes(seed: u64) -> String {
        let keys = hot_keys(seed);
        let mut out: String = keys.iter().map(|op| op.render() + "\n").collect();
        for client in 0..2 {
            let mut stream = HotStream::new(seed, client, &keys);
            for _ in 0..2000 {
                out.push_str(&format!("{:?}\n", stream.next_op()));
            }
        }
        out
    }

    #[test]
    fn one_seed_yields_a_byte_identical_input_stream() {
        for seed in [1, 7, 20_261_017] {
            assert_eq!(sweep_cells(seed), sweep_cells(seed));
            assert_eq!(hot_bytes(seed), hot_bytes(seed));
            for client in 0..2 {
                assert_eq!(
                    compute_bytes(seed, client, 5000),
                    compute_bytes(seed, client, 5000)
                );
            }
        }
        assert_ne!(hot_bytes(1), hot_bytes(2), "the seed must matter");
        assert_ne!(compute_bytes(1, 0, 100), compute_bytes(2, 0, 100));
        assert_ne!(compute_bytes(1, 0, 100), compute_bytes(1, 1, 100));
    }

    #[test]
    fn sweep_cells_cover_each_quarter_of_the_band() {
        for seed in 0..50 {
            let cells = sweep_cells(seed);
            assert_eq!(cells.len(), 24);
            for (i, &(k, f)) in cells.iter().enumerate() {
                let quarter = (i % 4) as u32;
                assert!(f >= k / 2 + quarter * k / 8 && f < k / 2 + (quarter + 1) * k / 8);
                assert!(f < k && k < 2 * (f + 1), "({k}, {f}) is searchable");
            }
        }
    }

    #[test]
    fn shapes_do_not_depend_on_the_seed() {
        assert_eq!(HOT_SHARES.iter().map(|s| s.1).sum::<usize>(), HOT_KEYS);
        assert_eq!(
            COMPUTE_SHARES.iter().map(|s| s.1).sum::<u64>(),
            COMPUTE_SHARE_TOTAL
        );
        for seed in [3, 4] {
            let keys = hot_keys(seed);
            for (endpoint, count) in HOT_SHARES {
                assert_eq!(
                    keys.iter().filter(|op| op.endpoint == endpoint).count(),
                    count
                );
            }
            assert_eq!(geometry_pool(seed).len(), GEOMETRY_POOL);
        }
    }

    #[test]
    fn job_evaluates_clear_the_cost_threshold() {
        let mut stream = ComputeStream::new(5, 0);
        for _ in 0..20_000 {
            let op = stream.next_op();
            if op.job && op.endpoint == "evaluate" {
                let v = serde_json::from_str(&op.payload).expect("payload parses");
                let k = v.get("k").and_then(|x| x.as_u64()).expect("k");
                let f = v.get("f").and_then(|x| x.as_u64()).expect("f");
                assert!(k * 2 * (f + 2) >= 1 << 16);
            }
        }
    }
}
