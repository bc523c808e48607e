//! The `serve_mix` workload: a closed loop of qserve jobs from four tenants
//! over an in-process shard-worker pool.
//!
//! One generator thread keeps two jobs in flight and the server runs one at
//! a time, so a job is usually queued behind another. The mix repeats in
//! whole rounds of [`ROUND`], shuffled per round from the seed.

use crate::layers::{push_layers, Layers};
use crate::stats::{median, quantile, Metrics, Outcome};
use crate::{host, Rng, SETUP_REPEATS};
use qmpi::{BackendKind, BcastAlgorithm, NoiseModel, QmpiRank};
use qserve::{JobBackend, JobHandle, JobOutput, JobServer, JobSpec, ServerConfig};
use qsim::Pauli;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const TOL: f64 = 1e-9;
const TENANTS: usize = 4;
const IN_FLIGHT: usize = 2;
/// Depolarizing rate of the noisy teleport (every op class).
const NOISE_P: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// 2-rank pooled teleport of Ry(θ)|0⟩.
    Teleport,
    /// 4-rank pooled exp(−iφ/2 Z⊗Z⊗Z⊗Z) through `qalgo::parity::in_place`.
    Parity,
    /// 4-rank cat-state broadcast on a spawned stabilizer engine.
    CatBcast,
    /// The teleport under depolarizing noise.
    NoisyTeleport,
}

/// Every kind, in declaration order (`kind as usize` indexes it).
const KINDS: [Kind; 4] = [
    Kind::Teleport,
    Kind::Parity,
    Kind::CatBcast,
    Kind::NoisyTeleport,
];

/// One round of the mix.
const ROUND: [(Kind, usize); 4] = [
    (Kind::Teleport, 2),
    (Kind::Parity, 5),
    (Kind::CatBcast, 2),
    (Kind::NoisyTeleport, 1),
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Teleport => "teleport",
            Kind::Parity => "parity",
            Kind::CatBcast => "cat_bcast",
            Kind::NoisyTeleport => "noisy_teleport",
        }
    }

    fn ranks(self) -> usize {
        match self {
            Kind::Teleport | Kind::NoisyTeleport => 2,
            Kind::Parity | Kind::CatBcast => 4,
        }
    }

    /// Ledger cost of one job (Tables 2 and 3): a teleport is one EPR pair
    /// and two bits; the in-place parity over k = 4 ranks is 2(k−1) remote
    /// CNOTs of one pair and two bits each; the cat broadcast is k−1 pairs,
    /// one bit per interior merge and k−1 outcome bits.
    fn ledger(self) -> (u64, u64) {
        match self {
            Kind::Teleport | Kind::NoisyTeleport => (1, 2),
            Kind::Parity => (6, 12),
            Kind::CatBcast => (3, 5),
        }
    }
}

/// Angles of one job.
#[derive(Clone, Copy)]
struct Params {
    theta: [f64; 4],
    phi: f64,
}

fn teleport(ctx: &QmpiRank, theta: f64) -> qmpi::Result<f64> {
    if ctx.rank() == 0 {
        let q = ctx.alloc_one();
        ctx.ry(&q, theta)?;
        ctx.send_move(q, 1, 0)?;
        ctx.barrier();
        ctx.barrier();
        Ok(0.0)
    } else {
        let q = ctx.recv_move(0, 0)?;
        ctx.barrier();
        let z = ctx.expectation(&[(&q, Pauli::Z)])?;
        ctx.barrier();
        ctx.measure_and_free(q)?;
        Ok(z)
    }
}

fn parity(ctx: &QmpiRank, p: Params) -> qmpi::Result<f64> {
    let q = ctx.alloc_one();
    ctx.ry(&q, p.theta[ctx.rank()])?;
    qalgo::parity::in_place(ctx, &q, p.phi)?;
    ctx.barrier();
    let x = ctx.expectation(&[(&q, Pauli::X)])?;
    ctx.barrier();
    ctx.measure_and_free(q)?;
    Ok(x)
}

fn cat_bcast(ctx: &QmpiRank) -> qmpi::Result<f64> {
    let share = if ctx.rank() == 0 {
        let q = ctx.alloc_one();
        ctx.h(&q)?;
        ctx.bcast_with(BcastAlgorithm::CatState, Some(&q), 0)?;
        q
    } else {
        ctx.bcast_with(BcastAlgorithm::CatState, None, 0)?
            .ok_or_else(|| qmpi::QmpiError::Protocol("bcast gave no copy".into()))?
    };
    Ok(f64::from(u8::from(ctx.measure_and_free(share)?)))
}

type Handle = JobHandle<Result<f64, String>>;

fn submit(
    server: &JobServer,
    kind: Kind,
    p: Params,
    tenant: String,
    seed: u64,
) -> Result<Handle, String> {
    let spec = JobSpec::new(tenant, kind.ranks()).seed(seed);
    let spec = match kind {
        Kind::CatBcast => spec.backend(JobBackend::Spawn(BackendKind::Stabilizer)),
        Kind::NoisyTeleport => spec.noise(NoiseModel::depolarizing(NOISE_P)),
        Kind::Teleport | Kind::Parity => spec,
    };
    let handle = match kind {
        Kind::Teleport | Kind::NoisyTeleport => server.submit(spec, move |ctx| {
            teleport(ctx, p.theta[0]).map_err(|e| e.to_string())
        }),
        Kind::Parity => server.submit(spec, move |ctx| parity(ctx, p).map_err(|e| e.to_string())),
        Kind::CatBcast => server.submit(spec, |ctx| cat_bcast(ctx).map_err(|e| e.to_string())),
    };
    handle.map_err(|e| e.to_string())
}

/// Checks one job's per-rank readings against its closed form.
fn check(kind: Kind, p: Params, out: &[f64], ledger: (u64, u64)) -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() <= TOL;
    let ok = match kind {
        Kind::Teleport => close(out[1], p.theta[0].cos()),
        Kind::NoisyTeleport => close(out[1].abs(), p.theta[0].cos().abs()),
        Kind::Parity => (0..4).all(|r| close(out[r], p.theta[r].sin() * p.phi.cos())),
        Kind::CatBcast => out.iter().all(|&m| m == out[0]),
    };
    if !ok {
        return Err(format!("{}: readings {out:?}", kind.name()));
    }
    if ledger != kind.ledger() {
        return Err(format!(
            "{}: ledger {ledger:?}, want {:?}",
            kind.name(),
            kind.ledger()
        ));
    }
    Ok(())
}

fn server() -> JobServer {
    JobServer::new(ServerConfig {
        s_capacity: 64,
        max_concurrent: 1,
        pool_slots: 1,
        pool_shards: 2,
        ..ServerConfig::default()
    })
}

fn draw(rng: &mut Rng) -> Params {
    let mut theta = [0.0; 4];
    for t in &mut theta {
        *t = std::f64::consts::PI * rng.unit();
    }
    Params {
        theta,
        phi: std::f64::consts::PI * rng.unit(),
    }
}

/// One round of the mix in a seeded order.
fn round_of(rng: &mut Rng) -> Vec<Kind> {
    let mut round: Vec<Kind> = ROUND
        .iter()
        .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
        .collect();
    rng.shuffle(&mut round);
    round
}

struct InFlight {
    kind: Kind,
    params: Params,
    submitted: Instant,
    handle: Handle,
}

/// A job the generator has finished with.
struct Done {
    kind: Kind,
    params: Params,
    /// Submit to result; `None` when the submission was refused.
    latency_ms: Option<f64>,
    output: Result<JobOutput<Result<f64, String>>, String>,
}

/// The closed-loop generator: at most [`IN_FLIGHT`] jobs submitted and not
/// yet waited for, waited for oldest first.
struct Generator<'a> {
    server: &'a JobServer,
    inflight: VecDeque<InFlight>,
    submitted: usize,
    done: Vec<Done>,
}

impl<'a> Generator<'a> {
    fn new(server: &'a JobServer) -> Self {
        Generator {
            server,
            inflight: VecDeque::new(),
            submitted: 0,
            done: Vec::new(),
        }
    }

    /// Submits one job of `kind`, first waiting for the oldest job when
    /// the loop is full.
    fn submit(&mut self, kind: Kind, rng: &mut Rng) {
        if self.inflight.len() == IN_FLIGHT {
            self.wait_oldest();
        }
        let params = draw(rng);
        let tenant = format!("tenant{}", self.submitted % TENANTS);
        self.submitted += 1;
        let submitted = Instant::now();
        match submit(self.server, kind, params, tenant, rng.next_u64()) {
            Ok(handle) => self.inflight.push_back(InFlight {
                kind,
                params,
                submitted,
                handle,
            }),
            Err(e) => self.done.push(Done {
                kind,
                params,
                latency_ms: None,
                output: Err(format!("submit refused: {e}")),
            }),
        }
    }

    /// Waits for the oldest job in flight; false when none is.
    fn wait_oldest(&mut self) -> bool {
        let Some(job) = self.inflight.pop_front() else {
            return false;
        };
        let output = job.handle.wait().map_err(|e| e.to_string());
        self.done.push(Done {
            kind: job.kind,
            params: job.params,
            latency_ms: Some(job.submitted.elapsed().as_secs_f64() * 1e3),
            output,
        });
        true
    }

    fn drain(&mut self) {
        while self.wait_oldest() {}
    }
}

/// Running totals of the timed window.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
    latencies: Vec<f64>,
    per_kind: [Vec<f64>; 4],
    layers: Vec<Layers>,
    notes: Vec<String>,
}

impl Tally {
    /// Checks and records one finished job.
    fn record(&mut self, job: Done, trace: bool) {
        self.attempted += 1;
        if let Some(ms) = job.latency_ms {
            self.latencies.push(ms);
            self.per_kind[job.kind as usize].push(ms);
        }
        let out = match job.output {
            Ok(out) => out,
            Err(e) => {
                self.failed += 1;
                self.notes
                    .push(format!("{} job failed: {e}", job.kind.name()));
                return;
            }
        };
        let r = &out.report;
        let ledger = (r.resources.epr_pairs, r.resources.classical_bits);
        let readings: Result<Vec<f64>, String> = out.results.into_iter().collect();
        // A rank's error makes the job failed; a wrong answer also makes
        // the run incorrect.
        let checked = readings.and_then(|v| {
            check(job.kind, job.params, &v, ledger).inspect_err(|_| self.correct = false)
        });
        if let Err(e) = checked {
            self.failed += 1;
            self.notes.push(format!("job {}: {e}", r.job_id));
            return;
        }
        if trace {
            let queue_ms = r.queued.as_secs_f64() * 1e3;
            let wall_ms = r.wall.as_secs_f64() * 1e3;
            // `wire_kb` stays 0: a pooled job's `wire_bytes` is the pool
            // slot's running total, not the job's (see README.md).
            let t = r.transport.unwrap_or_default();
            self.layers.push(Layers {
                sweeps: r.counts.gates as f64,
                peak_qubits: r.counts.max_live_qubits as f64,
                saved_rounds: t.coalesced_flushes as f64,
                cmd_rounds: t.command_rounds as f64,
                xchg_rounds: t.exchange_rounds as f64,
                epr_pairs: r.resources.epr_pairs as f64,
                classical_bits: r.resources.classical_bits as f64,
                buffer_peak: r.max_buffer_peak as f64,
                queue_ms,
                job_wall_ms: wall_ms,
                overhead_ms: job.latency_ms.unwrap_or(0.0) - queue_ms - wall_ms,
                ..Layers::default()
            });
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut rng = Rng::new(seed);

    // Set-up: server and pool plus one warm-up job of each kind, repeated
    // so the reported figure is a median; the last server is kept.
    let mut setups = Vec::new();
    let mut server_slot = None;
    for _ in 0..SETUP_REPEATS {
        drop(server_slot.take());
        let t0 = Instant::now();
        let server = server();
        let mut gen = Generator::new(&server);
        for kind in KINDS {
            gen.submit(kind, &mut rng);
        }
        gen.drain();
        setups.push(t0.elapsed().as_secs_f64());
        server_slot = Some(server);
    }
    let server = server_slot.expect("at least one set-up");

    // Whole rounds only, so every run attempts the same mix.
    let mut tally = Tally {
        correct: true,
        ..Tally::default()
    };
    let mut gen = Generator::new(&server);
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        for kind in round_of(&mut rng) {
            gen.submit(kind, &mut rng);
        }
        // Checked as the loop goes, so memory does not grow with the run.
        for job in std::mem::take(&mut gen.done) {
            tally.record(job, trace);
        }
    }
    gen.drain();
    let elapsed = start.elapsed().as_secs_f64();
    for job in std::mem::take(&mut gen.done) {
        tally.record(job, trace);
    }
    let peak_rss = host::peak_rss_mb();
    drop(gen);
    drop(server);

    let mut notes = tally.notes;
    for (k, lat) in KINDS.iter().zip(&tally.per_kind) {
        notes.push(format!(
            "{}: {} jobs, p50 {:.3} ms, p90 {:.3} ms",
            k.name(),
            lat.len(),
            median(lat),
            quantile(lat, 0.9)
        ));
    }
    let latencies = &tally.latencies;
    let mut m = Metrics::default();
    if trace {
        push_layers(&mut m, &tally.layers, 0.0);
    } else {
        m.push("setup_s", median(&setups), "s");
        m.push("programs_per_s", tally.attempted as f64 / elapsed, "1/s");
        m.push("program_ms_p50", median(latencies), "ms");
        m.push("program_ms_p90", quantile(latencies, 0.9), "ms");
        m.push("peak_rss_mb", peak_rss, "MiB");
    }
    Outcome {
        correct: tally.correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes,
        peak_qubits: None,
    }
}
