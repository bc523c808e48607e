//! The `tfim_dense` and `tfim_socket` workloads: the paper's §7.2 TFIM ring
//! annealed from J = 0 to J = 1, one program after another on one backend.

use crate::host;
use crate::layers::{push_layers, Layers};
use crate::reference::{self, Schedule};
use crate::stats::{median, quantile, Metrics, Outcome};
use crate::traced::{thread_backend_ns, LayerStats, Timed};
use crate::{Rng, SETUP_REPEATS};
use qmpi::{
    build_backend_with_policy, run_on_backend, BackendKind, BatchPolicy, NoiseModel, OpCounts,
    QmpiRank, QuantumBackend, ResourceSnapshot, TransportKind, TransportStats,
};
use qsim::Pauli;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RANKS: usize = 2;
/// Trotter steps of the one short program that ends each set-up. It takes
/// every path of a full program (alloc, copies, batches, probes, measure),
/// so caches and worker buffers are warm, yet costs less than the set-up.
const WARMUP_STEPS: usize = 2;
/// Readings agree with the reference to this absolute tolerance.
const TOL: f64 = 1e-9;

/// Program shape and the backend it runs on.
#[derive(Clone, Copy)]
pub struct Shape {
    pub local_spins: usize,
    pub steps: usize,
    pub kind: BackendKind,
    pub transport: TransportKind,
}

/// 2 × 5 spins on the dense engine: 2^10 amplitudes plus the protocol's
/// temporaries stay below `qsim::apply::PAR_THRESHOLD`, so no kernel call
/// spawns threads.
pub const DENSE: Shape = Shape {
    local_spins: 5,
    steps: 120,
    kind: BackendKind::StateVector,
    transport: TransportKind::InProcess,
};

/// 2 × 4 spins on two `qworker` processes over Unix sockets.
pub const SOCKET: Shape = Shape {
    local_spins: 4,
    steps: 25,
    kind: BackendKind::RemoteSharded { shards: 2 },
    transport: TransportKind::UnixSocket,
};

/// What one rank hands back.
struct RankOut {
    readings: Result<Vec<f64>, String>,
    span_ns: u64,
    backend_ns: u64,
}

/// One rank's program: |+…+⟩, the annealing schedule, then readings after
/// a barrier (so no rank's final measurement collapses the state first).
fn rank_program(ctx: &QmpiRank, local: usize, sched: Schedule) -> qmpi::Result<Vec<f64>> {
    let qubits = ctx.alloc_qmem(local);
    for q in &qubits {
        ctx.h(q)?;
    }
    for k in 0..sched.steps {
        let (j, g) = sched.couplings(k);
        qalgo::tfim::trotter_step(ctx, &qubits, j, g, sched.dt)?;
    }
    let mut strings = Vec::new();
    for q in &qubits {
        strings.push(vec![(q, Pauli::Z)]);
        strings.push(vec![(q, Pauli::X)]);
    }
    for w in qubits.windows(2) {
        strings.push(vec![(&w[0], Pauli::Z), (&w[1], Pauli::Z)]);
    }
    ctx.barrier();
    let values = ctx.expectation_each(&strings)?;
    ctx.barrier();
    for q in qubits {
        ctx.measure_and_free(q)?;
    }
    Ok(values)
}

/// A finished program, kept for the checks made after the timed window.
struct Record {
    sched: Schedule,
    readings: Vec<Vec<f64>>,
    resources: ResourceSnapshot,
    buffer_peak: i64,
}

struct Runner {
    shape: Shape,
    backend: Arc<dyn QuantumBackend>,
}

impl Runner {
    /// Builds the backend; a missing `qworker` binary panics in the
    /// library, which is reported like any other construction error.
    fn new(shape: Shape, seed: u64) -> Result<Self, String> {
        let built = catch_unwind(|| {
            build_backend_with_policy(
                shape.kind,
                shape.transport,
                seed,
                NoiseModel::ideal(),
                BatchPolicy::default(),
            )
        });
        let backend = built
            .map_err(|_| "backend construction panicked".to_string())?
            .map_err(|e| e.to_string())?;
        Ok(Runner { shape, backend })
    }

    /// Runs one program; `stats` wraps the backend in the timing layer.
    /// Returns the record (or why it failed) and the per-rank timings.
    fn program(
        &self,
        sched: Schedule,
        seed: u64,
        stats: Option<&Arc<LayerStats>>,
    ) -> (Result<Record, String>, Vec<(u64, u64)>) {
        let local = self.shape.local_spins;
        let policy = BatchPolicy::default();
        let (backend, policy): (Arc<dyn QuantumBackend>, _) = match stats {
            // The wrapper runs the optimizer the rank would have run.
            Some(stats) => (
                Arc::new(Timed::new(Arc::clone(&self.backend), Arc::clone(stats))),
                BatchPolicy {
                    fuse: false,
                    ..policy
                },
            ),
            None => (Arc::clone(&self.backend), policy),
        };
        let cfg = qmpi::QmpiConfig::new()
            .seed(seed)
            .backend(self.shape.kind)
            .batch(policy);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_on_backend(RANKS, cfg, backend, move |ctx| {
                let t0 = Instant::now();
                let b0 = thread_backend_ns();
                let readings = rank_program(ctx, local, sched).map_err(|e| e.to_string());
                RankOut {
                    readings,
                    span_ns: t0.elapsed().as_nanos() as u64,
                    backend_ns: thread_backend_ns() - b0,
                }
            })
        }));
        let run = match run {
            Ok(run) => run,
            Err(_) => return (Err("a rank panicked".into()), Vec::new()),
        };
        let timings = run
            .results
            .iter()
            .map(|r| (r.span_ns, r.backend_ns))
            .collect();
        let readings: Result<Vec<Vec<f64>>, String> =
            run.results.into_iter().map(|r| r.readings).collect();
        let record = readings.map(|readings| Record {
            sched,
            readings,
            resources: run.resources,
            buffer_peak: run.max_buffer_peak,
        });
        (record, timings)
    }
}

/// Draws one program's schedule.
fn schedule(shape: Shape, rng: &mut Rng) -> Schedule {
    Schedule {
        steps: shape.steps,
        dt: 0.05 + 0.3 * rng.unit(),
    }
}

/// Checks one record against the independent reference and the ledger
/// cost of the program's shape (Table 2: an entangled copy costs one EPR
/// pair and one bit, its uncopy one bit; the ring has two cross-rank bonds).
fn check(shape: Shape, rec: &Record) -> Result<(), String> {
    let want = reference::readings(RANKS, shape.local_spins, rec.sched);
    for (rank, (got, want)) in rec.readings.iter().zip(&want).enumerate() {
        if got.len() != want.len() {
            return Err(format!(
                "rank {rank}: {} readings, want {}",
                got.len(),
                want.len()
            ));
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if (g - w).abs() > TOL {
                return Err(format!("rank {rank} reading {i}: {g} vs reference {w}"));
            }
        }
    }
    let steps = rec.sched.steps as u64;
    let (epr, bits) = (rec.resources.epr_pairs, rec.resources.classical_bits);
    if epr != 2 * steps || bits != 4 * steps {
        return Err(format!(
            "ledger {epr} EPR pairs / {bits} bits, want {} / {}",
            2 * steps,
            4 * steps
        ));
    }
    Ok(())
}

/// Runs the workload; an error means the backend could not be built.
pub fn run(shape: Shape, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let mut notes = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: backend (and workers) plus one short warm-up program,
    // repeated so the reported figure is a median; the last runner is kept.
    let mut setups = Vec::new();
    let mut runner = None;
    for _ in 0..SETUP_REPEATS {
        drop(runner.take());
        let t0 = Instant::now();
        let r = Runner::new(shape, rng.next_u64())?;
        let warmup = Schedule {
            steps: WARMUP_STEPS,
            ..schedule(shape, &mut rng)
        };
        let _ = r.program(warmup, rng.next_u64(), None);
        setups.push(t0.elapsed().as_secs_f64());
        runner = Some(r);
    }
    let runner = runner.expect("at least one set-up");

    let mut latencies = Vec::new();
    let mut bare_latencies = Vec::new();
    let mut records = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let sched = schedule(shape, &mut rng);
        let prog_seed = rng.next_u64();
        // In a traced run every other program goes through the timing
        // wrapper; the bare ones give the tracing overhead.
        let traced = trace && attempted.is_multiple_of(2);
        let stats = traced.then(|| Arc::new(LayerStats::default()));
        let before = traced.then(|| Snapshot::take(&*runner.backend));
        let t0 = Instant::now();
        let (record, timings) = runner.program(sched, prog_seed, stats.as_ref());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        attempted += 1;
        if trace && !traced {
            bare_latencies.push(ms);
        } else {
            latencies.push(ms);
        }
        match record {
            Ok(rec) => {
                if let (Some(stats), Some(before)) = (stats, before) {
                    let after = Snapshot::take(&*runner.backend);
                    layers.push(layer_reading(&stats, &timings, &rec, &before, &after));
                }
                records.push(rec);
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("program {attempted} failed: {e}"));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mb();
    let peak_qubits = runner.backend.counts().max_live_qubits;
    drop(runner);

    let mut correct = true;
    for rec in &records {
        if let Err(e) = check(shape, rec) {
            correct = false;
            failed += 1;
            notes.push(format!("check failed: {e}"));
        }
    }

    let mut m = Metrics::default();
    if trace {
        let overhead = median(&latencies) - median(&bare_latencies);
        push_layers(&mut m, &layers, overhead);
    } else {
        m.push("setup_s", median(&setups), "s");
        m.push("programs_per_s", attempted as f64 / elapsed, "1/s");
        m.push("program_ms_p50", median(&latencies), "ms");
        m.push("program_ms_p90", quantile(&latencies, 0.9), "ms");
        m.push("peak_rss_mb", peak_rss, "MiB");
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
        notes,
        peak_qubits: Some(peak_qubits),
    })
}

/// Cumulative backend counters, read before and after a traced program.
struct Snapshot {
    counts: OpCounts,
    transport: TransportStats,
    worker_cpu_ms: f64,
}

impl Snapshot {
    fn take(backend: &dyn QuantumBackend) -> Self {
        Snapshot {
            counts: backend.counts(),
            transport: backend.transport_stats().unwrap_or_default(),
            worker_cpu_ms: host::qworker_children().into_iter().map(host::cpu_ms).sum(),
        }
    }
}

fn layer_reading(
    stats: &LayerStats,
    timings: &[(u64, u64)],
    rec: &Record,
    before: &Snapshot,
    after: &Snapshot,
) -> Layers {
    let get = |c: &AtomicU64| c.load(Relaxed) as f64;
    let ms = |c: &AtomicU64| get(c) / 1e6;
    let self_ms = timings
        .iter()
        .map(|&(span, backend)| span.saturating_sub(backend) as f64 / 1e6)
        .sum::<f64>()
        / timings.len().max(1) as f64;
    let flushes = get(&stats.flushes);
    let backend_ns = get(&stats.batch_ns) + get(&stats.structural_ns) + get(&stats.sync_ns);
    let (c0, c1) = (&before.counts, &after.counts);
    let (t0, t1) = (&before.transport, &after.transport);
    let cmd = (t1.command_rounds - t0.command_rounds) as f64;
    Layers {
        self_ms,
        flushes,
        ops_per_flush: get(&stats.ops_applied) / flushes.max(1.0),
        ops_per_gate: get(&stats.ops_applied) / get(&stats.ops_issued).max(1.0),
        optimize_ms: ms(&stats.optimize_ns),
        sweeps: (c1.gates - c0.gates) as f64,
        peak_qubits: c1.max_live_qubits as f64,
        batch_ms: ms(&stats.batch_ns),
        structural_ms: ms(&stats.structural_ns),
        sync_ms: ms(&stats.sync_ns),
        calls: get(&stats.calls),
        saved_rounds: (t1.coalesced_flushes - t0.coalesced_flushes) as f64,
        cmd_rounds: cmd,
        xchg_rounds: (t1.exchange_rounds - t0.exchange_rounds) as f64,
        wire_kb: (t1.wire_bytes - t0.wire_bytes) as f64 / 1024.0,
        round_us: if cmd > 0.0 {
            backend_ns / 1e3 / cmd
        } else {
            0.0
        },
        worker_cpu_ms: after.worker_cpu_ms - before.worker_cpu_ms,
        epr_pairs: rec.resources.epr_pairs as f64,
        classical_bits: rec.resources.classical_bits as f64,
        buffer_peak: rec.buffer_peak as f64,
        ..Layers::default()
    }
}
