//! A timing [`QuantumBackend`] that wraps another backend and measures
//! each layer from outside the library.
//!
//! Every trait method is forwarded, the defaulted ones too, so the wrapped
//! backend behaves exactly like the bare one. The rank layer's plan-time
//! optimizer moves into the wrapper: a traced world runs with
//! `BatchPolicy::fuse` off, and [`Timed::apply_batch`] calls
//! [`qsim::optimize`] on every batch, as the rank would have. The backend
//! therefore receives the same op stream, and the wrapper sees both the
//! gates the program issued and the ops that reach the engine.

use qmpi::{BackendKind, NoiseModel, OpCounts, QmpiError, QuantumBackend, TransportStats};
use qsim::{Gate, GateBatch, Pauli, QubitId, State};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

type Result<T> = std::result::Result<T, QmpiError>;

thread_local! {
    /// Nanoseconds this thread spent inside wrapped backend calls. Ranks
    /// are threads, so a rank reads it before and after its program.
    static BACKEND_NS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds the calling thread has spent inside [`Timed`] backend calls.
pub fn thread_backend_ns() -> u64 {
    BACKEND_NS.with(Cell::get)
}

/// Counters for one traced program. All are statistics; nothing else is
/// published through them, so relaxed ordering suffices.
#[derive(Default)]
pub struct LayerStats {
    /// Time in `apply_batch` and the per-gate calls.
    pub batch_ns: AtomicU64,
    /// Time in alloc, free, measurement, EPR establishment and probes.
    pub structural_ns: AtomicU64,
    /// Time in `sync_coalesced`.
    pub sync_ns: AtomicU64,
    /// Time in `qsim::optimize` (rank-side work, not backend time).
    pub optimize_ns: AtomicU64,
    /// Timed backend calls.
    pub calls: AtomicU64,
    /// Calls to `apply_batch`.
    pub flushes: AtomicU64,
    /// Gate ops the program issued (before optimization).
    pub ops_issued: AtomicU64,
    /// Ops that reached the backend (after optimization; a per-gate call
    /// counts as one).
    pub ops_applied: AtomicU64,
}

/// The timing wrapper. It runs the optimizer on every batch, so wrap only
/// worlds that would have fused, and run them with `fuse` off.
pub struct Timed {
    inner: Arc<dyn QuantumBackend>,
    stats: Arc<LayerStats>,
}

impl Timed {
    /// Wraps `inner`; the caller keeps `stats` to read after the world ends.
    pub fn new(inner: Arc<dyn QuantumBackend>, stats: Arc<LayerStats>) -> Self {
        Timed { inner, stats }
    }

    fn timed<T>(&self, bucket: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        bucket.fetch_add(ns, Relaxed);
        self.stats.calls.fetch_add(1, Relaxed);
        BACKEND_NS.with(|c| c.set(c.get() + ns));
        out
    }

    fn structural<T>(&self, f: impl FnOnce() -> T) -> T {
        self.timed(&self.stats.structural_ns, f)
    }

    fn gate<T>(&self, f: impl FnOnce() -> T) -> T {
        self.stats.ops_issued.fetch_add(1, Relaxed);
        self.stats.ops_applied.fetch_add(1, Relaxed);
        self.timed(&self.stats.batch_ns, f)
    }
}

impl QuantumBackend for Timed {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn noise(&self) -> NoiseModel {
        self.inner.noise()
    }

    fn modeled_fidelity(&self) -> Option<f64> {
        self.inner.modeled_fidelity()
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        self.inner.transport_stats()
    }

    fn sync_coalesced(&self) -> Result<()> {
        self.timed(&self.stats.sync_ns, || self.inner.sync_coalesced())
    }

    fn alloc(&self, rank: usize, n: usize) -> Vec<QubitId> {
        self.structural(|| self.inner.alloc(rank, n))
    }

    fn free(&self, rank: usize, q: QubitId) -> Result<bool> {
        self.structural(|| self.inner.free(rank, q))
    }

    fn measure_and_free(&self, rank: usize, q: QubitId) -> Result<bool> {
        self.structural(|| self.inner.measure_and_free(rank, q))
    }

    fn owner_of(&self, q: QubitId) -> Option<usize> {
        self.inner.owner_of(q)
    }

    fn apply(&self, rank: usize, gate: Gate, q: QubitId) -> Result<()> {
        self.gate(|| self.inner.apply(rank, gate, q))
    }

    fn cnot(&self, rank: usize, control: QubitId, target: QubitId) -> Result<()> {
        self.gate(|| self.inner.cnot(rank, control, target))
    }

    fn cz(&self, rank: usize, a: QubitId, b: QubitId) -> Result<()> {
        self.gate(|| self.inner.cz(rank, a, b))
    }

    fn swap(&self, rank: usize, a: QubitId, b: QubitId) -> Result<()> {
        self.gate(|| self.inner.swap(rank, a, b))
    }

    fn apply_controlled(
        &self,
        rank: usize,
        controls: &[QubitId],
        gate: Gate,
        target: QubitId,
    ) -> Result<()> {
        self.gate(|| self.inner.apply_controlled(rank, controls, gate, target))
    }

    fn apply_batch(&self, rank: usize, batch: &GateBatch) -> Result<()> {
        self.stats.flushes.fetch_add(1, Relaxed);
        self.stats.ops_issued.fetch_add(batch.len() as u64, Relaxed);
        let t0 = Instant::now();
        let batch = qsim::optimize(batch.clone());
        self.stats
            .optimize_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.stats
            .ops_applied
            .fetch_add(batch.len() as u64, Relaxed);
        self.timed(&self.stats.batch_ns, || {
            self.inner.apply_batch(rank, &batch)
        })
    }

    fn measure(&self, rank: usize, q: QubitId) -> Result<bool> {
        self.structural(|| self.inner.measure(rank, q))
    }

    fn prob_one(&self, rank: usize, q: QubitId) -> Result<f64> {
        self.structural(|| self.inner.prob_one(rank, q))
    }

    fn measure_z_parity(&self, rank: usize, qubits: &[QubitId]) -> Result<bool> {
        self.structural(|| self.inner.measure_z_parity(rank, qubits))
    }

    fn entangle_epr(&self, qa: QubitId, qb: QubitId) -> Result<()> {
        self.structural(|| self.inner.entangle_epr(qa, qb))
    }

    fn entangle_epr_batch(&self, pairs: &[(QubitId, QubitId)]) -> Result<()> {
        self.structural(|| self.inner.entangle_epr_batch(pairs))
    }

    fn expectation(&self, rank: usize, terms: &[(QubitId, Pauli)]) -> Result<f64> {
        self.structural(|| self.inner.expectation(rank, terms))
    }

    fn expectation_each(&self, rank: usize, strings: &[Vec<(QubitId, Pauli)>]) -> Result<Vec<f64>> {
        self.structural(|| self.inner.expectation_each(rank, strings))
    }

    fn state_vector(&self, order: &[QubitId]) -> Result<State> {
        self.structural(|| self.inner.state_vector(order))
    }

    fn amplitude_of(&self, rank: usize, ones: &[QubitId]) -> Result<qsim::Complex> {
        self.structural(|| self.inner.amplitude_of(rank, ones))
    }

    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn gate_count(&self) -> u64 {
        self.inner.gate_count()
    }

    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmpi::{build_backend_with_policy, run_on_backend, BatchPolicy, QmpiConfig, TransportKind};

    /// One rank, four qubits, a Clifford+rotation circuit with flush points
    /// in the middle; returns the final amplitudes as bits.
    fn program(ctx: &qmpi::QmpiRank) -> Vec<(u64, u64)> {
        let q = ctx.alloc_qmem(4);
        for (i, qi) in q.iter().enumerate() {
            ctx.h(qi).unwrap();
            ctx.rz(qi, 0.3 + 0.1 * i as f64).unwrap();
        }
        for step in 0..6 {
            for i in 0..3 {
                ctx.cnot(&q[i], &q[i + 1]).unwrap();
                ctx.rz(&q[i + 1], 0.7 * step as f64).unwrap();
                ctx.cnot(&q[i], &q[i + 1]).unwrap();
            }
            for qi in &q {
                ctx.rx(qi, -0.25).unwrap();
                ctx.t(qi).unwrap();
            }
            ctx.expectation(&[(&q[step % 4], qsim::Pauli::Z)]).unwrap();
        }
        let ids: Vec<QubitId> = q.iter().map(|x| x.id()).collect();
        let state = ctx.backend().state_vector(&ids).unwrap();
        let bits = state
            .amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect();
        for qi in q {
            ctx.measure_and_free(qi).unwrap();
        }
        bits
    }

    /// Amplitude bits, command rounds and kernel sweeps of one run.
    fn run(wrapped: bool) -> (Vec<(u64, u64)>, u64, u64) {
        let kind = BackendKind::RemoteSharded { shards: 2 };
        let policy = BatchPolicy::default();
        let bare = build_backend_with_policy(
            kind,
            TransportKind::InProcess,
            7,
            NoiseModel::ideal(),
            policy,
        )
        .unwrap();
        let (backend, policy): (Arc<dyn QuantumBackend>, _) = if wrapped {
            let stats = Arc::new(LayerStats::default());
            let timed = Timed::new(Arc::clone(&bare), stats);
            (
                Arc::new(timed),
                BatchPolicy {
                    fuse: false,
                    ..policy
                },
            )
        } else {
            (Arc::clone(&bare), policy)
        };
        let cfg = QmpiConfig::new().seed(7).backend(kind).batch(policy);
        let out = run_on_backend(1, cfg, backend, program);
        let rounds = bare.transport_stats().unwrap().command_rounds;
        (out.results[0].clone(), rounds, bare.counts().gates)
    }

    #[test]
    fn wrapped_run_is_bit_identical_to_bare_run() {
        let bare = run(false);
        let wrapped = run(true);
        assert_eq!(bare.0, wrapped.0, "amplitudes differ");
        assert_eq!(bare.1, wrapped.1, "command rounds differ");
        assert_eq!(bare.2, wrapped.2, "kernel sweeps differ");
        assert!(bare.1 > 0 && bare.2 > 0);
    }
}
