//! The per-layer metrics of a traced run: one [`Layers`] per traced
//! program, reported as per-program medians. Every workload prints every
//! name; a layer a workload does not pass through reads 0.

use crate::stats::{median, Metrics};

/// Per-layer readings of one traced program.
#[derive(Default)]
pub struct Layers {
    pub self_ms: f64,
    pub flushes: f64,
    pub ops_per_flush: f64,
    pub ops_per_gate: f64,
    pub optimize_ms: f64,
    pub sweeps: f64,
    pub peak_qubits: f64,
    pub batch_ms: f64,
    pub structural_ms: f64,
    pub sync_ms: f64,
    pub calls: f64,
    pub saved_rounds: f64,
    pub cmd_rounds: f64,
    pub xchg_rounds: f64,
    pub wire_kb: f64,
    pub round_us: f64,
    pub worker_cpu_ms: f64,
    pub epr_pairs: f64,
    pub classical_bits: f64,
    pub buffer_peak: f64,
    pub queue_ms: f64,
    pub job_wall_ms: f64,
    pub overhead_ms: f64,
}

/// Pushes every per-layer metric. `trace_overhead_ms` is the traced minus
/// the untraced program latency median of the same run.
pub fn push_layers(m: &mut Metrics, layers: &[Layers], trace_overhead_ms: f64) {
    let med = |f: fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    // Worker CPU time is read in clock ticks, so a per-program median would
    // be quantized; the mean over traced programs is reported instead.
    let worker_cpu =
        layers.iter().map(|l| l.worker_cpu_ms).sum::<f64>() / layers.len().max(1) as f64;
    m.push("rank.self_ms", med(|l| l.self_ms), "ms");
    m.push("rank.flushes", med(|l| l.flushes), "count");
    m.push("rank.ops_per_flush", med(|l| l.ops_per_flush), "ratio");
    m.push("optimize.ops_per_gate", med(|l| l.ops_per_gate), "ratio");
    m.push("optimize.ms", med(|l| l.optimize_ms), "ms");
    m.push("engine.sweeps", med(|l| l.sweeps), "count");
    m.push("engine.peak_qubits", med(|l| l.peak_qubits), "count");
    m.push("backend.batch_ms", med(|l| l.batch_ms), "ms");
    m.push("backend.structural_ms", med(|l| l.structural_ms), "ms");
    m.push("backend.sync_ms", med(|l| l.sync_ms), "ms");
    m.push("backend.calls", med(|l| l.calls), "count");
    m.push("coalesce.saved_rounds", med(|l| l.saved_rounds), "count");
    m.push("transport.cmd_rounds", med(|l| l.cmd_rounds), "count");
    m.push("transport.xchg_rounds", med(|l| l.xchg_rounds), "count");
    m.push("transport.wire_kb", med(|l| l.wire_kb), "KiB");
    m.push("transport.round_us", med(|l| l.round_us), "us");
    m.push("worker.cpu_ms", worker_cpu, "ms");
    m.push("ledger.epr_pairs", med(|l| l.epr_pairs), "count");
    m.push("ledger.classical_bits", med(|l| l.classical_bits), "count");
    m.push("ledger.buffer_peak", med(|l| l.buffer_peak), "count");
    m.push("serve.queue_ms", med(|l| l.queue_ms), "ms");
    m.push("serve.job_wall_ms", med(|l| l.job_wall_ms), "ms");
    m.push("serve.overhead_ms", med(|l| l.overhead_ms), "ms");
    m.push("trace.overhead_ms", trace_overhead_ms, "ms");
}
