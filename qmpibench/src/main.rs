//! The QMPI benchmark: one command, three workloads.
//!
//! ```text
//! qmpibench --workload <tfim_dense|tfim_socket|serve_mix> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! wraps the backend in a timing layer and prints the per-layer metrics.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` in this directory.

mod host;
mod layers;
mod reference;
mod serve;
mod stats;
mod tfim;
mod traced;

use stats::Outcome;
use std::time::Duration;

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 11;
/// A run that has not finished by then exits without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// SplitMix64: the benchmark's only source of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qmpibench: {e}");
            std::process::exit(2);
        }
    };
    if !["tfim_dense", "tfim_socket", "serve_mix"].contains(&args.workload.as_str()) {
        eprintln!("qmpibench: unknown workload {}", args.workload);
        std::process::exit(2);
    }

    // Confine the process, before it starts any thread or child, to one
    // CPU: the threads and `qworker` children inherit it. Spread between
    // processes dominates otherwise (see README.md).
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let allowed = host::allowed_cpus();
    let pinned = allowed.last().copied().filter(|&c| host::pin_to(c));

    // Left detached on purpose: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("qmpibench: no result within {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });

    let out: Outcome = match args.workload.as_str() {
        "tfim_dense" => tfim::run(tfim::DENSE, args.seed, args.seconds, args.trace),
        "tfim_socket" => tfim::run(tfim::SOCKET, args.seed, args.seconds, args.trace),
        _ => Ok(serve::run(args.seed, args.seconds, args.trace)),
    }
    .unwrap_or_else(|e| {
        eprintln!("qmpibench: {e}");
        std::process::exit(2);
    });

    let null = || "null".to_string();
    // Whether every TFIM state stayed below the size at which qsim's dense
    // kernels start spawning threads.
    let below = out.peak_qubits.map_or_else(null, |q| {
        ((1usize << q) < qsim::apply::PAR_THRESHOLD).to_string()
    });
    let host = format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"allowed_cpus\": {allowed:?}, \
         \"pinned_cpu\": {}, \"peak_qubits\": {}, \"below_par_threshold\": {below}}}}}",
        json_str(&host::cpu_model()),
        pinned.map_or_else(null, |c| c.to_string()),
        out.peak_qubits.map_or_else(null, |q| q.to_string()),
    );
    println!("{host}");
    for note in &out.notes {
        println!("# {} {note}", args.workload);
    }
    for (name, value, unit) in &out.metrics.0 {
        println!("{:<12} {name:<24} {value:>14.6} {unit}", args.workload);
    }
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
