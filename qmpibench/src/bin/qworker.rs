//! Shard worker process for the `tfim_socket` workload. The socket
//! transport looks for a `qworker` executable next to the benchmark binary,
//! so the benchmark package builds its own copy of the repository's worker.

fn main() {
    qmpi::qworker_main();
}
