#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the given
# arguments, from the root of a checkout:
#   bash qmpibench/run.sh --workload tfim_dense --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
# The socket transport binds its Unix sockets under the temp directory; a
# relative one keeps them inside the checkout and short enough to bind.
mkdir -p .bench_tmp
export TMPDIR=.bench_tmp
exec "$target/release/qmpibench" "$@"
