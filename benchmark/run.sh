#!/usr/bin/env bash
# The benchmark's one command.  With no arguments it runs every workload
# (end-to-end rounds, then the traced runs) and prints every metric by
# name and unit; see README.md for --workload, --aa and --smoke.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
