#!/usr/bin/env bash
# Builds fbbbench from this checkout and runs it with the given arguments:
#
#   bash fbbbench/run.sh --workload design-tune --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the run
# write (the binary, the Go build cache and temporary files, traced runs'
# spans) stays under the build directory, ${CARGO_TARGET_DIR:-.bench_build},
# inside the checkout. The benchmark is its own Go module that builds the
# repository's packages from the checkout (see fbbbench/go.mod).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/spans" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/fbbbench" && go build -o "$out/fbbbench" .) >&2
args=("$@")
name=run seed=0 trace=0
for ((i = 0; i < ${#args[@]} - 1; i++)); do
	case "${args[i]}" in
	--workload) name=${args[i + 1]} ;;
	--seed) seed=${args[i + 1]} ;;
	--trace) trace=${args[i + 1]} ;;
	esac
done
if [[ $trace == 1 ]]; then
	args+=(--spans "$out/spans/$name-$seed.json")
fi
exec "$out/fbbbench" "${args[@]}"
