#!/bin/sh
# Loopback fleet smoke: one `risks serve --listen` aggregator and two
# `risks produce` processes splitting the population (parts 0/2 and 1/2);
# the drained serve_estimates.csv must equal a reference byte for byte.
#
#   scripts/fleet_smoke.sh OUT REF SERVE_FLAGS PRODUCER0_FLAGS PRODUCER1_FLAGS
#
# OUT is the server's output directory and REF the serve_estimates.csv the
# drain is compared with. SERVE_FLAGS go to `risks serve`, which also gets
# --listen 127.0.0.1:0 --producers 2 --addr-file OUT.addr --out OUT --quiet.
# PRODUCERi_FLAGS go to the producer of part i/2, which also gets --connect
# and --part; producer 0 runs in the background, producer 1 in the
# foreground. Each flag string is split on whitespace. Runs the release
# build (target/release/risks); exits nonzero when a process fails, the
# server never publishes its address, or the drain differs from REF.
#
# Uses only POSIX sh and cmp.
set -eu
if [ "$#" -ne 5 ]; then
    echo "usage: $0 OUT REF SERVE_FLAGS PRODUCER0_FLAGS PRODUCER1_FLAGS" >&2
    exit 2
fi
out=$1
ref=$2
serve_flags=$3
producer0_flags=$4
producer1_flags=$5
risks="$(dirname "$0")/../target/release/risks"
addr_file="$out.addr"

rm -f "$addr_file"
# The flag strings are split into words on purpose.
# shellcheck disable=SC2086
"$risks" serve $serve_flags --listen 127.0.0.1:0 --producers 2 \
    --addr-file "$addr_file" --out "$out" --quiet &
server=$!
tries=0
while [ ! -s "$addr_file" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "fleet_smoke: the server never wrote $addr_file" >&2
        kill "$server" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$addr_file")

# shellcheck disable=SC2086
"$risks" produce $producer0_flags --connect "$addr" --part 0/2 &
producer0=$!
# A failed producer leaves the server waiting for the fleet: stop it too.
# shellcheck disable=SC2086
if ! "$risks" produce $producer1_flags --connect "$addr" --part 1/2 ||
    ! wait "$producer0"; then
    echo "fleet_smoke: a producer failed" >&2
    kill "$server" "$producer0" 2>/dev/null || true
    exit 1
fi
wait "$server"
cmp "$out/serve_estimates.csv" "$ref"
