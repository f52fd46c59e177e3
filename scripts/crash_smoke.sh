#!/bin/sh
# Crash-recovery smoke: drive journaled edits into a durable tacoserve,
# SIGKILL it mid-stream, restart it on the same spill directory, and verify
# with `tacoload -replay` that every session is rediscovered and replays to
# the exact values of a never-crashed run. The server runs with a resident
# cap well below the session count, so the stream is also an eviction-churn
# drill: a session is a base snapshot plus its journal tail, most evictions
# write nothing, and the kill can tear a base write or its checkpoint
# mid-way. A second load-kill-restart round replays on top of recovered
# sessions that were evicted with a tail.
#
# Usage: BIN=bin scripts/crash_smoke.sh   (BIN holds tacoserve + tacoload)
set -eu

BIN=${BIN:-bin}
# Default to a kernel-chosen free port so parallel CI jobs on a shared
# runner never collide; the server writes the bound address to PORT_FILE.
# Set ADDR to pin a fixed address instead.
ADDR=${ADDR:-127.0.0.1:0}
SPILL=$(mktemp -d)
# Outside the spill dir: recovery treats that directory as its own.
PORT_FILE=$(mktemp)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$SPILL" "$PORT_FILE"
}
trap cleanup EXIT

# wait_ready polls the port file for the bound address (written atomically
# once the listener is up), then confirms the API answers. Sets BOUND.
wait_ready() {
    for _ in $(seq 1 50); do
        if [ -s "$PORT_FILE" ]; then
            BOUND=$(cat "$PORT_FILE")
            curl -sf "http://$BOUND/sessions" >/dev/null && return 0
        fi
        sleep 0.2
    done
    echo "crash_smoke: server at ${BOUND:-$ADDR} never became ready" >&2
    return 1
}

# The workload flags must match between the edit run and -replay: the
# verifier regenerates the same sessions and edit streams from them.
LOAD_FLAGS="-sessions 8 -edits 800 -rows 40 -batch 4"
# A resident cap below the session count makes every run an eviction-churn
# drill over the base + journal-tail restore path.
SERVE_FLAGS="-durable -max-resident 4"

# shellcheck disable=SC2086
"$BIN/tacoserve" -addr "$ADDR" -port-file "$PORT_FILE" $SERVE_FLAGS -spill-dir "$SPILL" &
server_pid=$!
wait_ready

# Run the edit stream and SIGKILL the server under it — no shutdown hooks,
# no final fsync, exactly a crash. The driver's connection errors are the
# expected collateral.
# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$BOUND" $LOAD_FLAGS -drain-probes 0 &
load_pid=$!
# Long enough that every session exists, short enough that the stream is
# still in flight; if a slow host finishes the stream first the kill still
# exercises recovery, just without in-flight batches.
sleep 0.4
kill -9 "$server_pid"
wait "$load_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Restart on the same spill dir: the registry and journals must bring every
# session back. A fresh free port (and a fresh port file — the spill dir
# survives, the file must not) proves recovery is address-independent.
rm -f "$PORT_FILE"
# shellcheck disable=SC2086
"$BIN/tacoserve" -addr "$ADDR" -port-file "$PORT_FILE" $SERVE_FLAGS -spill-dir "$SPILL" &
server_pid=$!
wait_ready

# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$BOUND" $LOAD_FLAGS -replay

# Round two: another load burst on top of the recovered sessions — whose
# state is now base + journal tail — killed and recovered again. Sessions
# share names across rounds, which -replay handles: each regenerates the
# same stream and is verified against its own acknowledged rev prefix.
# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$BOUND" $LOAD_FLAGS -drain-probes 0 &
load_pid=$!
sleep 0.4
kill -9 "$server_pid"
wait "$load_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

rm -f "$PORT_FILE"
# shellcheck disable=SC2086
"$BIN/tacoserve" -addr "$ADDR" -port-file "$PORT_FILE" $SERVE_FLAGS -spill-dir "$SPILL" &
server_pid=$!
wait_ready

# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$BOUND" $LOAD_FLAGS -replay

# The verification above faulted every recovered session in under the
# resident cap, so sessions restored from base + journal tail were evicted
# again without a write: the tail path ran, and -replay vouched for it.
tail_evictions=$(curl -sf "http://$BOUND/metrics" | awk '$1 == "taco_snap_delta_writes_total" { print $2 }')
if [ "${tail_evictions:-0}" -eq 0 ]; then
    echo "crash_smoke: no session was evicted with a journal tail; the drill did not cover the path" >&2
    exit 1
fi

# A torn snapshot must never be observable at a final path: atomic writes
# leave no *.tmp behind, and recovery quarantined nothing. The store's whole
# on-disk vocabulary is base snapshots, frozen bases, journals and the
# registry — in particular no per-eviction *.tacod record files.
leftovers=$(find "$SPILL" -type f ! -name '*.tacos' ! -name '*.tacob' ! -name '*.tacoj' ! -name 'sessions.tacor' | wc -l)
if [ "$leftovers" -ne 0 ]; then
    echo "crash_smoke: torn, quarantined or unknown files in spill dir:" >&2
    find "$SPILL" -type f ! -name '*.tacos' ! -name '*.tacob' ! -name '*.tacoj' ! -name 'sessions.tacor' >&2
    exit 1
fi
echo "crash_smoke: OK"
