#!/bin/sh
# Failover smoke: boot a durable primary plus a warm standby shipping its
# journals, SIGKILL the primary mid-workload, promote the standby, and
# verify with `tacoload -replay` that every session the standby serves is
# exactly a prefix of the primary's acknowledged batches — replication is
# asynchronous, so the standby may be behind, but it must never be wrong.
#
# Usage: BIN=bin scripts/failover_smoke.sh   (BIN holds tacoserve + tacoload)
set -eu

BIN=${BIN:-bin}
# Kernel-chosen free ports so parallel CI jobs on a shared runner never
# collide; each server writes its bound address to its own port file.
ADDR=${ADDR:-127.0.0.1:0}
PRI_SPILL=$(mktemp -d)
SBY_SPILL=$(mktemp -d)
PRI_PORT_FILE=$(mktemp)
SBY_PORT_FILE=$(mktemp)
pri_pid=""
sby_pid=""
cleanup() {
    [ -n "$pri_pid" ] && kill "$pri_pid" 2>/dev/null || true
    [ -n "$sby_pid" ] && kill "$sby_pid" 2>/dev/null || true
    rm -rf "$PRI_SPILL" "$SBY_SPILL" "$PRI_PORT_FILE" "$SBY_PORT_FILE"
}
trap cleanup EXIT

# wait_ready PORT_FILE polls for the bound address (written atomically once
# the listener is up), then confirms the API answers. Sets BOUND.
wait_ready() {
    for _ in $(seq 1 50); do
        if [ -s "$1" ]; then
            BOUND=$(cat "$1")
            curl -sf "http://$BOUND/sessions" >/dev/null && return 0
        fi
        sleep 0.2
    done
    echo "failover_smoke: server at ${BOUND:-$ADDR} never became ready" >&2
    return 1
}

# The workload flags must match between the edit run and -replay: the
# verifier regenerates the same sessions and edit streams from them.
LOAD_FLAGS="-sessions 8 -edits 800 -rows 40 -batch 4"

# The primary runs with a resident cap below the session count: an evicted
# session is a base snapshot plus its journal tail, so the standby's
# bootstrap ships the spilled base and the tail over the journal endpoint —
# the evicted-but-lightly-edited transfer path.
"$BIN/tacoserve" -addr "$ADDR" -port-file "$PRI_PORT_FILE" -durable -max-resident 4 -spill-dir "$PRI_SPILL" &
pri_pid=$!
wait_ready "$PRI_PORT_FILE"
PRI_BOUND=$BOUND

# The standby tails the primary's journals on a tight poll so a short run
# still ships most of the stream before the kill.
"$BIN/tacoserve" -addr "$ADDR" -port-file "$SBY_PORT_FILE" -durable -spill-dir "$SBY_SPILL" \
    -standby -primary-url "http://$PRI_BOUND" -repl-interval 25ms &
sby_pid=$!
wait_ready "$SBY_PORT_FILE"
SBY_BOUND=$BOUND

# Sanity: the standby is fenced before promotion — a write must answer 503.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$SBY_BOUND/sessions" -d '{}')
if [ "$code" != "503" ]; then
    echo "failover_smoke: standby write fence answered $code, want 503" >&2
    exit 1
fi

# Drive the edit stream and SIGKILL the primary under it — no shutdown
# hooks, no final ship. The driver's connection errors are the expected
# collateral.
# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$PRI_BOUND" $LOAD_FLAGS -drain-probes 0 &
load_pid=$!
# Long enough that every session exists and shipping is under way, short
# enough that the stream is still in flight.
sleep 0.4
# The transfer path under test: by now the primary has evicted sessions
# without a write, leaving base + journal tail for the standby to ship.
tail_evictions=$(curl -sf "http://$PRI_BOUND/metrics" | awk '$1 == "taco_snap_delta_writes_total" { print $2 }')
if [ "${tail_evictions:-0}" -eq 0 ]; then
    echo "failover_smoke: primary evicted no session with a journal tail; the drill did not cover the path" >&2
    exit 1
fi
kill -9 "$pri_pid"
wait "$load_pid" 2>/dev/null || true
wait "$pri_pid" 2>/dev/null || true
pri_pid=""

# Promote: the standby fences its shipping cursor and starts taking writes.
promote=$(curl -sf -X POST "http://$SBY_BOUND/admin/promote")
echo "failover_smoke: promote -> $promote"
case $promote in
*'"promoted":true'*) ;;
*)
    echo "failover_smoke: promotion did not report promoted:true" >&2
    exit 1
    ;;
esac

# The promoted standby must serve every shipped session at a state that is
# exactly the prefix of acknowledged batches its rev claims — tacoload
# -replay regenerates the streams and compares cell by cell.
# shellcheck disable=SC2086
"$BIN/tacoload" -addr "http://$SBY_BOUND" $LOAD_FLAGS -replay

# And it must be writable: a fresh session create succeeds post-promotion.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$SBY_BOUND/sessions" -d '{}')
if [ "$code" != "201" ]; then
    echo "failover_smoke: write after promotion answered $code, want 201" >&2
    exit 1
fi

# Atomic writes: the standby's tree must be clean, and nothing anywhere may
# be quarantined. The dead primary's dir is allowed a stranded .tmp — a
# SIGKILL mid-spill legitimately leaves one, and the boot sweep reclaims it
# on restart, but this primary is never restarted (the runbook rebuilds it
# as a standby). Beyond that, both trees hold only base snapshots, frozen
# bases, journals and the registry — no per-eviction *.tacod record files.
leftovers=$(find "$SBY_SPILL" -type f ! -name '*.tacos' ! -name '*.tacob' ! -name '*.tacoj' ! -name 'sessions.tacor' | wc -l)
stray=$(find "$PRI_SPILL" -type f ! -name '*.tacos' ! -name '*.tacob' ! -name '*.tacoj' ! -name 'sessions.tacor' ! -name '.spill-*.tmp' | wc -l)
if [ "$leftovers" -ne 0 ] || [ "$stray" -ne 0 ]; then
    echo "failover_smoke: torn, quarantined or unknown files in spill dirs:" >&2
    find "$PRI_SPILL" "$SBY_SPILL" -type f ! -name '*.tacos' ! -name '*.tacob' ! -name '*.tacoj' ! -name 'sessions.tacor' >&2
    exit 1
fi
echo "failover_smoke: OK"
