#!/usr/bin/env bash
# End-to-end smoke of the served deployment: start a sero-server daemon
# on loopback (with the §5 raw interface enabled), drive it with
# sero-cli — basic round trip, 8 concurrent clients, then the tamper
# drill: raw-write into a heated line and demand that verify exits 4
# with the evidence report. Used by the server-smoke CI job; runnable
# locally as `./scripts/server_smoke.sh ./target/release`.
#
# `--reactor` switches to the reactor-scale drill: the daemon (one
# readiness-driven event loop) must hold 512 idle
# connections while 8 active CLI clients work concurrently — with a
# bounded thread count, every idle connection answered before AND after
# the hold — then pass the same tamper drill. Used by the reactor-smoke
# CI job.
#
# The daemon's stderr goes to a log file that is dumped on any failure,
# so CI diagnoses a wedged or crashed server from the job output alone.
set -euo pipefail

# Watchdog: a wedged server or a CLI blocked on a dead socket must fail
# this drill loudly, not hang the job. Re-exec the whole script under
# timeout(1), which signals the entire process group — stray CLI
# grandchildren included — and hard-kills whatever survives the grace.
SMOKE_TIMEOUT="${SMOKE_TIMEOUT:-180}"
if [ -z "${SMOKE_WATCHDOG:-}" ] && command -v timeout >/dev/null 2>&1; then
  export SMOKE_WATCHDOG=1
  exec timeout --kill-after=10 "$SMOKE_TIMEOUT" "$0" "$@"
fi

BIN_DIR="./target/release"
REACTOR=0
for arg in "$@"; do
  case "$arg" in
    --reactor) REACTOR=1 ;;
    *) BIN_DIR="$arg" ;;
  esac
done
SERVER="$BIN_DIR/sero-server"
CLI="$BIN_DIR/sero-cli"
ADDR="127.0.0.1:4151"
export SERO_ADDR="$ADDR"

[ -x "$SERVER" ] || { echo "missing $SERVER (build with: cargo build --release -p sero-server)"; exit 1; }
[ -x "$CLI" ] || { echo "missing $CLI (build with: cargo build --release -p sero-client)"; exit 1; }

SERVER_PID=""
SERVER_LOG="$(mktemp -t sero-server-smoke.XXXXXX.log)"
IDLE_OUT=""
CLIENT_PIDS=()
cleanup() {
  rc=$?
  # Reap stray CLI children first so none outlives the server they talk to.
  if [ "${#CLIENT_PIDS[@]}" -gt 0 ]; then
    kill "${CLIENT_PIDS[@]}" 2>/dev/null || true
  fi
  if [ -n "$SERVER_PID" ]; then
    kill "$SERVER_PID" 2>/dev/null || true
  fi
  if [ "$rc" -ne 0 ]; then
    echo "== daemon stderr ($SERVER_LOG) =="
    cat "$SERVER_LOG" 2>/dev/null || true
    if [ -n "$IDLE_OUT" ]; then
      echo "== idle-swarm output =="
      cat "$IDLE_OUT" 2>/dev/null || true
    fi
    # Keep the logs on disk so the CI failure-dump step can re-surface
    # them even when the watchdog killed this shell mid-drill.
  else
    rm -f "$SERVER_LOG" ${IDLE_OUT:+"$IDLE_OUT"}
  fi
}
trap cleanup EXIT

# The reactor drill's 512 idle connections go silent for the whole hold
# window; a generous read deadline keeps the reap timer from firing on
# them mid-drill (the dedicated stall regression covers the reap path).
if [ "$REACTOR" -eq 1 ]; then
  "$SERVER" --addr "$ADDR" --blocks 2048 --allow-raw \
    --read-timeout-ms 120000 --max-connections 600 2>"$SERVER_LOG" &
else
  "$SERVER" --addr "$ADDR" --blocks 2048 --allow-raw 2>"$SERVER_LOG" &
fi
SERVER_PID=$!

# Wait for the listener.
for _ in $(seq 1 50); do
  if "$CLI" ping >/dev/null 2>&1; then break; fi
  sleep 0.2
done
"$CLI" ping

echo "== basic round trip =="
"$CLI" set ledger "audit 2008" archival
[ "$("$CLI" get ledger)" = "audit 2008" ]
"$CLI" set ledger "audit 2008 rev b" archival
[ "$("$CLI" get ledger)" = "audit 2008 rev b" ]
"$CLI" stat ledger
"$CLI" ls | grep -qx ledger

if [ "$REACTOR" -eq 1 ]; then
  echo "== 512 idle connections held open =="
  IDLE_OUT="$(mktemp -t sero-idle-swarm.XXXXXX.out)"
  "$CLI" idle-swarm 512 12 >"$IDLE_OUT" &
  IDLE_PID=$!
  CLIENT_PIDS+=("$IDLE_PID")
  for _ in $(seq 1 150); do
    if grep -q "^HOLDING 512$" "$IDLE_OUT"; then break; fi
    sleep 0.2
  done
  grep -q "^HOLDING 512$" "$IDLE_OUT" || { echo "idle swarm never reached HOLDING 512"; exit 1; }
fi

echo "== 8 concurrent clients =="
for c in $(seq 1 8); do
  (
    for i in $(seq 1 10); do
      "$CLI" set "key-$c" "value-$c-$i"
      [ "$("$CLI" get "key-$c")" = "value-$c-$i" ]
    done
  ) &
  CLIENT_PIDS+=("$!")
done
for pid in "${CLIENT_PIDS[@]}"; do
  if [ "${IDLE_PID:-}" = "$pid" ]; then continue; fi
  wait "$pid"
done
CLIENT_PIDS=(${IDLE_PID:+"$IDLE_PID"})
for c in $(seq 1 8); do
  [ "$("$CLI" get "key-$c")" = "value-$c-10" ]
done
echo "all 8 clients consistent"

if [ "$REACTOR" -eq 1 ]; then
  echo "== bounded threads under 520 connections =="
  # One event loop owns every socket: the daemon must not have grown a
  # thread per connection while 512 idle + 8 active clients were live.
  THREADS="$(awk '/^Threads:/ {print $2}' "/proc/$SERVER_PID/status")"
  echo "daemon threads: $THREADS"
  [ "$THREADS" -le 4 ] || { echo "expected a bounded thread count, got $THREADS"; exit 1; }

  # The idle swarm exits 0 only if every one of the 512 connections
  # answered a ping both before and after the idle hold.
  wait "$IDLE_PID"
  CLIENT_PIDS=()
  grep -q "^RELEASED 512$" "$IDLE_OUT" || { echo "idle swarm never released"; exit 1; }
  echo "all 512 idle connections answered after the hold"
fi

echo "== tamper drill =="
"$CLI" heat ledger "quarter-end freeze" 1199145600
"$CLI" verify ledger | grep -q "^intact"
START="$("$CLI" stat ledger | grep -o 'start=[0-9]*' | cut -d= -f2)"
[ -n "$START" ]
"$CLI" raw-write "$((START + 1))" 238
set +e
VERIFY_OUT="$("$CLI" verify ledger 2>&1)"
RC=$?
set -e
echo "$VERIFY_OUT"
[ "$RC" -eq 4 ] || { echo "expected exit 4 (tamper detected), got $RC"; exit 1; }
echo "$VERIFY_OUT" | grep -q "TAMPER EVIDENCE"

echo "== scrub over the wire =="
"$CLI" scrub-start 200000 1000000
for _ in $(seq 1 300); do
  OUT="$("$CLI" scrub-tick)"
  case "$OUT" in
    "scrub complete"*) break ;;
  esac
done
"$CLI" scrub-status | grep -q "^scrub complete"
# The drill's tampered line must be in the pass's evidence.
"$CLI" scrub-status | grep -q "tampered=1"
"$CLI" fleet-status

kill "$SERVER_PID"
SERVER_PID=""
if [ "$REACTOR" -eq 1 ]; then
  echo "reactor smoke: OK"
else
  echo "server smoke: OK"
fi
