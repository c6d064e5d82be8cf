#!/usr/bin/env bash
# End-to-end smoke of the TCP front-end: spawn `fabp serve --tcp` on a
# kernel-assigned port (sharded, hw-sim backend, plus a one-record FASTA
# served with --db), fire one loadgen burst at each database over
# localhost, SIGTERM the server, and require a clean graceful drain (the
# "drained" marker, the engine line's batch and scan-pool counts, and
# per-database pipeline and per-shard stats in the final dump).
# Usage: serve_tcp_smoke.sh <path-to-fabp-binary>
set -euo pipefail

FABP="${1:?usage: serve_tcp_smoke.sh <path-to-fabp>}"
out="$(mktemp)"
fasta="$(mktemp)"
pid=""
trap 'kill -9 "$pid" 2>/dev/null || true; rm -f "$out" "$fasta"' EXIT

{ echo '>extra'; (tr -dc 'ACGT' </dev/urandom || true) | head -c 20000; echo; } \
  >"$fasta"
"$FABP" serve 20000 12 64 2 --backend hwsim --shards 2 --tcp 0 \
  --db extra="$fasta" >"$out" 2>/dev/null &
pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out")"
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "server died before listening"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported its port"; exit 1; }

"$FABP" loadgen 127.0.0.1 "$port" 16 2 12
"$FABP" loadgen 127.0.0.1 "$port" 8 2 12 --db extra

kill -TERM "$pid"
wait "$pid"

grep -q '^drained$' "$out" || { echo "no clean drain marker"; cat "$out"; exit 1; }
grep -q 'requests=24' "$out" || { echo "server miscounted requests"; cat "$out"; exit 1; }
grep -q '^engine: .* executed=[0-9]* scan_threads=[0-9]*$' "$out" \
  || { echo "no executed/scan_threads on the engine line"; cat "$out"; exit 1; }
grep -q '^shard 1:.* db=default$' "$out" || { echo "no per-shard stats in dump"; cat "$out"; exit 1; }
grep -q '^shard 1:.* db=extra$' "$out" || { echo "no per-shard stats for --db"; cat "$out"; exit 1; }
grep -q '^pipeline: invocations=.* db=extra$' "$out" \
  || { echo "no pipeline stats for --db"; cat "$out"; exit 1; }
echo "serve_tcp smoke ok"
