#!/usr/bin/env bash
# Chaos smoke test against the real binaries: 1 root + 2 edges whose push
# paths run under deterministic fault injection (-push-chaos: drops,
# blackholed responses, 503s, latency, truncated bodies), group-committed
# WALs on both edges, a SIGTERM + restart of one edge and a SIGKILL +
# restart of the other mid-run. A single node ingests the same two
# populations directly. Despite the chaos and the restarts, the root must
# converge to exactly the same report count as the single node and to
# matching estimates — the SIGTERM'd edge must exit cleanly (drain, final
# push, WAL commit, final checkpoint) and restart replaying no log
# records, and the SIGKILL'd edge must recover its acked reports from
# the log.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/ldpserver" ./cmd/ldpserver
go build -o "$tmp/ldpclient" ./cmd/ldpclient

ROOT=127.0.0.1:9471
EDGE1=127.0.0.1:9472
EDGE2=127.0.0.1:9473
SINGLE=127.0.0.1:9474
N=3000
COMMON=(-dataset br -eps 1 -range -shards 1)
CHAOS='seed=7,drop=0.15,blackhole=0.1,err5xx=0.15,latency=0.1,partial=0.1,delay=20ms'

"$tmp/ldpserver" -addr "$ROOT" -mode root "${COMMON[@]}" &
pids+=($!)

start_edge1() {
	"$tmp/ldpserver" -addr "$EDGE1" -mode edge -edge-id edge-1 -push-to "http://$ROOT" \
		-push-interval 200ms -push-chaos "$CHAOS" \
		-logdir "$tmp/wal1" -log-sync 50ms -drain 5s "${COMMON[@]}" &
	edge1_pid=$!
	pids+=($edge1_pid)
}
start_edge1
start_edge2() {
	"$tmp/ldpserver" -addr "$EDGE2" -mode edge -edge-id edge-2 -push-to "http://$ROOT" \
		-push-interval 200ms -push-chaos "$CHAOS" \
		-logdir "$tmp/wal2" -log-sync 50ms -drain 5s "${COMMON[@]}" &
	edge2_pid=$!
	pids+=($edge2_pid)
}
start_edge2
"$tmp/ldpserver" -addr "$SINGLE" "${COMMON[@]}" &
pids+=($!)

wait_ready() { # readiness probe doubles as "process is up"
	for _ in $(seq 1 100); do
		if curl -sf "http://$1/readyz" >/dev/null 2>&1; then return 0; fi
		sleep 0.1
	done
	echo "server $1 never became ready" >&2
	return 1
}
for addr in "$ROOT" "$EDGE1" "$EDGE2" "$SINGLE"; do wait_ready "$addr"; done

# Liveness and readiness answer on every node.
curl -sf "http://$ROOT/healthz" >/dev/null
curl -sf "http://$ROOT/readyz" >/dev/null

# Disjoint populations: seed 1 to edge 1, seed 2 to edge 2; the single
# node ingests both.
"$tmp/ldpclient" -addr "http://$EDGE1" -n "$N" -seed 1 -workers 2 -dataset br -eps 1 -range
"$tmp/ldpclient" -addr "http://$EDGE2" -n "$N" -seed 2 -workers 2 -dataset br -eps 1 -range
"$tmp/ldpclient" -addr "http://$SINGLE" -n "$N" -seed 1 -workers 2 -dataset br -eps 1 -range
"$tmp/ldpclient" -addr "http://$SINGLE" -n "$N" -seed 2 -workers 2 -dataset br -eps 1 -range

# SIGTERM edge 1 mid-run: it must drain, make a final push attempt, and
# commit its WAL; the restart replays the WAL and resumes pushing under
# the same edge ID, so the root never double-counts.
kill -TERM "$edge1_pid"
if ! wait "$edge1_pid"; then
	echo "edge 1 did not exit cleanly on SIGTERM" >&2
	exit 1
fi
echo "chaos smoke: edge 1 exited cleanly on SIGTERM"
start_edge1
wait_ready "$EDGE1"
# The clean exit cut a checkpoint at the end of edge 1's log: the restart
# restored every report and replayed nothing.
replayed=$(curl -s "http://$EDGE1/metrics" | awk '$1=="ldp_wal_replayed_records" {print $2}')
restored=$(curl -s "http://$EDGE1/metrics" | awk '$1=="ldp_checkpoint_restored_reports" {print $2}')
if [ "$replayed" != "0" ] || [ "$restored" != "$N" ]; then
	echo "edge 1 restart restored $restored reports and replayed $replayed log records, want $N and 0" >&2
	exit 1
fi
echo "chaos smoke: edge 1 restarted from its checkpoint, replaying no log records"

# SIGKILL edge 2 once its group commit has flushed (50ms): no drain, no
# final push, no final checkpoint. The restart recovers every acked
# report from the log and the forwarder resyncs with the root, so the
# root still never double-counts.
sleep 0.5
kill -KILL "$edge2_pid"
wait "$edge2_pid" 2>/dev/null || true
start_edge2
wait_ready "$EDGE2"
edge2_n=$(curl -s "http://$EDGE2/v1/stats" | jq .n)
if [ "$edge2_n" != "$N" ]; then
	echo "edge 2 recovered n=$edge2_n after SIGKILL, want $N" >&2
	exit 1
fi
echo "chaos smoke: edge 2 recovered all $N acked reports after SIGKILL"

# Wait for both edges' pushes to land despite the injected faults.
want=$((2 * N))
n=
for _ in $(seq 1 200); do
	n=$(curl -s "http://$ROOT/v1/stats" | jq .n)
	if [ "$n" = "$want" ]; then break; fi
	sleep 0.2
done
if [ "$n" != "$want" ]; then
	echo "root merged n=$n, want $want (chaos broke exactly-once fan-in?)" >&2
	exit 1
fi
single_n=$(curl -s "http://$SINGLE/v1/stats" | jq .n)
if [ "$single_n" != "$want" ]; then
	echo "single-node n=$single_n, want $want" >&2
	exit 1
fi

# Merged estimates match the single node's (float tolerance: the merge
# regroups floating-point sums; bit-exactness on a quantized grid is
# asserted by the unit tests).
close() { # $1=query-path $2=description
	a=$(curl -sf "http://$ROOT/v1/query?$1")
	b=$(curl -sf "http://$SINGLE/v1/query?$1")
	ok=$(jq -n --argjson a "$a" --argjson b "$b" '
		def absv: if . < 0 then -. else . end;
		def flat: [.. | numbers];
		($a | flat) as $x | ($b | flat) as $y
		| ($x | length) > 0 and ($x | length) == ($y | length)
		  and all(range($x | length); (($x[.] - $y[.]) | absv) < 1e-9)')
	if [ "$ok" != "true" ]; then
		echo "merged $2 diverged from single node:" >&2
		echo "  root:   $a" >&2
		echo "  single: $b" >&2
		exit 1
	fi
	echo "chaos smoke: $2 match"
}
close "kind=mean" "means"
close "kind=freq&attr=gender" "gender frequencies"
close "kind=range&attr=age&lo=-0.5&hi=0.5" "range mass"

# The resilience counters are exposed: breaker state/transitions on the
# edges, admission-shed counters and draining gauge everywhere.
edge_metrics=$(curl -s "http://$EDGE1/metrics")
for series in ldp_breaker_state ldp_draining ldp_http_shed_total; do
	if ! echo "$edge_metrics" | grep -q "^$series"; then
		echo "edge /metrics missing $series" >&2
		exit 1
	fi
done

echo "chaos smoke: OK (root merged $want reports exactly under fault injection + SIGTERM and SIGKILL edge restarts)"
