#!/bin/sh
# Smoke test for the deshd online inference daemon: generate a
# synthetic log, train a small model, pipe the log into a running
# daemon, and assert that (1) at least one alert with a positive lead
# time reaches stdout, (2) the /metrics endpoint reports non-zero
# ingest, (3) SIGINT produces a clean drain and exit 0, and (4) a
# -state-dir replay of the same file journals it in far fewer WAL
# writes than events: one per buffered read, not one per line.
set -eu

GO=${GO:-go}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
PORT=${DESHD_PORT:-18230}

echo "smoke: building into $WORK"
$GO build -o "$WORK/" ./cmd/deshgen ./cmd/deshtrain ./cmd/deshd

echo "smoke: generating + training (small scale)"
"$WORK/deshgen" -machine M3 -nodes 30 -hours 48 -failures 30 -seed 7 -o "$WORK/train.log"
"$WORK/deshgen" -machine M3 -nodes 30 -hours 24 -failures 16 -seed 97 -o "$WORK/test.log"
"$WORK/deshtrain" -in "$WORK/train.log" -model "$WORK/desh.model" -epochs2 150 -seed 32

echo "smoke: starting deshd (no -once: stays up after EOF for the metrics probe)"
# The event-time flags run too: a sorted replay must behave identically
# with reordering, dedup, the skew guard and the shed controller armed.
"$WORK/deshd" -model "$WORK/desh.model" -in "$WORK/test.log" -http "127.0.0.1:$PORT" \
    -allowed-lateness 10s -dedup-window 64 -skew-tolerance 5m -shed-policy degrade \
    > "$WORK/alerts.out" 2> "$WORK/deshd.err" &
PID=$!

# Wait until every test-log event has been ingested (or time out).
tries=0
lines=$(grep -c . "$WORK/test.log")
while :; do
    got=$(curl -sf "http://127.0.0.1:$PORT/metrics" 2>/dev/null \
        | sed -n 's/^ *"ingested": \([0-9]*\),$/\1/p' || true)
    [ "${got:-0}" -ge "$lines" ] && break
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: FAIL — ingested ${got:-0}/$lines after 10s" >&2
        cat "$WORK/deshd.err" >&2
        kill "$PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
echo "smoke: metrics endpoint reports $got/$lines events ingested"

kill -INT "$PID"
wait "$PID" || { echo "smoke: FAIL — deshd exited non-zero" >&2; cat "$WORK/deshd.err" >&2; exit 1; }

alerts=$(grep -c 'expected to fail' "$WORK/alerts.out" || true)
if [ "$alerts" -lt 1 ]; then
    echo "smoke: FAIL — no alerts on stdout" >&2
    cat "$WORK/deshd.err" >&2
    exit 1
fi
if ! grep -Eq 'in [0-9]+\.[0-9] minutes' "$WORK/alerts.out"; then
    echo "smoke: FAIL — alerts carry no positive lead time" >&2
    head -5 "$WORK/alerts.out" >&2
    exit 1
fi

if ! grep -q 'disorder: late' "$WORK/deshd.err"; then
    echo "smoke: FAIL — exit summary missing the disorder line" >&2
    cat "$WORK/deshd.err" >&2
    exit 1
fi

"$WORK/deshd" -model "$WORK/desh.model" -state-dir "$WORK/st" -in "$WORK/test.log" -once \
    > /dev/null 2> "$WORK/durable.err"
set -- $(sed -n 's/^deshd: durability: journaled \([0-9]*\) events in \([0-9]*\) wal writes (errors \([0-9]*\)).*/\1 \2 \3/p' "$WORK/durable.err")
if [ "${2:-0}" -lt 1 ] || [ "$(($2 * 10))" -gt "$1" ] || [ "$3" -ne 0 ]; then
    echo "smoke: FAIL — -state-dir replay journaled ${1:-?} events in ${2:-?} WAL writes (${3:-?} errors); want at least ten events a write" >&2
    cat "$WORK/durable.err" >&2
    exit 1
fi
echo "smoke: -state-dir replay journaled $1 events in $2 WAL writes"

echo "smoke: OK — $alerts alerts, clean SIGINT shutdown"
head -3 "$WORK/alerts.out"
