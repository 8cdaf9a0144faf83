#!/usr/bin/env bash
# The repo's CI gate. Fully offline: every step resolves from the
# workspace only. Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test -q --workspace

echo "== zslint"
cargo run -q -p zerosum-analyze --bin zslint

echo "== zsaudit (eight passes vs AUDIT_baseline.json, lock + thread-role drills)"
# --baseline diffs findings against the committed baseline (lock-order
# cycles fail regardless, and a baseline key naming an unknown pass is
# a staleness error); the hot-path-alloc / nondeterminism / blocking
# effect passes and the ring-discipline / channel-protocol /
# role-blocking thread passes ship with zero unbaselined findings;
# --drill runs real sharded-monitor and collector workloads and fails
# loudly if any dynamically observed lock-order edge or (role,
# resource) edge is missing from the static graph. Debug build on
# purpose: the runtime sanitizers only record under debug_assertions.
cargo run -q -p zerosum-cli --bin zerosum -- \
    audit --baseline AUDIT_baseline.json --drill > /tmp/zsaudit.out \
    || { cat /tmp/zsaudit.out; exit 1; }
tail -n 3 /tmp/zsaudit.out

echo "== zsaudit --explain smoke (witness traces)"
scripts/audit_explain.sh

echo "== trace checker (Table 2 scenario)"
cargo run -q -p zerosum-cli --bin zerosum -- analyze --scenario table2 --scale 100

echo "== chaos soak (21 seeded fault schedules + abnormal-exit drill)"
cargo run -q -p zerosum-cli --bin zerosum -- chaos --scale 150 --schedules 21 --seed 50336

echo "== cluster chaos soak (20 seeded node-fault plans, bounded-memory + abnormal-exit drills)"
cargo run -q --release -p zerosum-cli --bin zerosum -- \
    cluster-chaos --nodes 4 --rounds 24 --schedules 20 --seed 41248 --drill-rounds 1000000

echo "== loopback-TCP smoke (zerosum collect / zerosum stream over real sockets)"
# The in-process transport backend is covered by the cluster-chaos soak
# above; this stage exercises the same wire protocol over real loopback
# TCP. Sandboxes that forbid sockets are detected with `collect
# --probe` (exit 3) and the stage is skipped LOUDLY, never silently.
tcp_smoke() {
    local port_file out code
    port_file=$(mktemp)
    out=$(mktemp)
    rm -f "$port_file"
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        collect --nodes 2 --rounds 6 --period-ms 40 --port-file "$port_file" \
        > "$out" 2>&1 &
    local collect_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$port_file" ] && break
        sleep 0.1
    done
    if [ ! -s "$port_file" ]; then
        echo "tcp smoke: collector never published its port"
        kill "$collect_pid" 2>/dev/null || true
        cat "$out"
        return 1
    fi
    local addr
    addr=$(cat "$port_file")
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        stream --connect "$addr" --node ci-a --rank 0 --rounds 6 --period-ms 40 --seed 7 &
    local a_pid=$!
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        stream --connect "$addr" --node ci-b --rank 1 --rounds 6 --period-ms 40 --seed 8
    wait "$a_pid"
    wait "$collect_pid"
    code=$?
    cat "$out"
    rm -f "$port_file" "$out"
    return "$code"
}
set +e
cargo run -q --release -p zerosum-cli --bin zerosum -- collect --probe >/dev/null 2>&1
probe=$?
set -e
if [ "$probe" -eq 3 ]; then
    echo "tcp smoke: SKIPPED (sandbox forbids sockets; collect --probe exit 3)"
elif [ "$probe" -ne 0 ]; then
    echo "tcp smoke: probe failed with unexpected exit $probe"
    exit 1
else
    tcp_smoke
fi

echo "== shard differential (20 seeds, 1 shard vs N shards inline and threads, bit-identical; shard-scoped chaos isolation)"
cargo run -q --release -p zerosum-cli --bin zerosum -- shard-diff --seeds 20

echo "== churn chaos soak (20 seeded open-system schedules + bit-repro witness)"
# Berserker-style fork/exec storms over the deterministic sim backend:
# the lifecycle judges (no panics at any arrival rate, departures fold
# into health accounting, reused pids never merge, bounded memory,
# honest governor shedding) plus the churn-repro witness requiring two
# identically-seeded soaks to agree bit for bit.
cargo run -q --release -p zerosum-cli --bin zerosum -- churn --schedules 20 --seed 50377

echo "== real-procfs churn storm (fork + fork-exec variants, probe-gated)"
# The same schedules as real child processes sampled through live
# /proc: genuine kernel-side exit races and pid recycling. Sandboxes
# that forbid spawning are detected with `churn --probe` (exit 3) and
# the stage is skipped LOUDLY, never silently — mirroring the TCP smoke.
set +e
cargo run -q --release -p zerosum-cli --bin zerosum -- churn --probe >/dev/null 2>&1
churn_probe=$?
set -e
if [ "$churn_probe" -eq 3 ]; then
    echo "real churn: SKIPPED (sandbox forbids spawning children; churn --probe exit 3)"
elif [ "$churn_probe" -ne 0 ]; then
    echo "real churn: probe failed with unexpected exit $churn_probe"
    exit 1
else
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        churn --backend fork --duration-ms 1500 --rate 40 --seed 11
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        churn --backend fork-exec --duration-ms 1500 --rate 25 --seed 12
fi

echo "== bench regression gate (quick suite, release, ±15% of BENCH_baseline.json)"
# The gate runs last, right after minutes of full-tilt soak stages; a
# small shared CI host throttles under sustained load and only recovers
# after idling (measured: same binary swings 160k→232k samples/s
# across a 60 s settle). Settle before the first attempt and allow two
# increasingly-settled retries: a real regression fails all three runs.
bench_gate() {
    cargo run -q --release -p zerosum-cli --bin zerosum -- \
        bench --quick --check BENCH_baseline.json --max-regress 15
}
sleep 20
bench_gate \
    || { echo "bench gate failed once; settling 40s and retrying"; sleep 40; bench_gate; } \
    || { echo "bench gate failed twice; settling 90s and retrying"; sleep 90; bench_gate; }

echo "CI OK"
