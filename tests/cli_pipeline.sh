#!/usr/bin/env bash
# End-to-end CLI pipeline test: run the instrumented mini-app, query the
# per-rank output files with the serial and the parallel query tool, and
# check the results are consistent.
#
# usage: cli_pipeline.sh <clever-run> <cali-query> <mpi-caliquery> <paradis-gen>
#                        <cali-stat> <calib-proxyd> <calib-push> <calib-benchdiff>
set -euo pipefail

CLEVER_RUN=$1
CALI_QUERY=$2
MPI_CALIQUERY=$3
PARADIS_GEN=$4
CALI_STAT=$5
CALIB_PROXYD=$6
CALIB_PUSH=$7
CALIB_BENCHDIFF=$8

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

echo "== clever-run: profile run, 2 ranks =="
"$CLEVER_RUN" -n 2 --steps 6 --nx 64 --ny 32 \
    -P "services.enable=event,timer,aggregate,recorder
aggregate.key=*
recorder.filename=clever-%r.cali"

test -s clever-0.cali || { echo "missing clever-0.cali"; exit 1; }
test -s clever-1.cali || { echo "missing clever-1.cali"; exit 1; }

echo "== cali-query: kernel profile =="
"$CALI_QUERY" -q "AGGREGATE sum(count),sum(sum#time.duration) GROUP BY kernel
                  ORDER BY kernel FORMAT csv" clever-*.cali > serial.csv
grep -q "advec-cell" serial.csv
grep -q "calc-dt" serial.csv

echo "== mpi-caliquery: same query through the tree reduction =="
"$MPI_CALIQUERY" -n 2 -q "AGGREGATE sum(count),sum(sum#time.duration)
                          GROUP BY kernel ORDER BY kernel FORMAT csv" \
    clever-*.cali > parallel.csv

diff serial.csv parallel.csv || { echo "serial and parallel results differ"; exit 1; }

echo "== small files pack into one morsel: -t 4 equals -t 1 =="
"$CALI_QUERY" -t 1 -q "AGGREGATE sum(count),sum(sum#time.duration) GROUP BY kernel
                       ORDER BY kernel FORMAT csv" clever-*.cali > small_t1.csv
"$CALI_QUERY" -t 4 -s -q "AGGREGATE sum(count),sum(sum#time.duration) GROUP BY kernel
                       ORDER BY kernel FORMAT csv" clever-*.cali > small_t4.csv \
    2> small_t4_stats.txt
grep -q "(1 threads, 1 morsels)" small_t4_stats.txt || {
    echo "two small files should pack into one morsel"; head -1 small_t4_stats.txt
    exit 1; }
diff small_t1.csv small_t4.csv || { echo "-t 1 and -t 4 results differ"; exit 1; }
diff serial.csv small_t4.csv || { echo "default and -t 4 results differ"; exit 1; }

# the runs below need several morsels: three rank files, each larger than
# the default 2 MiB morsel target, so every file is a morsel of its own
"$PARADIS_GEN" -n 3 --records 40000 -o pdbig >/dev/null
big_q="AGGREGATE sum(time.inclusive.duration),count GROUP BY kernel,mpi.function
       ORDER BY kernel,mpi.function FORMAT csv"
# expect_morsels <stats file> <threads> <morsels>: the --stats summary line
expect_morsels() {
    grep -q "($2 threads, $3 morsels)" "$1" || {
        echo "expected $2 threads and $3 morsels:"; head -1 "$1"; exit 1; }
}

echo "== cali-query: -t 4 output is byte-identical to -t 1 =="
"$CALI_QUERY" -t 1 -s -q "$big_q" pdbig/*.cali > t1.csv 2> t1_stats.txt
expect_morsels t1_stats.txt 1 3
"$CALI_QUERY" -t 4 -s -q "$big_q" pdbig/*.cali > t4.csv 2> t4_stats.txt
expect_morsels t4_stats.txt 3 3
"$CALI_QUERY" -q "$big_q" pdbig/*.cali > big_default.csv
diff t1.csv t4.csv || { echo "-t 1 and -t 4 results differ"; exit 1; }
diff big_default.csv t4.csv || { echo "default and -t 4 results differ"; exit 1; }

echo "== merge selector: radix on 120,000 groups, pairwise on a few, no flag =="
# pdbig's 3 morsels: GROUP BY * keeps 120,000 disjoint groups (>= 65,536
# partial entries, so radix), GROUP BY kernel a handful (pairwise)
star_q="AGGREGATE count GROUP BY * FORMAT csv"
kernel_q="AGGREGATE sum(count) GROUP BY kernel FORMAT csv"
# expect_merge <name> <query> <strategy> <gauge code>: the -s line and the
# engine.merge_strategy gauge name the strategy; -t 1 and -t 4 agree
expect_merge() {
    "$CALI_QUERY" -t 1 -s --stats-json "sel_$1.json" -q "$2" pdbig/*.cali \
        > "sel_$1_t1.csv" 2> "sel_$1_stats.txt"
    expect_morsels "sel_$1_stats.txt" 1 3
    "$CALI_QUERY" -t 4 -q "$2" pdbig/*.cali > "sel_$1_t4.csv"
    cmp "sel_$1_t1.csv" "sel_$1_t4.csv" || {
        echo "$1: -t 1 and -t 4 differ"; exit 1; }
    grep -q "merge strategy $3, " "sel_$1_stats.txt" || {
        echo "$1: expected merge strategy $3:"; grep "merge strategy" "sel_$1_stats.txt"
        exit 1; }
    grep -q "\"name\": \"engine.merge_strategy\", \"value\": $4" "sel_$1.json" || {
        echo "$1: engine.merge_strategy gauge: expected code $4"; exit 1; }
}
expect_merge star "$star_q" radix 3
test "$(tail -n +2 sel_star_t1.csv | grep -c .)" -eq 120000 || {
    echo "GROUP BY * should keep 120,000 groups"; exit 1; }
grep -q "merge strategy radix, .*(120,000 partial entries >= 65,536; 16 partitions)" \
    sel_star_stats.txt || {
    echo "radix: -s should say why:"; grep "merge strategy" sel_star_stats.txt; exit 1; }
grep -q "\"name\": \"engine.merge_partitions\", \"value\": 16" sel_star.json || {
    echo "engine.merge_partitions gauge missing for radix"; exit 1; }
grep -q "\"name\": \"engine.merge_entries\", \"value\": 120000" sel_star.json || {
    echo "engine.merge_entries gauge: expected 120000"; exit 1; }
# each morsel yields one partial, so the output depends on the morsel plan
# alone: the radix-merged star query is byte-identical at every batch size
for bs in 1 7; do
    "$CALI_QUERY" -t 4 --batch-size "$bs" -q "$star_q" pdbig/*.cali > sel_star_bs.csv
    cmp sel_star_t4.csv sel_star_bs.csv || {
        echo "GROUP BY *: --batch-size $bs differs"; exit 1; }
done
expect_merge kernel "$kernel_q" pairwise 1
grep -q "partial entries < 65,536)" sel_kernel_stats.txt || {
    echo "pairwise: -s should say why:"; grep "merge strategy" sel_kernel_stats.txt
    exit 1; }
# the strategy is not a setting: the removed flag is an unknown option, and
# the removed environment variable changes nothing
"$CALI_QUERY" --merge-strategy radix -q "$kernel_q" pdbig/*.cali 2>/dev/null && {
    echo "--merge-strategy must be an unknown option"; exit 1; }
CALIB_MERGE_STRATEGY=radix "$CALI_QUERY" -t 4 -s -q "$kernel_q" pdbig/*.cali \
    > sel_env.csv 2> sel_env_stats.txt
grep -q "merge strategy pairwise, " sel_env_stats.txt || {
    echo "CALIB_MERGE_STRATEGY must not pick the strategy"; exit 1; }
cmp sel_kernel_t1.csv sel_env.csv || { echo "kernel query output changed"; exit 1; }

echo "== WINDOW: byte-identical across threads and batch sizes =="
# a trace-mode run (no aggregation) carries time.offset on every record
"$CLEVER_RUN" -n 1 --steps 4 --nx 32 --ny 16 \
    -P "services.enable=event,timer,trace,recorder
timer.offset=true
recorder.filename=wtrace-%r.cali"
test -s wtrace-0.cali || { echo "missing wtrace-0.cali"; exit 1; }
win_q="AGGREGATE count,sum(time.duration) GROUP BY kernel
       WINDOW 10ms SLIDE 2ms ORDER BY kernel FORMAT csv"
"$CALI_QUERY" -t 1 -q "$win_q" wtrace-0.cali > win_ref.csv
rows=$(tail -n +2 win_ref.csv | grep -c .)
test "$rows" -ge 1 || { echo "windowed query returned no rows"; exit 1; }
for threads in 1 2 4; do
    "$CALI_QUERY" -t "$threads" -q "$win_q" wtrace-0.cali > win_run.csv
    diff win_ref.csv win_run.csv || {
        echo "WINDOW: -t $threads differs"; exit 1; }
done
for bs in 1 7 4096; do
    "$CALI_QUERY" -t 4 --batch-size "$bs" -q "$win_q" wtrace-0.cali > win_run.csv
    diff win_ref.csv win_run.csv || {
        echo "WINDOW: --batch-size $bs differs"; exit 1; }
done
# a window wider than the whole trace keeps every timed record: the result
# must equal the plain (window-free) aggregation over the same file
"$CALI_QUERY" -q "AGGREGATE count GROUP BY kernel WINDOW 1h
                  ORDER BY kernel FORMAT csv" wtrace-0.cali > win_wide.csv
"$CALI_QUERY" -q "AGGREGATE count GROUP BY kernel
                  ORDER BY kernel FORMAT csv" wtrace-0.cali > win_plain.csv
diff win_wide.csv win_plain.csv || {
    echo "wide WINDOW differs from the plain aggregation"; exit 1; }
# malformed window clauses are parse errors, not silent acceptance
for bad in "WINDOW 10s SLIDE 20s" "WINDOW 0" "WINDOW 5s WINDOW 2s" \
           "SLIDE 1s" "WINDOW 5s SLIDE 0"; do
    if "$CALI_QUERY" -q "AGGREGATE count $bad" wtrace-0.cali 2>/dev/null; then
        echo "'$bad' must be rejected"; exit 1
    fi
done

echo "== cali-query: WHERE/LET clauses on the same data =="
"$CALI_QUERY" -q "LET t=scale(sum#time.duration,0.001)
                  AGGREGATE sum(t) AS ms WHERE not(mpi.function)
                  GROUP BY amr.level ORDER BY amr.level" clever-*.cali > amr.txt
lines=$(grep -c . amr.txt)
test "$lines" -ge 4 || { echo "expected >=4 lines (header + 3 levels), got $lines"; exit 1; }

echo "== cali-stat: attribute inventory =="
"$CALI_STAT" -g clever-*.cali > stat.txt
grep -q "kernel" stat.txt
grep -q "amr.level" stat.txt
grep -q "cali.channel" stat.txt

echo "== FORMAT json -> --json-input round trip =="
"$CALI_QUERY" -q "AGGREGATE sum(count) GROUP BY kernel FORMAT json" \
    clever-*.cali > kernels.json
"$CALI_QUERY" --json-input \
    -q "AGGREGATE sum(sum#count) GROUP BY kernel ORDER BY kernel FORMAT csv" \
    kernels.json > fromjson.csv
grep -q "advec-cell" fromjson.csv

echo "== --with-globals joins per-file metadata onto records =="
"$CALI_QUERY" --with-globals \
    -q "AGGREGATE count GROUP BY cali.thread ORDER BY cali.thread FORMAT csv" \
    clever-*.cali > globals.csv
# two ranks -> two groups keyed by the per-file 'cali.thread' global
groups=$(tail -n +2 globals.csv | grep -c .)
test "$groups" -eq 2 || { echo "expected 2 global-keyed groups, got $groups"; exit 1; }

echo "== paradis-gen + 85-record evaluation query =="
"$PARADIS_GEN" -n 4 -o pd >/dev/null
out=$("$MPI_CALIQUERY" -n 2 -q "AGGREGATE sum(time.inclusive.duration)
                                GROUP BY kernel,mpi.function FORMAT csv" pd/*.cali \
      | tail -n +2 | grep -c .)
test "$out" -eq 85 || { echo "expected 85 output records, got $out"; exit 1; }

echo "== --stats: self-profile goes to stderr, stdout stays identical =="
"$CALI_QUERY" --stats -q "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel
                          FORMAT csv" clever-*.cali > stats_out.csv 2> stats_err.txt
"$CALI_QUERY" -q "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel
                  FORMAT csv" clever-*.cali > plain_out.csv
diff plain_out.csv stats_out.csv || { echo "--stats contaminated stdout"; exit 1; }
grep -q "reader.records" stats_err.txt
grep -q "aggdb.lookups" stats_err.txt
grep -q "filter.checked" stats_err.txt
grep -q "read" stats_err.txt
# every morsel's planned bytes and records, whole-file morsels included
grep -q "engine.morsel_bytes" stats_err.txt
grep -q "engine.morsel_records" stats_err.txt

echo "== --stats-json round-trips through --json-input =="
"$CALI_QUERY" --stats-json self.json -q "AGGREGATE sum(count) GROUP BY kernel
                                         FORMAT csv" clever-*.cali > /dev/null
test -s self.json || { echo "missing self.json"; exit 1; }
"$CALI_QUERY" --json-input \
    -q "SELECT name,value WHERE kind=counter ORDER BY name FORMAT csv" \
    self.json > selfq.csv
grep -q "reader.records" selfq.csv

echo "== mpi-caliquery --stats =="
"$MPI_CALIQUERY" -n 2 --stats -q "AGGREGATE sum(count) GROUP BY kernel
                                  ORDER BY kernel FORMAT csv" clever-*.cali \
    > mpistats_out.csv 2> mpistats_err.txt
diff plain_out.csv mpistats_out.csv || { echo "mpi --stats contaminated stdout"; exit 1; }
grep -q "reader.records" mpistats_err.txt

echo "== mpi-caliquery --stats-json parity with cali-query =="
"$MPI_CALIQUERY" -n 2 --stats-json mpiself.json \
    -q "AGGREGATE sum(count) GROUP BY kernel FORMAT csv" clever-*.cali \
    > /dev/null
test -s mpiself.json || { echo "missing mpiself.json"; exit 1; }
# both self-profiles expose the same record kinds and parse as records
for f in self.json mpiself.json; do
    "$CALI_QUERY" --json-input \
        -q "SELECT name,value WHERE kind=counter ORDER BY name FORMAT csv" \
        "$f" | grep -q "reader.records" || {
        echo "$f: missing reader.records counter"; exit 1; }
    "$CALI_QUERY" --json-input -q "AGGREGATE count WHERE kind=meta FORMAT csv" \
        "$f" | tail -1 | grep -qx "1" || {
        echo "$f: expected exactly one meta record"; exit 1; }
done

echo "== --trace-json: Chrome trace_event timeline, queryable =="
"$CALI_QUERY" --trace-json trace.json \
    -q "AGGREGATE sum(count) GROUP BY kernel FORMAT csv" clever-*.cali \
    > /dev/null
test -s trace.json || { echo "missing trace.json"; exit 1; }
# every event is a complete ("X") span with name/ts/dur; the phase paths
# in the timeline match the --stats phase tree (parse/process/format)
"$CALI_QUERY" --json-input \
    -q "SELECT path,cat WHERE ph=X GROUP BY path,cat AGGREGATE count
        ORDER BY path FORMAT csv" trace.json > tracephases.csv
grep -q "^parse,phase" tracephases.csv
grep -q "^process,phase" tracephases.csv
grep -q "^format,phase" tracephases.csv
grep -q ",span" tracephases.csv   # stage timers show up as span events
events=$("$CALI_QUERY" --json-input -q "AGGREGATE count FORMAT csv" trace.json | tail -1)
durs=$("$CALI_QUERY" --json-input -q "AGGREGATE count WHERE dur FORMAT csv" trace.json | tail -1)
test "$events" = "$durs" || { echo "trace events missing dur fields"; exit 1; }

echo "== calib-benchdiff: append -> CalQL round-trip -> gate =="
# seed five quiet runs from the real self-profiles, then inject a 1000x
# slowdown into a sixth and require the gate to flag it. Wall-clock
# metrics jitter from run to run, so the gate is pinned to the one
# deterministic counter via the override file (which also exercises
# glob patterns, direction=, and skip).
cat > bd_overrides.txt <<'EOF'
# pin the CI gate to the deterministic record counter
ci/reader.records direction=lower
ci/*_s     skip   # wall-clock timings jitter between runs
ci/*.mean  skip   # histogram stats are timing-derived too
ci/*.p99   skip
EOF
for i in 1 2 3 4 5; do
    CALIB_GIT_SHA="commit$i" "$CALI_QUERY" --stats-json "run$i.json" \
        -q "AGGREGATE sum(count) GROUP BY kernel FORMAT csv" clever-*.cali \
        > /dev/null
    CALIB_GIT_SHA="commit$i" "$CALIB_BENCHDIFF" append hist.cali \
        --bench ci "run$i.json" 2>> bd.log
done
# the history is an ordinary calib stream: plain cali-query reads it
"$CALI_QUERY" hist.cali \
    -q "AGGREGATE count GROUP BY bd.commit ORDER BY bd.commit FORMAT csv" \
    > hist.csv
grep -q "^commit1," hist.csv
grep -q "^commit5," hist.csv
"$CALIB_BENCHDIFF" list hist.cali | grep -q "reader.records"
# quiet history: the gate passes
"$CALIB_BENCHDIFF" check hist.cali --overrides bd_overrides.txt > check_ok.txt
grep -q ": 0 regression(s)" check_ok.txt
# inject the regression: scale the record counter 1000x in a copied
# profile (--commit overrides the copy's embedded commit5 meta stamp)
sed 's/"name": "reader.records", "value": \([0-9]*\)/"name": "reader.records", "value": \1000/' \
    run5.json > run6.json
"$CALIB_BENCHDIFF" append hist.cali --commit commitbad \
    --bench ci run6.json 2>> bd.log
if "$CALIB_BENCHDIFF" check hist.cali --overrides bd_overrides.txt \
        --json verdict.json > check_bad.txt; then
    echo "gate must fail on the injected regression"; cat check_bad.txt; exit 1
fi
grep -q "regression" check_bad.txt
grep -q "ci/reader.records" check_bad.txt
grep -q "commit commitbad" check_bad.txt   # --commit won over the file stamp
# the JSON verdict names the metric and is itself queryable
"$CALI_QUERY" --json-input \
    -q "SELECT metric WHERE status=regression FORMAT csv" verdict.json \
    | grep -q "reader.records"
# gate settings are validated: a bad flag exits 2 instead of turning the
# gate off, a bad override value names file:line; rel_floor=0 is valid
for bad in "--window abc" "--window 0" "--min-samples 0" "--k foo" \
           "--k -1" "--rel-floor nan"; do
    set +e
    # shellcheck disable=SC2086
    "$CALIB_BENCHDIFF" check hist.cali --overrides bd_overrides.txt $bad \
        > /dev/null 2> bad_flag.txt
    rc=$?
    set -e
    [ "$rc" -eq 2 ] || { echo "check $bad exited $rc, want 2"; exit 1; }
    grep -q "must be" bad_flag.txt
done
set +e
"$CALIB_BENCHDIFF" check hist.cali --overrides bd_overrides.txt \
    --rel-floor 0.0 > /dev/null
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "check --rel-floor 0.0 exited $rc, want 3"; exit 1; }
printf 'ci/* rel_floor=0.0\nci/reader.records window=0\n' > bd_bad_overrides.txt
set +e
"$CALIB_BENCHDIFF" check hist.cali --overrides bd_bad_overrides.txt \
    > /dev/null 2> bad_file.txt
rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "bad override file exited $rc, want 1"; exit 1; }
grep -q "bd_bad_overrides.txt:2: window must be an integer >= 1" bad_file.txt
# --soft reports but exits 0 (PR builds)
"$CALIB_BENCHDIFF" check hist.cali --overrides bd_overrides.txt --soft \
    > /dev/null || { echo "--soft must exit 0"; exit 1; }

echo "== CALIB_METRICS=1: runtime self-profile at channel flush =="
CALIB_METRICS=1 "$CLEVER_RUN" -n 1 --steps 2 --nx 16 --ny 16 \
    -P "services.enable=event,timer,aggregate,recorder
aggregate.key=*
recorder.filename=metrics-%r.cali" 2> runtime_err.txt
grep -q "self-profile" runtime_err.txt
grep -q "runtime.updates" runtime_err.txt

echo "== stdin input: '-' reads the stream from a pipe =="
"$CALI_QUERY" -q "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel
                  FORMAT csv" clever-0.cali > file_in.csv
"$CALI_QUERY" -q "AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel
                  FORMAT csv" - < clever-0.cali > stdin_in.csv
diff file_in.csv stdin_in.csv || { echo "stdin and file input differ"; exit 1; }
cat clever-0.cali | "$CALI_STAT" - | grep -q "kernel"

echo "== --no-mmap / CALIB_NO_MMAP: fallback buffer path is identical =="
"$CALI_QUERY" --no-mmap -t 4 -q "$big_q" pdbig/*.cali > nommap.csv
diff t4.csv nommap.csv || { echo "--no-mmap results differ"; exit 1; }
CALIB_NO_MMAP=1 "$CALI_QUERY" -t 4 -q "$big_q" pdbig/*.cali > nommap_env.csv
diff t4.csv nommap_env.csv || { echo "CALIB_NO_MMAP results differ"; exit 1; }

echo "== --stats: per-worker reader.bytes sums to ~file size =="
filebytes=$(wc -c < pd/paradis-0.cali)
"$CALI_QUERY" --stats -t 4 -q "AGGREGATE sum(count) GROUP BY kernel FORMAT csv" \
    pd/paradis-0.cali > /dev/null 2> bytes_err.txt
readbytes=$(awk '/reader.bytes/ {print $2}' bytes_err.txt)
# a single file scanned by N workers must not count N x file size
test "$readbytes" -le "$((filebytes + 1024))" || {
    echo "reader.bytes $readbytes exceeds file size $filebytes"; exit 1; }
test "$readbytes" -ge "$((filebytes - 1024))" || {
    echo "reader.bytes $readbytes below file size $filebytes"; exit 1; }

echo "== calib-proxyd: daemon ingest, live query, scrape, graceful stop =="
"$CALIB_PROXYD" -l "$workdir/proxyd.sock" --http 127.0.0.1:0 \
    -o "daemon-%c.cali" 2> proxyd.log &
proxyd_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" proxyd.log && break
    sleep 0.1
done
grep -q "listening on" proxyd.log || {
    echo "daemon failed to start"; cat proxyd.log; exit 1; }

# 4 concurrent pushers into one shared channel; calib-push exits only
# after its records are folded, so the queries below cannot race
push_pids=()
for f in clever-0.cali clever-1.cali clever-0.cali clever-1.cali; do
    "$CALIB_PUSH" -c "$workdir/proxyd.sock" --channel clever "$f" \
        2>> push.log &
    push_pids+=($!)
done
for pid in "${push_pids[@]}"; do
    wait "$pid" || { echo "calib-push failed"; cat push.log; exit 1; }
done

# live answers must be byte-identical to offline cali-query over the
# same concatenated inputs (integer sums: order-insensitive)
daemon_q="AGGREGATE sum(count) GROUP BY kernel ORDER BY kernel FORMAT csv"
"$CALI_QUERY" -c "$workdir/proxyd.sock" --channel clever -q "$daemon_q" \
    > live.csv
"$CALI_QUERY" -q "$daemon_q" clever-0.cali clever-1.cali clever-0.cali \
    clever-1.cali > offline.csv
diff live.csv offline.csv || { echo "live and offline results differ"; exit 1; }

# Prometheus scrape over plain HTTP (bash /dev/tcp; no curl dependency)
http_addr=$(sed -n 's/.*http \([0-9.]*:[0-9]*\).*/\1/p' proxyd.log)
http_host=${http_addr%:*}
http_port=${http_addr##*:}
exec 3<>"/dev/tcp/$http_host/$http_port"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > scrape.txt
exec 3<&- 3>&-
grep -q "calib_proxyd_records_total" scrape.txt
grep -q 'calib_channel_records_total{channel="clever"}' scrape.txt

# graceful SIGTERM: drain, write the flush file, report stats
kill -TERM "$proxyd_pid"
wait "$proxyd_pid" || { echo "daemon exited non-zero"; cat proxyd.log; exit 1; }
grep -q "connections," proxyd.log
test -s daemon-clever.cali || { echo "missing daemon flush file"; exit 1; }
"$CALI_STAT" -g daemon-clever.cali | grep -q "kernel"

echo "== calib-proxyd --window: live trailing-window queries =="
# a window far wider than the test run keeps everything pushed live, so
# the windowed channel's answer must match the offline replay exactly
"$CALIB_PROXYD" -l "$workdir/proxyd-w.sock" --http 127.0.0.1:0 \
    --window 1h --slide 1m -o "daemon-w-%c.cali" 2> proxyd_w.log &
proxyd_w_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on" proxyd_w.log && break
    sleep 0.1
done
grep -q "listening on" proxyd_w.log || {
    echo "windowed daemon failed to start"; cat proxyd_w.log; exit 1; }

"$CALIB_PUSH" -c "$workdir/proxyd-w.sock" --channel wclever clever-0.cali \
    2>> push.log
"$CALIB_PUSH" -c "$workdir/proxyd-w.sock" --channel wclever clever-1.cali \
    2>> push.log

"$CALI_QUERY" -c "$workdir/proxyd-w.sock" --channel wclever -q "$daemon_q" \
    > wlive.csv
"$CALI_QUERY" -q "$daemon_q" clever-0.cali clever-1.cali > woffline.csv
diff wlive.csv woffline.csv || {
    echo "windowed live and offline results differ"; exit 1; }

# the scrape exposes the per-window gauges
http_addr=$(sed -n 's/.*http \([0-9.]*:[0-9]*\).*/\1/p' proxyd_w.log)
exec 3<>"/dev/tcp/${http_addr%:*}/${http_addr##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > scrape_w.txt
exec 3<&- 3>&-
grep -q 'calib_channel_window_seconds{channel="wclever"} 3600' scrape_w.txt
grep -q 'calib_channel_window_slide_seconds{channel="wclever"} 60' scrape_w.txt
grep -q 'calib_channel_window_live_panes{channel="wclever"}' scrape_w.txt
grep -q 'calib_channel_window_retired_panes_total{channel="wclever"}' scrape_w.txt

# SIGTERM drain: the final live panes reach the flush file
kill -TERM "$proxyd_w_pid"
wait "$proxyd_w_pid" || {
    echo "windowed daemon exited non-zero"; cat proxyd_w.log; exit 1; }
test -s daemon-w-wclever.cali || {
    echo "missing windowed daemon flush file"; exit 1; }
"$CALI_STAT" -g daemon-w-wclever.cali | grep -q "kernel"

# bad window flags fail fast
if "$CALIB_PROXYD" -l "$workdir/bad.sock" --slide 5s 2>/dev/null; then
    echo "--slide without --window must fail"; exit 1
fi
if "$CALIB_PROXYD" -l "$workdir/bad.sock" -w 1s --slide 5s 2>/dev/null; then
    echo "--slide larger than --window must fail"; exit 1
fi

echo "== error handling =="
if "$CALI_QUERY" -q "THIS IS NOT CALQL" clever-0.cali 2>/dev/null; then
    echo "bad query must fail"; exit 1
fi
if "$CALI_QUERY" -q "FORMAT table" /nonexistent.cali 2>/dev/null; then
    echo "missing file must fail"; exit 1
fi

echo "cli_pipeline: all checks passed"
