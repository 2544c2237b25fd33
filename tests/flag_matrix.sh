#!/usr/bin/env bash
# Flag matrix: every protocol and observability flag of haechi_sim, run on
# the simulator and on the threaded runtime in short runs. A flag is either
# a feature the backend runs — exit 0, with a trace that haechi_audit
# passes and the output file the flag asked for — or one it rejects up
# front with exit 2. Nothing may be silently ignored.
#
# Usage: tests/flag_matrix.sh HAECHI_SIM HAECHI_AUDIT TRACE WATCHDOG (ctest
# runs it as `flag_matrix`). TRACE and WATCHDOG (1 or 0) say whether the
# build compiled them in: without tracing a trace holds only the harness's
# own events, so every audit verdict is clean; without the watchdog
# --alerts-out is ignored with a warning. Prints every case's verdict;
# exits 1 if any case failed.
set -u

sim=$1
audit=$2
traced=$3
watchdog=$4
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

base=(--clients=4 --periods=3 --warmup-seconds=0.3)
failures=0

# run RUNTIME WANT NAME [FLAGS...]. WANT is 2 (rejected up front), 0 (runs,
# and haechi_audit passes its trace), or 0:CODE (runs, and the audit exits
# CODE: a verdict the scenario provokes on purpose). A case named after an
# output flag also checks that its file was written.
run() {
  local runtime=$1 want=$2 name=$3
  shift 3
  local want_exit=${want%%:*} want_audit=0
  [[ $want == *:* && $traced -eq 1 ]] && want_audit=${want#*:}
  local trace="$work/trace.csv"
  local log="$work/$runtime.$name.log"
  rm -f "$trace" "$work/out"
  "$sim" --runtime="$runtime" "${base[@]}" --trace-out="$trace" "$@" \
    >"$log" 2>&1
  local got=$?
  if [[ $got -ne $want_exit ]]; then
    echo "FAIL $runtime $name: exit $got, want $want_exit"
    tail -n 5 "$log"
    failures=$((failures + 1))
    return
  fi
  if [[ $want_exit -eq 0 ]]; then
    "$audit" --trace="$trace" >>"$log" 2>&1
    local audited=$?
    if [[ $audited -ne $want_audit ]]; then
      echo "FAIL $runtime $name: haechi_audit exit $audited, want $want_audit"
      tail -n 5 "$log"
      failures=$((failures + 1))
      return
    fi
    local wrote=1
    case $name in
      metrics-out | prom-out) [[ -e "$work/out" ]] || wrote=0 ;;
      alerts-out)
        if [[ $watchdog -eq 1 ]]; then
          [[ -e "$work/out" ]] || wrote=0
        else
          grep -q "HAECHI_WATCHDOG=OFF" "$log" || wrote=0
        fi
        ;;
    esac
    if [[ $wrote -eq 0 ]]; then
      echo "FAIL $runtime $name: no file written"
      failures=$((failures + 1))
      return
    fi
  fi
  echo "ok   $runtime $name (exit $got)"
}

for runtime in sim threads; do
  run "$runtime" 0 trace-out
  run "$runtime" 0 mode-basic --mode=basic
  run "$runtime" 0 fetch-batch --fetch-batch=4
  run "$runtime" 0 limit-factor --limit-factor=1.5
  run "$runtime" 0 distribution-uniform --distribution=uniform
  run "$runtime" 0 distribution-spike --distribution=spike
  # Per-I/O detail events outgrow the simulator's default ring (65536 per
  # actor); the threaded default (2097152) holds a short run on both.
  run "$runtime" 0 trace-detail --trace-detail --trace-ring=2097152
  run "$runtime" 0 metrics-out --metrics-out="$work/out"
  run "$runtime" 0 prom-out --prom-out="$work/out"
  run "$runtime" 0 alerts-out --alerts-out="$work/out"
  run "$runtime" 0 status-interval --status-interval=1
  run "$runtime" 0 controller --controller=aggressive
  run "$runtime" 0 control-api --control-api=1:aggressive
  run "$runtime" 0 monitor-crash \
    --monitor-crash-at=1.0 --monitor-recover-at=2.0
done

# A wrapped ring is never silent: the audit fails A1 (exit 11).
run sim 0:11 trace-detail-default-ring --trace-detail

# Simulator-only features: the threaded runtime rejects them up front.
run sim 0 mode-bare --mode=bare
run threads 2 mode-bare --mode=bare
# Background load is the Set-4 congestion injection: every ledger identity
# holds, and the reservation verdict A9 (exit 19) fails on purpose.
run sim 0:19 background-pct --background-pct=20
run threads 2 background-pct --background-pct=20
run sim 0 cluster --cluster=2
run threads 2 cluster --cluster=2
run sim 0 write-fraction --write-fraction=0.5
run threads 2 write-fraction --write-fraction=0.5
run sim 0 pattern --pattern=burst
run threads 2 pattern --pattern=burst

if [[ $failures -gt 0 ]]; then
  echo "flag matrix: $failures case(s) failed"
  exit 1
fi
echo "flag matrix: all cases passed"
