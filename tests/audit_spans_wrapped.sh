#!/usr/bin/env bash
# haechi_audit --spans on detail traces whose engine rings wrapped: the
# audit must exit 2 and say the rings wrapped (rerun with a larger
# --trace-ring), not that the trace lacks --trace-detail. A trace recorded
# without --trace-detail keeps the --trace-detail hint.
#
# Usage: tests/audit_spans_wrapped.sh HAECHI_SIM HAECHI_AUDIT (ctest runs it
# as `audit_spans_wrapped` in tracing builds). Exits 1 on any mismatch.
set -u

sim=$1
audit=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failures=0

# check NAME WANT_TEXT SIM_FLAGS...: records a trace with SIM_FLAGS, then
# expects `haechi_audit --spans` to exit 2 with WANT_TEXT on stderr.
check() {
  local name=$1 want=$2
  shift 2
  if ! "$sim" --clients=2 --periods=2 --warmup-seconds=0 --scale=0.01 \
      --seed=11 --trace-out="$work/$name.csv" "$@" >/dev/null 2>&1; then
    echo "FAIL $name: haechi_sim exited non-zero"
    failures=$((failures + 1))
    return
  fi
  "$audit" --spans --quiet --trace="$work/$name.csv" >/dev/null \
    2>"$work/$name.err"
  local code=$?
  if [[ $code -ne 2 ]]; then
    echo "FAIL $name: haechi_audit --spans exit $code, want 2"
    failures=$((failures + 1))
  elif ! grep -qF -- "$want" "$work/$name.err"; then
    echo "FAIL $name: stderr lacks '$want':"
    cat "$work/$name.err"
    failures=$((failures + 1))
  else
    echo "ok   $name"
  fi
}

check wrapped_detail "the engine rings wrapped" \
  --trace-detail --trace-ring=2000
check no_detail "rerun with --trace-detail"

exit $((failures > 0))
