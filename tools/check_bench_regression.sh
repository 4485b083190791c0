#!/usr/bin/env bash
# Decision-throughput regression gate, run as part of `dune runtest`:
# runs a fresh `bench engines --smoke` and compares, for every engine
# the committed full-run baseline (BENCH_engines.json at the repo root)
# names in its "engines" list, that engine's ns/decision per scheduler
# against the baseline's column. Per engine, the geometric mean of the
# per-scheduler fresh/baseline ratios must stay within TOLERANCE x, and
# no single scheduler may exceed HARD_CAP x — the mean absorbs the
# noise of a single ~µs-scale smoke measurement on a contended test
# machine, while the cap still catches one engine falling off a cliff
# on one scheduler (e.g. the threaded engine's call-site
# specialization silently degrading to generic helper calls). Also
# checks the committed BENCH_fleet.json hosting
# ladder: it must be a full (non-smoke) run whose top rung reaches the
# 1M-concurrent / 1M-arrival headline with the 100k rung's decision
# throughput within FLEET_DPS_RATIO x of the 10k rung's (per-connection
# cost must not grow superlinearly with fleet size); a fresh smoke rung
# must stay within FLEET_CAP x of the baseline's decision throughput,
# and a fresh mem-smoke mid rung must keep heap bytes per connection
# within MEM_CAP x of the baseline's (asserted by the bench itself).
# The committed BENCH_eventq.json (timing-wheel event-core
# microbenchmark: schedule, drain, cancel, re-arm and churn rows, each
# workload at 1k / 100k / 1M pending) gets the same treatment: a fresh
# `bench eventq --smoke` (1k pending only) must produce a row for
# every workload the baseline names and keep the wheel's ns/op within
# TOLERANCE x (geometric mean) / HARD_CAP x (single mix) of the
# baseline's.
# Any baseline recorded on a machine with a different core count is
# refused (skipped with a note) rather than compared. Skips silently
# when the baseline or the bench binary is unavailable (release
# tarballs, partial checkouts). Each gate that trips is re-run once
# before counting as a failure, so a transient host-scheduling spike
# on a shared box cannot fail the suite on its own.
set -u

TOLERANCE=2.0
HARD_CAP=4.0
FLEET_CAP=10.0
# dps-flatness: with the O(1) timing-wheel event core the per-event cost
# must not grow algorithmically with fleet size — the 100k rung's
# decisions/sec may trail the 10k rung's by at most this factor. The
# committed ladder records ~1.42x:
# the residual slope is the last-level-cache cliff (the 10k rung's
# ~139 MB marginal working set fits the recording box's 256 MB LLC,
# the 100k rung's ~1.65 GB does not), not event-core cost — per-op
# event-queue flatness is gated sharply by check_eventq below. This
# blunt backstop catches a committed ladder whose slope grows past the
# cache-explainable band (e.g. an accidental O(log n) or O(n) term
# reappearing in the per-event path).
FLEET_DPS_RATIO=1.5
MEM_CAP=1.25
# a fleet rung completing less than this fraction of its arrivals is
# overload-shaped: its throughput figures describe mostly-unfinished
# work, so the gate points it out (warning, not failure)
COMPLETION_WARN=0.05

# The script runs from inside _build; walk up to the checkout root.
dir=$PWD
while [ "$dir" != "/" ] && [ ! -e "$dir/.git" ]; do
  dir=$(dirname "$dir")
done

bench=""
for candidate in \
  "$dir/_build/default/bench/main.exe" \
  "$(dirname "$0")/../bench/main.exe"; do
  if [ -x "$candidate" ]; then
    bench="$candidate"
    break
  fi
done
[ -n "$bench" ] || exit 0

# Machine guard: wall-clock benchmark numbers only compare on a machine
# of the same shape. A baseline whose recorded "cores" field differs
# from this machine's core count is refused (skipped with a note) —
# comparing it would turn every cross-machine checkout into a spurious
# pass or fail.
current_cores=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
cores_of() { sed -n 's/.*"cores": \([0-9][0-9]*\).*/\1/p' "$1" | head -n 1; }
comparable() { # $1 = baseline file; returns 1 (and explains) on mismatch
  c=$(cores_of "$1")
  if [ -n "$c" ] && [ "$c" != "$current_cores" ]; then
    echo "note: $(basename "$1") was recorded on a ${c}-core machine but this one has ${current_cores} cores; refusing to compare — re-record the baseline here" >&2
    return 1
  fi
  return 0
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

check_engines() {
  baseline="$dir/BENCH_engines.json"
  [ -f "$baseline" ] || return 0
  comparable "$baseline" || return 0

  # Run the smoke bench in a scratch dir: it writes its own
  # BENCH_engines.json into the cwd and must not clobber the baseline.
  (cd "$tmp" && "$bench" engines --smoke >/dev/null 2>&1) || {
    echo "error: bench engines --smoke failed" >&2
    return 1
  }
  fresh="$tmp/BENCH_engines.json"
  [ -f "$fresh" ] || { echo "error: smoke run produced no BENCH_engines.json" >&2; return 1; }

  # Extract "scheduler ns" pairs for one engine column from the
  # one-entry-per-line JSON the bench emits (no jq dependency).
  extract() { # $1 = file, $2 = json field name
    sed -n 's/.*"scheduler": "\([^"]*\)".* "'"$2"'": \([0-9.]*\).*/\1 \2/p' "$1"
  }

  # Extract the top-level "engines" list as one name per line.
  engines_of() {
    sed -n 's/.*"engines": \[\(.*\)\].*/\1/p' "$1" | tr ',' '\n' \
      | sed 's/[[:space:]"]//g' | grep -v '^$'
  }

  est=0
  # Every engine the baseline measured must still be registered: a backend
  # dropping out of Engine.names() would otherwise silently vanish from
  # the comparison instead of failing the gate.
  engines_of "$baseline" > "$tmp/base_engines.txt"
  engines_of "$fresh" > "$tmp/fresh_engines.txt"
  [ -s "$tmp/base_engines.txt" ] || { echo "error: no engines list in $baseline" >&2; return 1; }
  while read -r engine; do
    if ! grep -qx "$engine" "$tmp/fresh_engines.txt"; then
      echo "error: engine $engine present in baseline but missing from fresh bench run" >&2
      est=1
    fi
  done < "$tmp/base_engines.txt"

compare() { # $1 = base pairs, $2 = fresh pairs, $3 = engine label
  awk -v tol="$TOLERANCE" -v cap="$HARD_CAP" -v eng="$3" '
    NR == FNR { base[$1] = $2; next }
    ($1 in base) && base[$1] > 0 && $2 > 0 {
      ratio = $2 / base[$1]
      log_sum += log(ratio)
      n++
      if (ratio > cap) {
        printf "error: %s %s decision time fell off a cliff: %.0f ns vs baseline %.0f ns (> %.1fx)\n", $1, eng, $2, base[$1], cap > "/dev/stderr"
        bad = 1
      }
    }
    END {
      if (n == 0) { printf "error: no comparable %s entries\n", eng > "/dev/stderr"; exit 1 }
      mean = exp(log_sum / n)
      if (mean > tol) {
        printf "error: %s decision times regressed: geometric mean %.2fx of baseline (> %.1fx over %d schedulers)\n", eng, mean, tol, n > "/dev/stderr"
        bad = 1
      }
      exit bad
    }' "$1" "$2"
}

  # Each engine's column is gated on its own; every baseline scheduler
  # must still be measured in it.
  while read -r engine; do
    extract "$baseline" "${engine}_ns_per_decision" > "$tmp/base_$engine.txt"
    extract "$fresh" "${engine}_ns_per_decision" > "$tmp/fresh_$engine.txt"
    if [ ! -s "$tmp/base_$engine.txt" ]; then
      echo "error: no $engine entries in $baseline" >&2
      est=1
      continue
    fi
    while read -r sched _; do
      if ! awk -v s="$sched" '$1 == s { found = 1 } END { exit !found }' "$tmp/fresh_$engine.txt"; then
        echo "error: scheduler $sched present in baseline but missing from fresh bench run" >&2
        est=1
      fi
    done < "$tmp/base_$engine.txt"
    compare "$tmp/base_$engine.txt" "$tmp/fresh_$engine.txt" "$engine" || est=1
  done < "$tmp/base_engines.txt"

  if [ "$est" -ne 0 ]; then
    echo "hint: if the slowdown is expected, refresh the baseline with:" >&2
    echo "  dune exec bench/main.exe -- engines   # then commit BENCH_engines.json" >&2
  fi
  return "$est"
}

# --- fleet hosting ladder --------------------------------------------------
# The committed BENCH_fleet.json is the record backing the 100k-connection
# hosting claim; the gate keeps that record honest (a full ladder, on this
# machine, actually reaching the headline numbers) and smoke-runs one small
# rung against the baseline's to catch order-of-magnitude throughput cliffs.
check_fleet() {
  fbase="$dir/BENCH_fleet.json"
  if [ ! -f "$fbase" ]; then
    echo "note: no BENCH_fleet.json baseline; skipping fleet throughput check" >&2
    return 0
  fi
  comparable "$fbase" || return 0

  if grep -q '"smoke": *true' "$fbase"; then
    echo "error: committed BENCH_fleet.json was recorded with --smoke; re-record with: dune exec bench/main.exe -- fleet" >&2
    return 1
  fi

  peak=$(sed -n 's/.*"peak_live": \([0-9][0-9]*\).*/\1/p' "$fbase" | sort -n | tail -n 1)
  arrivals=$(sed -n 's/.*"arrivals": \([0-9][0-9]*\).*/\1/p' "$fbase" | sort -n | tail -n 1)
  fst=0
  if [ -z "$peak" ] || [ "$peak" -lt 1000000 ]; then
    echo "error: BENCH_fleet.json top rung hosts ${peak:-0} concurrent connections (< 1000000)" >&2
    fst=1
  fi
  if [ -z "$arrivals" ] || [ "$arrivals" -lt 1000000 ]; then
    echo "error: BENCH_fleet.json top rung drove ${arrivals:-0} arrivals (< 1000000)" >&2
    fst=1
  fi

  # Per-connection event cost must not grow superlinearly with fleet
  # size: the 100k rung's decisions/wall-second may trail the 10k
  # rung's by at most FLEET_DPS_RATIO x in the committed ladder.
  rung_field() { # $1 = file, $2 = target, $3 = field
    sed -n 's/.*"target": '"$2"',.* "'"$3"'": \([0-9.][0-9.]*\).*/\1/p' "$1" | head -n 1
  }
  dps10k=$(rung_field "$fbase" 10000 decisions_per_sec)
  dps100k=$(rung_field "$fbase" 100000 decisions_per_sec)
  if [ -n "$dps10k" ] && [ -n "$dps100k" ]; then
    awk -v a="$dps10k" -v b="$dps100k" -v cap="$FLEET_DPS_RATIO" 'BEGIN {
      if (a > 0 && b > 0 && a / b > cap) {
        printf "error: fleet decision throughput degrades superlinearly: 100k rung %.0f/s vs 10k rung %.0f/s (> %.1fx apart)\n", b, a, cap > "/dev/stderr"
        exit 1
      }
    }' || fst=1
  else
    echo "error: BENCH_fleet.json lacks the 10k/100k rungs needed for the throughput-scaling check" >&2
    fst=1
  fi

  # completion visibility: overload-shaped rungs are expected at the top
  # of the ladder, but a rung finishing < COMPLETION_WARN of its
  # arrivals should say so at a glance instead of hiding behind its
  # throughput numbers
  sed -n 's/.*"target": \([0-9][0-9]*\),.*"completion_ratio": \([0-9.][0-9.]*\),.*/\1 \2/p' "$fbase" \
  | while read -r target ratio; do
      awk -v t="$target" -v r="$ratio" -v warn="$COMPLETION_WARN" 'BEGIN {
        if (r < warn)
          printf "warning: fleet rung %s completed only %.1f%% of its arrivals (overload-shaped rung; throughput figures describe mostly-unfinished work)\n", t, r * 100 > "/dev/stderr"
      }'
    done

  mkdir -p "$tmp/fleet_smoke"
  if ! (cd "$tmp/fleet_smoke" && "$bench" fleet --smoke > /dev/null 2> "$tmp/fleet-smoke.log"); then
    echo "error: fleet --smoke bench failed:" >&2
    cat "$tmp/fleet-smoke.log" >&2
    return 1
  fi
  ffresh="$tmp/fleet_smoke/BENCH_fleet.json"
  [ -f "$ffresh" ] || { echo "error: fleet smoke run produced no BENCH_fleet.json" >&2; return 1; }

  base_dps=$(sed -n 's/.*"decisions_per_sec": \([0-9.][0-9.]*\).*/\1/p' "$fbase" | head -n 1)
  fresh_dps=$(sed -n 's/.*"decisions_per_sec": \([0-9.][0-9.]*\).*/\1/p' "$ffresh" | head -n 1)
  if [ -n "$base_dps" ] && [ -n "$fresh_dps" ]; then
    awk -v b="$base_dps" -v f="$fresh_dps" -v cap="$FLEET_CAP" 'BEGIN {
      if (b > 0 && f > 0 && b / f > cap) {
        printf "error: fleet decision throughput fell off a cliff: %.0f/s vs baseline %.0f/s (> %.1fx)\n", f, b, cap > "/dev/stderr"
        exit 1
      }
    }' || fst=1
  fi

  # Memory-footprint ceiling: a fresh mem-smoke mid rung, run next to a
  # copy of the committed baseline, must keep heap bytes per live
  # connection within MEM_CAP x of the baseline's matching rung. The
  # bench itself performs the comparison and exits non-zero on breach.
  mkdir -p "$tmp/fleet_mem"
  cp "$fbase" "$tmp/fleet_mem/BENCH_fleet.json"
  if ! (cd "$tmp/fleet_mem" && "$bench" fleet --mem-smoke > /dev/null 2> "$tmp/fleet-mem.log"); then
    echo "error: fleet --mem-smoke memory gate failed (bytes/conn ceiling ${MEM_CAP}x):" >&2
    cat "$tmp/fleet-mem.log" >&2
    fst=1
  fi

  if [ "$fst" -ne 0 ]; then
    echo "hint: re-record the fleet ladder with: dune exec bench/main.exe -- fleet   # then commit BENCH_fleet.json" >&2
  fi
  return "$fst"
}

# --- event core ------------------------------------------------------------
# The committed BENCH_eventq.json records the timing-wheel event-core
# microbenchmark; the gate smoke-runs the same mixes and compares the
# wheel's ns/op row by row — geometric mean within TOLERANCE x, no
# single mix past HARD_CAP x — with the same cross-machine refusal as
# the other gates. Every workload the baseline names must have a fresh
# row at the smoke's pending size: a mix dropping out of the bench
# fails the gate instead of silently leaving the comparison.
check_eventq() {
  ebase="$dir/BENCH_eventq.json"
  if [ ! -f "$ebase" ]; then
    echo "note: no BENCH_eventq.json baseline; skipping event-core check" >&2
    return 0
  fi
  comparable "$ebase" || return 0

  if grep -q '"smoke": *true' "$ebase"; then
    echo "error: committed BENCH_eventq.json was recorded with --smoke; re-record with: dune exec bench/main.exe -- eventq" >&2
    return 1
  fi

  mkdir -p "$tmp/eventq_smoke"
  if ! (cd "$tmp/eventq_smoke" && "$bench" eventq --smoke >/dev/null 2>"$tmp/eventq-smoke.log"); then
    echo "error: bench eventq --smoke failed:" >&2
    cat "$tmp/eventq-smoke.log" >&2
    return 1
  fi
  efresh="$tmp/eventq_smoke/BENCH_eventq.json"
  [ -f "$efresh" ] || { echo "error: eventq smoke run produced no BENCH_eventq.json" >&2; return 1; }

  erows() { # $1 = file -> "workload:pending wheel_ns" per line
    sed -n 's/.*"workload": "\([^"]*\)", "pending": \([0-9]*\), "wheel_ns_per_op": \([0-9.]*\).*/\1:\2 \3/p' "$1"
  }
  erows "$ebase" > "$tmp/eventq_base.txt"
  erows "$efresh" > "$tmp/eventq_fresh.txt"
  [ -s "$tmp/eventq_base.txt" ] || { echo "error: no rows in $ebase" >&2; return 1; }
  [ -s "$tmp/eventq_fresh.txt" ] || { echo "error: fresh eventq run has no rows" >&2; return 1; }

  est=0
  # the smoke's pending size, from its first row
  spend=$(sed -n '1s/^[^:]*:\([0-9]*\) .*/\1/p' "$tmp/eventq_fresh.txt")
  for w in $(sed 's/:.*//' "$tmp/eventq_base.txt" | sort -u); do
    if ! grep -q "^$w:$spend " "$tmp/eventq_fresh.txt"; then
      echo "error: eventq workload $w present in baseline but missing from the fresh smoke run (pending $spend)" >&2
      est=1
    fi
  done
  awk -v tol="$TOLERANCE" -v cap="$HARD_CAP" '
    NR == FNR { wheel[$1] = $2; next }
    ($1 in wheel) && wheel[$1] > 0 && $2 > 0 {
      ratio = $2 / wheel[$1]
      log_sum += log(ratio)
      n++
      if (ratio > cap) {
        printf "error: eventq %s wheel ns/op fell off a cliff: %.1f vs baseline %.1f (> %.1fx)\n", $1, $2, wheel[$1], cap > "/dev/stderr"
        bad = 1
      }
    }
    END {
      if (n == 0) { print "error: no comparable eventq rows between baseline and fresh run" > "/dev/stderr"; exit 1 }
      mean = exp(log_sum / n)
      if (mean > tol) {
        printf "error: eventq wheel ns/op regressed: geometric mean %.2fx of baseline (> %.1fx over %d mixes)\n", mean, tol, n > "/dev/stderr"
        bad = 1
      }
      exit bad
    }' "$tmp/eventq_base.txt" "$tmp/eventq_fresh.txt" || est=1

  if [ "$est" -ne 0 ]; then
    echo "hint: if the slowdown is expected, refresh the baseline with:" >&2
    echo "  dune exec bench/main.exe -- eventq   # then commit BENCH_eventq.json" >&2
  fi
  return "$est"
}

# The smoke measurements behind these gates are a handful of short
# wall-clock timings; on a shared or virtualized box, host scheduling
# noise (steal time) can inflate one mix by several x in a single run.
# A gate that trips therefore gets exactly one full re-run before it
# counts as a failure: transient noise passes the second attempt, while
# a real regression is deterministic and fails both.
retry_once() { # $1 = gate label, $2 = check function
  "$2" && return 0
  echo "note: $1 gate tripped; re-running the smoke once to rule out transient host scheduling noise (a real regression fails both runs)" >&2
  "$2"
}

retry_once engines check_engines || status=1
retry_once fleet check_fleet || status=1
retry_once eventq check_eventq || status=1
exit "$status"
