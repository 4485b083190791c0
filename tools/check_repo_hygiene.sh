#!/usr/bin/env bash
# Repo-hygiene check, run as part of `dune runtest`: fails when build
# artifacts are tracked in git (they churned every PR before the purge)
# or when the root .gitignore stops covering _build/. Skips silently
# when git or the checkout is unavailable (release tarballs, sandboxes).
set -u

command -v git >/dev/null 2>&1 || exit 0

# The script runs from inside _build; walk up to the checkout root.
dir=$PWD
while [ "$dir" != "/" ] && [ ! -e "$dir/.git" ]; do
  dir=$(dirname "$dir")
done
[ -e "$dir/.git" ] || exit 0

tracked=$(git -C "$dir" ls-files -- _build 2>/dev/null | head -n 5)
if [ -n "$tracked" ]; then
  echo "error: build artifacts are tracked in git; run: git rm -r --cached _build" >&2
  echo "first offenders:" >&2
  echo "$tracked" >&2
  exit 1
fi

if ! grep -qs '^_build/$' "$dir/.gitignore"; then
  echo "error: root .gitignore must contain a '_build/' entry" >&2
  exit 1
fi

# Every committed benchmark baseline must look like one the bench
# binary wrote: a JSON object that names its experiment and records the
# machine's core count (the regression gate refuses cross-machine
# comparisons based on that field, so a baseline without it dodges the
# guard). Catches truncated files from interrupted bench runs and
# hand-edited baselines.
status=0
for f in $(git -C "$dir" ls-files -- 'BENCH_*.json'); do
  path="$dir/$f"
  if [ ! -s "$path" ]; then
    echo "error: $f is empty; re-record it with the bench binary" >&2
    status=1
    continue
  fi
  case "$(head -c 1 "$path")" in
    "{") ;;
    *)
      echo "error: $f does not start with '{' (not a JSON object)" >&2
      status=1
      continue
      ;;
  esac
  if ! grep -q '"experiment"' "$path"; then
    echo "error: $f has no \"experiment\" field; re-record it with the bench binary" >&2
    status=1
  fi
  if ! grep -q '"cores"' "$path"; then
    echo "error: $f has no \"cores\" field; re-record it with the bench binary" >&2
    status=1
  fi
done

# Every library module must publish an interface: a tracked lib/**/*.ml
# without its .mli leaks implementation details into dependents and
# breaks the documentation convention the rest of the tree follows.
# (Executables, tests, examples and benchmarks are exempt.)
for f in $(git -C "$dir" ls-files -- 'lib/*.ml' 'lib/**/*.ml'); do
  mli="${f%.ml}.mli"
  if ! git -C "$dir" ls-files --error-unmatch "$mli" >/dev/null 2>&1; then
    echo "error: $f is tracked without $mli; library modules need interfaces" >&2
    status=1
  fi
done

# Scenario and experiment worlds (paths, connections, workloads) are
# defined once, in lib/exp: the registry (scenarios.ml) and the paper
# experiments (figures.ml). A binary or bench harness that builds one
# itself — from a canonical path set, a workload generator, a
# topology or a bare connection — has forked a world and will drift
# from the shared copy.
world='Scenarios\.(wifi_lte|fluctuate_wifi|mininet_two_subflows|datacenter)\b'
world="$world"'|Apps\.Workload\.|Topology\.connect|Connection\.create'
for f in $(git -C "$dir" ls-files -- 'bin/*.ml' 'bench/*.ml'); do
  hits=$(grep -nE "$world" "$dir/$f")
  if [ -n "$hits" ]; then
    echo "error: $f builds a scenario world; define it in lib/exp/scenarios.ml or lib/exp/figures.ml:" >&2
    echo "$hits" >&2
    status=1
  fi
done

exit "$status"
