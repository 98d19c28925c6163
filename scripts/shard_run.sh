#!/usr/bin/env sh
# Fan a nubb_run experiment out over N local shard processes and merge.
#
# Usage: scripts/shard_run.sh [-j MERGED_JSON] [-s STATE_DIR] NUBB_RUN SHARD_COUNT [run] [nubb_run options...]
#
# Example:
#   scripts/shard_run.sh -j merged.json ./build/tools/nubb_run 4 \
#       --caps 500x1,500x10 --reps 100000 --seed 7
#
# Each shard runs `nubb_run ... --shard i/N --out state_i.json` in its own
# process; the final merge folds the collector states in global chunk order,
# so the merged report is bit-identical to the same single-process run
# (see README "Distributed runs").
#
# Without -s, state files live in a temp directory that is removed on exit.
# With -s STATE_DIR the states persist there and runs are resumable: a shard
# whose state file already exists and passes `nubb_run check-state` (same
# nubb.shard.v2 format, same experiment fingerprint, same shard coordinate,
# collector state parses) is skipped; a missing, corrupt, or mismatched
# state is re-run. If any shard process fails, its exit code is propagated
# and no merge is attempted, so a partial set is never folded.
set -eu

merged_json=""
state_dir=""
while [ "$#" -ge 1 ]; do
  case "$1" in
    -j)
      [ "$#" -ge 2 ] || { echo "shard_run.sh: -j needs a file argument" >&2; exit 2; }
      merged_json=$2
      shift 2 ;;
    -s)
      [ "$#" -ge 2 ] || { echo "shard_run.sh: -s needs a directory argument" >&2; exit 2; }
      state_dir=$2
      shift 2 ;;
    *) break ;;
  esac
done

if [ "$#" -lt 2 ]; then
  echo "usage: scripts/shard_run.sh [-j MERGED_JSON] [-s STATE_DIR] NUBB_RUN SHARD_COUNT [run] [options...]" >&2
  exit 2
fi

nubb_run=$1
shard_count=$2
shift 2
# `run` is nubb_run's default subcommand; drop it so the forwarded options
# also fit after `check-state FILE` in the resume probe.
if [ "$#" -ge 1 ] && [ "$1" = run ]; then
  shift
fi

case "$shard_count" in
  ''|*[!0-9]*) echo "shard_run.sh: SHARD_COUNT must be a positive integer" >&2; exit 2 ;;
esac
[ "$shard_count" -ge 1 ] || { echo "shard_run.sh: SHARD_COUNT must be >= 1" >&2; exit 2; }

if [ -n "$state_dir" ]; then
  mkdir -p "$state_dir"
else
  state_dir=$(mktemp -d)
  trap 'rm -rf "$state_dir"' EXIT INT TERM
fi

# Fan out one process per shard, skipping shards whose persisted state is
# still valid for this exact configuration. Remember the pids: plain `wait`
# would swallow child failures in POSIX sh, so wait per pid and propagate
# the first failing shard's exit code.
pids=""
pid_shards=""
i=0
while [ "$i" -lt "$shard_count" ]; do
  state_file="$state_dir/shard_$i.json"
  if [ -f "$state_file" ] &&
     "$nubb_run" check-state "$state_file" "$@" --shard "$i/$shard_count" >/dev/null 2>&1; then
    echo "shard_run.sh: shard $i/$shard_count already complete, skipping" >&2
  else
    "$nubb_run" "$@" --shard "$i/$shard_count" --out "$state_file" &
    pids="$pids $!"
    pid_shards="$pid_shards $i"
  fi
  i=$((i + 1))
done

failed_rc=0
set -- $pid_shards
for pid in $pids; do
  shard_id=$1
  shift
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "shard_run.sh: shard $shard_id/$shard_count failed with exit code $rc" >&2
    [ "$failed_rc" -ne 0 ] || failed_rc=$rc
  fi
done
[ "$failed_rc" -eq 0 ] || exit "$failed_rc"

# Merge in shard order. The state files record the chunk layout, so the
# merge validates coverage and the fold is order-exact regardless.
states=""
i=0
while [ "$i" -lt "$shard_count" ]; do
  states="$states $state_dir/shard_$i.json"
  i=$((i + 1))
done

if [ -n "$merged_json" ]; then
  # shellcheck disable=SC2086
  "$nubb_run" merge $states --json "$merged_json"
else
  # shellcheck disable=SC2086
  "$nubb_run" merge $states
fi
