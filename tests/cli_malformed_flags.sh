#!/bin/sh
# Malformed numeric flags (a sign on an unsigned value, trailing junk) must
# print the usage text and exit 2 before any scenario runs or any worker
# thread starts. `--threads=-1` once wrapped to 2^32-1 workers; it is only
# ever passed to a binary that rejects it.
#
# Usage: tests/cli_malformed_flags.sh <dualrad_campaign> <dualrad_serve>
campaign="$1"
serve="$2"
status=0

expect_usage() {
  out=$("$@" 2>&1)
  rc=$?
  case "$out" in
    *usage:*) ;;
    *) rc="$rc (no usage text)" ;;
  esac
  if [ "$rc" != 2 ]; then
    echo "FAIL: $* -> exit $rc"
    status=1
  fi
}

for flag in --trials=-1 --seed=-1 --threads=12abc --threads=-1 --heartbeat=; do
  expect_usage "$campaign" --filter=classical/round-robin "$flag"
done
for flag in --seed=-1 --trials=12abc --unit-trials=-4 --lease-secs=1s; do
  expect_usage "$serve" serve --filter=classical/round-robin "$flag"
done
exit "$status"
