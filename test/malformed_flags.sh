#!/usr/bin/env bash
# Every spec-grammar flag, and every numeric flag, must turn a malformed
# value into a usage error: exit 2 (rejected after cmdliner) or 124
# (rejected by cmdliner's converter) with a "usched:" line on stderr.
# Exit 125 (cmdliner's uncaught exception), death by a signal, or a run
# that accepts the value fails the check.
#
# Usage: bash test/malformed_flags.sh path/to/usched
set -u
usched=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
instance="$dir/ok.usched"
"$usched" gen "$instance" --tasks 8 --machines 4 --seed 1 >/dev/null || exit 1

# Malformed in every grammar.
common=("" ":" "::" "," "-" "nan" "inf" "1_0" "0x1p1" " 3" "3 " "1e999" "bogus")

declare -A specific=(
  [--algo]="ls-group: ls-group:0 ls-group:1_0 ls-group:x group:2:3 sabo:nan sabo:-1 sabo:.5 reliability:2 reliability:0.9:budget uniform-ls-group:2:1,x lpt-no-choice:1 help"
  [--policy]="random: random:x random:0x1 random:1:2 least-loaded:1 list-priority:"
  [--recover]="-1 1.5 0x2 degree:1 2:"
  [--arrival]="rate:0 rate:nan rate:inf poisson:-1 mmpp:4,0 mmpp::1 mmpp:0,0:1 mmpp:4,x:1 mmpp:4,0:0 trace trace:/nonexistent/arrivals.txt"
  [--workload]="uniform:5:1 uniform:1:2:3 exponential:-1 pareto:1:5:2 bimodal:2:1:1 identical identical:0 sand:1"
  [--failp]="uniform:nan uniform:1.5 uniform: 0.1 0.1,0.2,0.3,x 0.1,,0.1,0.1 0.1:0.2"
  [--speed-band]="uniform:2:1 uniform:0:1 uniform:1 1_0,0x1p1,3,1 1:2:3,1,1,1 1,1,1 1,1,1,0"
  [--topology]="zones:2:nan zones:0:1 zones:9:1 zones:2:-1 zones:2:1:inf zones:2 uniform:1 0,1|inf 0,1,1,999999999999|inf,1:1,inf|0,0:0,0 0,0,1,1|inf,1:2,inf|0,0:0,0"
)

# Numeric flags read numbers by the same lexical rule. They get only
# these values: inf is a valid --bandwidth.
numeric=("1_0" "0x1p1" " 3" "bogus")
numeric_flags=(--speeds --fail-rate --alpha --speculate --detect-latency
  --bandwidth --checkpoint --target-reliability)

# The subcommands that take each flag.
declare -A commands=(
  [--algo]="solve" [--policy]="solve" [--recover]="solve" [--arrival]="solve"
  [--workload]="gen" [--failp]="gen" [--speed-band]="gen solve"
  [--topology]="gen solve" [--alpha]="gen" [--speeds]="solve"
  [--fail-rate]="solve" [--speculate]="solve" [--detect-latency]="solve"
  [--bandwidth]="solve" [--checkpoint]="solve" [--target-reliability]="solve"
)

failures=0
# usage_error LABEL ARGS...: usched ARGS must exit as a usage error.
usage_error() {
  local label=$1 status=0
  shift
  timeout 20 "$usched" "$@" >/dev/null 2>"$dir/err" || status=$?
  if { [ "$status" -ne 2 ] && [ "$status" -ne 124 ]; } ||
     ! grep -q '^usched:' "$dir/err"; then
    echo "FAIL: usched $label exited $status:" >&2
    head -3 "$dir/err" >&2
    failures=$((failures + 1))
  fi
}

for flag in "${!specific[@]}" "${numeric_flags[@]}"; do
  if [ -n "${specific[$flag]+set}" ]; then
    read -r -a values <<< "${specific[$flag]}"
    values=("${common[@]}" "${values[@]}")
  else
    values=("${numeric[@]}")
  fi
  for value in "${values[@]}"; do
    for command in ${commands[$flag]}; do
      if [ "$command" = gen ]; then
        args=(gen "$dir/out.usched" --machines 4 "$flag=$value")
      else
        args=(solve "$instance" "$flag=$value")
      fi
      usage_error "$command $flag='$value'" "${args[@]}"
    done
  done
done

# Integers the converter reads but the command must refuse: an instance
# without tasks has no makespan to report.
for value in 0 -1; do
  usage_error "gen --tasks=$value" gen "$dir/out.usched" --machines 4 \
    "--tasks=$value"
done

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed values were not usage errors" >&2
  exit 1
fi
echo "every malformed spec or numeric value is a usage error"
