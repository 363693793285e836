#!/usr/bin/env bash
# Every spec-grammar flag must turn a malformed value into a usage error:
# exit 2 (rejected after cmdliner) or 124 (rejected by cmdliner's
# converter) with a "usched:" line on stderr. Exit 125 (cmdliner's
# uncaught exception) or death by a signal fails the check.
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

# The subcommands that take each flag.
declare -A commands=(
  [--algo]="solve" [--policy]="solve" [--recover]="solve" [--arrival]="solve"
  [--workload]="gen" [--failp]="gen" [--speed-band]="gen solve"
  [--topology]="gen solve"
)

failures=0
for flag in "${!specific[@]}"; do
  read -r -a values <<< "${specific[$flag]}"
  for value in "${common[@]}" "${values[@]}"; do
    for command in ${commands[$flag]}; do
      if [ "$command" = gen ]; then
        args=(gen "$dir/out.usched" --machines 4 "$flag=$value")
      else
        args=(solve "$instance" "$flag=$value")
      fi
      status=0
      timeout 20 "$usched" "${args[@]}" >/dev/null 2>"$dir/err" || status=$?
      if { [ "$status" -ne 2 ] && [ "$status" -ne 124 ]; } ||
         ! grep -q '^usched:' "$dir/err"; then
        echo "FAIL: usched $command $flag='$value' exited $status:" >&2
        head -3 "$dir/err" >&2
        failures=$((failures + 1))
      fi
    done
  done
done

if [ "$failures" -ne 0 ]; then
  echo "$failures malformed values were not usage errors" >&2
  exit 1
fi
echo "every malformed spec value is a usage error"
