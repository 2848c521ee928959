#!/bin/sh
# Replays every case in fixtures/cases through `--check-json` and fails
# when a validator exit code differs from the recorded one. Each
# rejected fixture breaks exactly one gate; the accepted ones are the
# plain and dist shapes plus the runs where the dist_speedup floor
# does not apply.
#
#   sh check_fixtures.sh ./main.exe      (from the bench directory)
#
# Set VERBOSE=1 to see each validator message.
exe=$1
case $exe in */*) ;; *) exe=./$exe ;; esac
status=0
while read -r want file flags; do
  case $want in '' | '#'*) continue ;; esac
  # $flags is deliberately unquoted: it holds zero or more flags.
  msg=$("$exe" --check-json "$file" $flags 2>&1)
  got=$?
  [ -n "$VERBOSE" ] && echo "$got $file $flags: $msg"
  if [ "$got" != "$want" ]; then
    echo "check_fixtures: $file $flags: exit $got, want $want ($msg)"
    status=1
  fi
done < fixtures/cases
exit $status
