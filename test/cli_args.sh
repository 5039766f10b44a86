#!/bin/sh
# Option errors in each verb of whynot_cli (scenarios, explain, parse):
# -help prints the usage on stdout and exits 0; an unknown option, a
# missing required option or a bad option value prints a message on
# stderr and exits 2 — never an uncaught exception.
#
#   sh test/cli_args.sh _build/default/bin/whynot_cli.exe
cli=$1
status=0
fail() {
  echo "cli_args: $*" >&2
  status=1
}
for verb in "" explain parse; do
  name=${verb:-scenarios}
  out=$($cli $verb -help 2>&1)
  code=$?
  [ "$code" -eq 0 ] || fail "$name -help exited $code"
  case $out in
  *"Fatal error"*) fail "$name -help raised: $out" ;;
  "whynot_cli "*) ;;
  *) fail "$name -help printed no usage: $out" ;;
  esac
  err=$($cli $verb -bogus 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 2 ] || fail "$name -bogus exited $code"
  case $err in
  *"Fatal error"*) fail "$name -bogus raised: $err" ;;
  *"unknown option '-bogus'"*) ;;
  *) fail "$name -bogus printed no message: $err" ;;
  esac
done
# usage errors found after the options parse: "<args>|<expected message>"
bad_db=$(mktemp)
trap 'rm -f "$bad_db"' EXIT
printf '{"t": ' >"$bad_db"
for case in "explain|explain needs -db" \
  "parse -scenario RE|parse needs -query" \
  "RE -log-level bogus|unknown log level" \
  "explain -db /nonexistent.json -query x -whynot x|/nonexistent.json: No such file" \
  "parse -scenario RE -query-file /nonexistent.sql|/nonexistent.sql: No such file" \
  "parse -db $bad_db -query x|invalid database"; do
  args=${case%%|*}
  want=${case#*|}
  err=$($cli $args 2>&1 >/dev/null)
  code=$?
  [ "$code" -eq 2 ] || fail "'$args' exited $code"
  case $err in
  *"Fatal error"*) fail "'$args' raised: $err" ;;
  *"$want"*) ;;
  *) fail "'$args' printed no message: $err" ;;
  esac
done
exit $status
