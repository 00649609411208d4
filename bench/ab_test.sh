#!/bin/sh
# Checks bench/ab.sh's verdicts and exit status against fake source trees
# whose perfbench/run.sh prints a canned metrics line per seed:
#   sh bench/ab_test.sh [AB_SCRIPT]
# The parent reads 1.0 on a_s and b_s and spreads c_s over 0.5..2.0. The
# change "mixed" reads a_s 10% worse (inside its 25% bound: ok), b_s 50%
# worse (worse) and c_s with the parent's median inside the parent's wide
# spread (unresolved); "flaky" matches the parent but fails one more op.
set -u
ab=${1:-bench/ab.sh}
dir=$(mktemp -d "${TMPDIR:-/tmp}/ab_test.XXXXXX")
trap 'rm -rf "$dir"' EXIT

tree() { # name a_s b_s "c_s by seed 1..4" failed
  mkdir -p "$dir/$1/perfbench"
  cat >"$dir/$1/BENCHMARK.json" <<'EOF'
{
  "end_to_end": [
    {"name": "a_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "b_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "c_s", "unit": "s", "better": "lower", "bound": 0.25}
  ]
}
EOF
  cat >"$dir/$1/perfbench/run.sh" <<EOF
while [ \$# -gt 0 ]; do
  if [ "\$1" = --seed ]; then seed=\$2; fi
  shift
done
set -- $4
shift \$((seed - 1))
echo '{"correct": true, "attempted": 10, "failed": $5, "metrics": {"a_s": {"value": $2, "unit": "s"}, "b_s": {"value": $3, "unit": "s"}, "c_s": {"value": '\$1', "unit": "s"}}}'
EOF
}

tree parent 1.0 1.0 "0.5 1.0 1.5 2.0" 0
tree mixed 1.1 1.5 "0.4 1.1 1.4 2.1" 0
tree flaky 1.0 1.0 "0.5 1.0 1.5 2.0" 1

fail=0
expect() { # description expected actual
  if [ "$2" != "$3" ]; then
    echo "ab_test: $1: expected '$2', got '$3'" >&2
    fail=1
  fi
}
verdict() { # output metric
  echo "$1" | awk -v m="$2" '$1 == m { print $NF }'
}

out=$(TMPDIR=$dir sh "$ab" "$dir/parent" "$dir/mixed" w 1 2 3 4 2>&1)
expect "mixed exit" 1 $?
expect "a_s verdict" ok "$(verdict "$out" a_s)"
expect "b_s verdict" worse "$(verdict "$out" b_s)"
expect "c_s verdict" unresolved "$(verdict "$out" c_s)"

out=$(TMPDIR=$dir sh "$ab" "$dir/parent" "$dir/flaky" w 1 2 3 4 2>&1)
expect "flaky exit" 1 $?
expect "flaky c_s verdict" unresolved "$(verdict "$out" c_s)"

out=$(TMPDIR=$dir sh "$ab" "$dir/parent" "$dir/parent" w 1 2 3 4 2>&1)
expect "self exit" 0 $?
expect "self b_s verdict" ok "$(verdict "$out" b_s)"

if [ $fail -ne 0 ]; then echo "$out" >&2; fi
exit $fail
