#!/bin/sh
# A/B the end-to-end benchmark between two source trees, from anywhere:
#   sh bench/ab.sh PARENT_TREE CHANGE_TREE WORKLOAD SEED...
# For each seed, runs
#   sh perfbench/run.sh --workload WORKLOAD --seed SEED --seconds 25 --trace 0
# once from the root of each tree; the tree that goes first alternates from
# seed to seed (the parent first at the first seed). Each run's results file
# goes to a temporary directory (printed at the start), so nothing under
# either tree's perfbench/ is written. Prints every run's metrics line, then,
# for each end-to-end metric of CHANGE_TREE/BENCHMARK.json: both medians, the
# parent's quartiles, the change's median relative to the parent's, in how
# many pairs (same seed) the change was better (ties count for neither), and
# a verdict against the metric's bound B, with margin = B x parent median:
#   worse       the change's median is worse than the parent's by > margin;
#   unresolved  the parent's interquartile spread exceeds the margin and not
#               every change run beats every parent run;
#   ok          anything else.
# Quartiles interpolate linearly between order statistics. Exits 1 if a
# metric is worse or the change failed more ops than the parent.
set -u

if [ $# -lt 4 ]; then
  echo "usage: sh bench/ab.sh PARENT_TREE CHANGE_TREE WORKLOAD SEED..." >&2
  exit 2
fi
parent=$1
change=$2
workload=$3
shift 3
for tree in "$parent" "$change"; do
  if [ ! -f "$tree/perfbench/run.sh" ]; then
    echo "ab.sh: $tree has no perfbench/run.sh" >&2
    exit 2
  fi
done

out=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "results files: $out"
lines=$out/lines

run() { # side tree seed
  line=$(cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds 25 --trace 0 --out "$out/$1-seed$3.json" | tail -n 1)
  echo "$1 seed $3: $line"
  echo "$1 $3 $line" >>"$lines"
}

i=0
for seed in "$@"; do
  if [ $((i % 2)) -eq 0 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  i=$((i + 1))
done

awk -v workload="$workload" '
# the value of "key": number in a JSON line, or "" if absent
function num(s, key,   i, rest) {
  i = index(s, "\"" key "\": ")
  if (i == 0) return ""
  rest = substr(s, i + length(key) + 4)
  match(rest, /^-?[0-9.eE+-]+/)
  return RSTART ? substr(rest, 1, RLENGTH) : ""
}
function metric(s, name,   i) {
  i = index(s, "\"" name "\": {")
  return i ? num(substr(s, i), "value") : ""
}
# linear interpolation between the order statistics of v[1..n]
function quantile(v, n, q,   a, i, j, t, pos, lo) {
  for (i = 1; i <= n; i++) a[i] = v[i]
  for (i = 2; i <= n; i++) {
    t = a[i]
    for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
    a[j + 1] = t
  }
  pos = 1 + q * (n - 1)
  lo = int(pos)
  return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
NR == FNR {
  if (!/"bound"/) next
  name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
  better[name] = ($0 ~ /"better": "higher"/) ? "higher" : "lower"
  bound[name] = num($0, "bound")
  order[++m] = name
  next
}
{
  side = $1; seed = $2
  if (!(seed in seen)) { seen[seed] = 1; seeds[++ns] = seed }
  f = num($0, "failed"); att = num($0, "attempted")
  failed[side] += (f == "" ? 1 : f); attempted[side] += (att == "" ? 0 : att)
  for (k = 1; k <= m; k++) val[side, seed, order[k]] = metric($0, order[k])
}
END {
  printf "%s, %d pairs\n", workload, ns
  printf "%-20s %12s %12s %12s %12s %8s %6s %s\n", "metric", "parent_p50",
    "parent_q1", "parent_q3", "change_p50", "change", "won", "verdict"
  bad = 0
  for (k = 1; k <= m; k++) {
    name = order[k]; np = 0; nc = 0; won = 0; pairs = 0
    for (s = 1; s <= ns; s++) {
      p = val["parent", seeds[s], name]; c = val["change", seeds[s], name]
      if (p != "") pv[++np] = p + 0
      if (c != "") cv[++nc] = c + 0
      if (p == "" || c == "") continue
      pairs++
      if (better[name] == "lower" ? c + 0 < p + 0 : c + 0 > p + 0) won++
    }
    if (np == 0 || nc == 0) { printf "%-20s no readings\n", name; continue }
    pm = quantile(pv, np, 0.5); cm = quantile(cv, nc, 0.5)
    q1 = quantile(pv, np, 0.25); q3 = quantile(pv, np, 0.75)
    margin = bound[name] * (pm < 0 ? -pm : pm)
    # the worst change run against the best parent run
    cworst = cv[1]; pbest = pv[1]
    for (i = 2; i <= nc; i++)
      if (better[name] == "lower" ? cv[i] > cworst : cv[i] < cworst) cworst = cv[i]
    for (i = 2; i <= np; i++)
      if (better[name] == "lower" ? pv[i] < pbest : pv[i] > pbest) pbest = pv[i]
    if ((better[name] == "lower" ? cm - pm : pm - cm) > margin) verdict = "worse"
    else if (q3 - q1 > margin &&
             !(better[name] == "lower" ? cworst < pbest : cworst > pbest))
      verdict = "unresolved"
    else verdict = "ok"
    if (verdict == "worse") bad = 1
    printf "%-20s %12.6g %12.6g %12.6g %12.6g %+7.2f%% %3d/%d %s\n", name, pm,
      q1, q3, cm, pm != 0 ? 100 * (cm - pm) / pm : 0, won, pairs, verdict
  }
  printf "failed ops: parent %d of %d, change %d of %d\n", failed["parent"],
    attempted["parent"], failed["change"], attempted["change"]
  if (failed["change"] > failed["parent"]) bad = 1
  exit bad
}' "$change/BENCHMARK.json" "$lines"
