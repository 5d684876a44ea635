#!/usr/bin/env bash
# Reruns every trained-model experiment bin at `--quick` and compares its
# stdout with the copy committed under `results/quick/`, so a change that
# moves any paper number shows up as a diff. A change that moves numerics
# on purpose regenerates the copies with `--update` and says so.
#
# Usage (from anywhere, after `cargo build --release`):
#   ci/quick-outputs.sh            # compare; exits 1 on any difference
#   ci/quick-outputs.sh --update   # rewrite results/quick/*.txt
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
case "${1:-}" in
  "") ;;
  --update) update=1 ;;
  *) echo "usage: $0 [--update]" >&2; exit 2 ;;
esac

bins=target/release
committed=results/quick
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT

run() {
  local name=$1
  shift
  echo "== $name: $*" >&2
  "$bins/$@" > "$fresh/$name.txt"
}

run sweep sweep --quick --datasets Loan,Churn
run table5 table5 --quick
run table7 table7 --quick
run theorem1 theorem1 --quick
run fig10 fig10 --quick
run fig11 fig11 --quick
run ablation ablation --quick

if [ "$update" = 1 ]; then
  mkdir -p "$committed"
  cp "$fresh"/*.txt "$committed"/
  echo "rewrote $committed" >&2
  exit 0
fi

status=0
for file in "$fresh"/*.txt; do
  name=$(basename "$file")
  if ! diff -u "$committed/$name" "$file"; then
    echo "$committed/$name differs from this build's output" >&2
    status=1
  fi
done
exit "$status"
