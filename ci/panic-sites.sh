#!/usr/bin/env bash
# Ratchets the panic sites in non-test code: counts `panic!`,
# `unreachable!`, `assert!` (which `debug_assert!` contains), `.unwrap()`
# and `.expect(` in every `crates/*/src` file up to its test module (the
# first top-level `#[cfg(test)]` followed by an inline `mod ... {`), and
# fails when the total exceeds the ceiling in `ci/panic-sites.ceiling`.
# Turning a site into a typed error lowers the count; lower the ceiling
# with it.
#
# Usage: ci/panic-sites.sh [--list]   (--list prints every file's count)
set -euo pipefail
cd "$(dirname "$0")/.."

non_test() {
  awk '
    /^#\[cfg\(test\)\]$/ { held = $0; next }
    held != "" {
      if ($0 ~ /^(pub(\(crate\))? )?mod [A-Za-z0-9_]+ \{/) exit
      print held
      held = ""
    }
    { print }
  ' "$1"
}

total=0
while IFS= read -r file; do
  count=$(non_test "$file" |
    { grep -oF -e 'panic!' -e 'unreachable!' -e 'assert!' -e '.unwrap()' -e '.expect(' || true; } |
    wc -l)
  if [ "${1:-}" = "--list" ] && [ "$count" -gt 0 ]; then
    printf '%5d %s\n' "$count" "$file"
  fi
  total=$((total + count))
done < <(find crates/*/src -name '*.rs' | LC_ALL=C sort)

ceiling=$(cat ci/panic-sites.ceiling)
echo "non-test panic sites: $total (ceiling $ceiling)"
if [ "$total" -gt "$ceiling" ]; then
  echo "more panic sites than the ceiling: return a typed error instead" \
    "(run ci/panic-sites.sh --list to see each file's count)" >&2
  exit 1
fi
