#!/usr/bin/env bash
# The dead-API census: every `pub fn|struct|enum|trait|const|static|type`
# item in crates/*/src whose name, as a word, appears in no .rs file under
# crates/, src/, tests/, examples/ or benchmark/src/ other than its own file
# and its own crate's tests/. It is a grep, so a name shared with a live item
# elsewhere hides a dead one; what it lists is dead or reachable only from
# its own file and tests. Prints each item as `file name`, then
# `unused_pub=N`.
#
#   bash scripts/unused_pub.sh          # the list and the count
#   bash scripts/unused_pub.sh --count  # the count only
set -euo pipefail

cd "$(dirname "$0")/.."

# Every `word file` pair once, over every file the census searches.
find crates src tests examples benchmark/src -name '*.rs' -print0 |
  xargs -0 grep -oHwE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"${TMPDIR:-/tmp}/unused_pub.$$"
trap 'rm -f "${TMPDIR:-/tmp}/unused_pub.$$"' EXIT

grep -rHE '^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|static|type) [A-Za-z_]' \
  --include='*.rs' crates/*/src |
  sed -E 's/^([^:]*):[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|static|type) ([A-Za-z_][A-Za-z0-9_]*).*/\1 \4/' |
  sort -u |
  awk -v index_file="${TMPDIR:-/tmp}/unused_pub.$$" -v only_count="${1:-}" '
    BEGIN {
      # Index file lines are `path:word`.
      while ((getline line < index_file) > 0) {
        i = index(line, ":"); path = substr(line, 1, i - 1); word = substr(line, i + 1)
        users[word] = users[word] SUBSEP path
      }
    }
    {
      file = $1; name = $2
      split(file, part, "/"); tests = part[1] "/" part[2] "/tests/"
      n = split(users[name], paths, SUBSEP); used = 0
      for (k = 2; k <= n; k++)
        if (paths[k] != file && index(paths[k], tests) != 1) { used = 1; break }
      if (!used) { count++; if (only_count != "--count") print file, name }
    }
    END { print "unused_pub=" count + 0 }'
