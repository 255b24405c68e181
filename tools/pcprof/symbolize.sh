#!/bin/sh
# Symbolize a pcprof sample file (see pcprof.c) over `nm -n` of each
# object it names, and print the TOP symbols by sample count:
#
#   sh tools/pcprof/symbolize.sh pcprof.<pid>.txt [TOP]
#
# A sample is charged to the nearest defined text symbol at or below its
# offset.  Symbols of shared libraries carry the library's file name.
set -eu
file=$1
top=${2:-15}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# one sorted table of decimal text-symbol addresses per object
i=0
for obj in $(awk '!/^#/ && $2 != "?" { print $2 }' "$file" | sort -u); do
  i=$((i + 1))
  { nm -n --radix=d --defined-only "$obj" 2>/dev/null || true
    nm -D -n --radix=d --defined-only "$obj" 2>/dev/null || true; } |
    awk '$2 ~ /^[tTwWiI]$/ { print $1, $3 }' | sort -n -k1,1 -u > "$tmp/sym.$i"
  echo "$obj $tmp/sym.$i" >> "$tmp/index"
done
touch "$tmp/index"
awk -v index_file="$tmp/index" '
  function load(obj,    line, f, n) {
    n = 0
    while ((getline line < table[obj]) > 0) {
      split(line, f, " ")
      n++
      addr[obj, n] = f[1] + 0
      name[obj, n] = f[2]
    }
    count[obj] = n
    loaded[obj] = 1
  }
  function lookup(obj, off,    lo, hi, mid, base) {
    if (!(obj in table)) return "??"
    if (!(obj in loaded)) load(obj)
    lo = 1; hi = count[obj]
    if (hi < 1 || addr[obj, 1] > off) return "??"
    while (lo < hi) {
      mid = int((lo + hi + 1) / 2)
      if (addr[obj, mid] <= off) lo = mid; else hi = mid - 1
    }
    return name[obj, lo]
  }
  BEGIN {
    while ((getline line < index_file) > 0) { split(line, f, " "); table[f[1]] = f[2] }
    main = ""
  }
  /^#/ { next }
  {
    sym = lookup($2, $3 + 0)
    if ($2 != "?" && main == "") main = $2
    if ($2 != main) { n = split($2, parts, "/"); sym = sym " [" parts[n] "]" }
    hits[sym] += $1
    total += $1
  }
  END {
    for (s in hits) printf "%d %.1f%% %s\n", hits[s], 100 * hits[s] / total, s
  }
' "$file" | sort -rn -k1,1 | head -n "$top"
