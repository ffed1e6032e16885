#!/usr/bin/env bash
# Link audit: lists the functions defined in the src/ libraries that no
# binary links.
#
# Builds every executable in bench/ and examples/, plus perfbench's hxbench
# (configured from perfbench/ as run.py does), at -O0 with one section per
# function and --gc-sections at link time, so a function survives in a
# binary only if something it runs can call it. -O0 matters: at -O2 a
# reached function that was inlined everywhere leaves no symbol and would
# read as unlinked.
#
# The gated set is every strong (`T`) hxrc:: symbol that `nm -C
# --defined-only` finds in a libhxrc_*.a and in none of the binaries, minus
# the prefixes in scripts/reachability.allow (one prefix and its reason per
# line). The other text symbols (weak template instantiations and inline
# functions, local functions) are counted for information only; the gate
# covers ordinary functions.
#
# Prints the unreached list and its count; exits 1 if the list is not
# empty.
# Usage: scripts/reachability.sh [build-dir]   (default: build-reach)
#   JOBS=<n> sets the build parallelism (default: nproc).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
dir="${1:-build-reach}"
jobs="${JOBS:-$(nproc)}"
allow="$root/scripts/reachability.allow"

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS_DEBUG=-O0"
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

log="$dir/build.log"
mkdir -p "$dir"
: > "$log"
run() { "$@" >> "$log" 2>&1 || { echo "reachability: '$*' failed (log: $log)" >&2; exit 2; }; }

run cmake -S . -B "$dir/main" -G Ninja "${flags[@]}"
run cmake --build "$dir/main" -j "$jobs" --target bench/all examples/all
run cmake -S perfbench -B "$dir/perfbench" -G Ninja "${flags[@]}"
run cmake --build "$dir/perfbench" -j "$jobs"

binaries=$(find "$dir/main/bench" "$dir/main/examples" "$dir/perfbench" \
  -maxdepth 1 -type f -perm -u+x)
libs=$(find "$dir/main/src" -name 'libhxrc_*.a')

# "<type> <demangled name>" for every hxrc:: text symbol in the libraries.
nm -C --defined-only $libs 2>/dev/null \
  | sed -n 's/^[0-9a-f]* \([TtWw]\) \(hxrc::.*\)$/\1 \2/p' | sort -u > "$dir/lib.syms"
for b in $binaries; do
  nm -C --defined-only "$b" | sed -n 's/^[0-9a-f]* [TtWw] \(hxrc::.*\)$/\1/p'
done | sort -u > "$dir/bin.syms"

# Allowlist: "<prefix> <reason>"; a line without a reason is an error.
: > "$dir/allow.prefixes"
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  prefix=${line%%[[:space:]]*}
  reason=${line#"$prefix"}
  if [ -z "${reason//[[:space:]]/}" ]; then
    echo "reachability: allowlist line has no reason: $line" >&2
    exit 2
  fi
  printf '%s\n' "$prefix" >> "$dir/allow.prefixes"
done < "$allow"

unreached() {  # $1: symbol types, as a bracket expression
  sed -n "s/^$1 //p" "$dir/lib.syms" | sort -u | comm -23 - "$dir/bin.syms" \
    | awk -v allow="$dir/allow.prefixes" '
        BEGIN { while ((getline p < allow) > 0) prefixes[++n] = p }
        { for (i = 1; i <= n; i++) if (index($0, prefixes[i]) == 1) next; print }'
}

total=$(unreached '[TtWw]' | grep -c . || true)
strong=$(unreached T)
count=$(printf '%s' "$strong" | grep -c . || true)

[ -n "$strong" ] && printf '%s\n' "$strong"
echo "reachability: $count unreached non-template function(s) in src/ ($total text symbols unlinked in all, not gated)"
[ "$count" -eq 0 ]
