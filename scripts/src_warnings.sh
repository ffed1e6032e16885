#!/usr/bin/env bash
# Lists the compiler warnings in a build log that belong to the project's own
# code (src/, tests/, examples/, bench/), and exits 1 if there is any.
#
# A warning belongs to the file it names, unless GCC reports it inside a
# chain of inlined calls: then it belongs to the outermost caller in the
# chain, the user code that pulled a library header's body in (a libstdc++
# warning "inlined from" tests/x.cpp belongs to tests/x.cpp).
# Usage: scripts/src_warnings.sh <build-log>
set -euo pipefail
log="$1"
root="$(cd "$(dirname "$0")/.." && pwd)"

awk -v root="$root/" '
  function owner(path) {
    if (index(path, root) == 1) path = substr(path, length(root) + 1)
    return path
  }
  /^In (static )?(member )?function |^In (constructor|destructor) / { chain = "" }
  /^ *inlined from .* at [^ ]+:[0-9]+:[0-9]+[,:]$/ {
    chain = $NF
    sub(/:[0-9]+:[0-9]+[,:]$/, "", chain)
  }
  / warning: / {
    file = $1
    sub(/:.*$/, "", file)
    path = owner(chain != "" ? chain : file)
    if (path ~ /^(src|tests|examples|bench)\//) { print path ": " $0; found = 1 }
    chain = ""
  }
  END { exit found }
' "$log"
