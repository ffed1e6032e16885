#!/usr/bin/env bash
# Prints the tracked source size: the line count of every .cpp/.hpp under src/.
# Usage: scripts/src_lines.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."
find src -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 cat | wc -l
