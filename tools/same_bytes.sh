#!/usr/bin/env bash
# Check that this checkout writes every bundled CLI artifact (tools/artifacts.sh)
# byte for byte as revision <rev> does:
#
#   1. unpack `git archive <rev>` into <dir>/parent;
#   2. run that tree's tools/artifacts.sh into <dir>/art and move the result
#      to <dir>/art-parent;
#   3. run this checkout's tools/artifacts.sh into <dir>/art;
#   4. exit with the status of `diff -r <dir>/art-parent <dir>/art`, and
#      after an empty diff print how many files it compared.
#
# Both runs write to the same <dir>/art, so their "# config=" digests agree.
# <dir> must lie outside the checkout, and none of parent, art and
# art-parent may exist in it yet. Nothing is written inside the checkout.
#
# Usage: tools/same_bytes.sh <rev> <dir>
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <rev> <dir>" >&2
    exit 2
fi
rev=$1
root=$(realpath "$(dirname "$0")/..")
dir=$(realpath -m "$2")

source "$root/tools/parent_tree.sh"
unpack_parent "$rev" tools/artifacts.sh art art-parent
bash "$dir/parent/tools/artifacts.sh" "$dir/art"
mv "$dir/art" "$dir/art-parent"
bash "$root/tools/artifacts.sh" "$dir/art"
diff -r "$dir/art-parent" "$dir/art"
echo "$(find "$dir/art" -type f | wc -l) files identical"
