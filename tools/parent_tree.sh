# Unpack a parent revision beside this checkout; sourced by
# tools/same_bytes.sh and tools/peak_rss.sh once they have set $root (the
# checkout) and $dir (the real path of their <dir> argument):
#
#   unpack_parent <rev> <file> [name]...
#
# exits with status 2, naming the cause, when <dir> lies inside the checkout,
# when <dir>/parent or any <dir>/<name> exists already, or when revision
# <rev> has no <file>; otherwise it exports PYTHONDONTWRITEBYTECODE=1 and
# unpacks `git archive <rev>` into <dir>/parent.
unpack_parent() {
    local rev=$1 file=$2 name
    shift 2
    case "$dir/" in
        "$root"/*) echo "$0: <dir> $dir lies inside the checkout $root" >&2; exit 2 ;;
    esac
    for name in parent "$@"; do
        if [ -e "$dir/$name" ]; then
            echo "$0: $dir/$name exists already" >&2
            exit 2
        fi
    done
    if ! git -C "$root" cat-file -e "$rev:$file" 2>/dev/null; then
        echo "$0: revision $rev has no $file" >&2
        exit 2
    fi
    export PYTHONDONTWRITEBYTECODE=1  # no __pycache__ in either tree
    mkdir -p "$dir/parent"
    git -C "$root" archive "$rev" | tar -x -C "$dir/parent"
}
