#!/bin/sh
# Godoc coverage audit for the packages whose exported surface is the
# toolkit's embedding API or is re-exported by the healers facade
# (inject, xmlrep, core): every exported top-level identifier (func,
# method, type, and exported names in var/const blocks) in the listed
# packages must carry a doc comment. Runs as part of `make docs`.
set -eu

cd "$(dirname "$0")/.."

packages="internal/wrappers internal/collect internal/inject internal/xmlrep internal/core"

status=0
for pkg in $packages; do
    for f in "$pkg"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        out=$(awk '
            # A doc comment is a // line (or the tail of a /* block)
            # immediately above the declaration.
            /^[ \t]*\/\// { commented = 1; next }
            /\*\/[ \t]*$/ { commented = 1; next }
            /^func (\([A-Za-z_]+ \*?[A-Za-z_]+\) )?[A-Z]/ ||
            /^type [A-Z]/ ||
            /^(var|const) [A-Z]/ {
                if (!commented) printf "%d: %s\n", NR, $0
                commented = 0; next
            }
            # Exported names declared inside var/const blocks.
            /^(var|const) \($/ { if (!commented) inblock = 1; commented = 0; next }
            inblock && /^\)/ { inblock = 0; next }
            inblock && /^\t[A-Z][A-Za-z0-9_]*( |,|=)/ {
                if (!commented) printf "%d: %s\n", NR, $0
                commented = 0; next
            }
            { commented = 0 }
        ' "$f")
        if [ -n "$out" ]; then
            printf '%s\n' "$out" | while IFS= read -r line; do
                echo "check-godoc: $f:$line  (missing doc comment)" >&2
            done
            status=1
        fi
    done
done

if [ "$status" -ne 0 ]; then
    echo "check-godoc: FAILED (exported identifiers lack doc comments)" >&2
else
    echo "check-godoc: ok ($packages)"
fi
exit $status
