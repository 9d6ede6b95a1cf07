#!/usr/bin/env sh
# Documentation health: every local link and anchor in the repo's
# markdown must resolve, and rustdoc must build clean.
#
#   1. Local markdown links [text](path) must point at files that
#      exist (relative to the file containing the link).
#   2. In-repo section anchors [text](FILE.md#anchor) must match a
#      heading in the target file (GitHub-style slugs).
#   3. Repo paths cited in backticks (`crates/…`, `scripts/…`,
#      `examples/…`, `tests/…`, `benchmark/…`, less a `:line`) in the
#      living docs must exist, and none may name a `BENCH_*.json`, so
#      a stale reference fails here (CHANGES.md and ROADMAP.md are
#      history and exempt).
#   4. `RUSTDOCFLAGS="-D warnings" cargo doc` must succeed, so broken
#      intra-doc links and missing docs fail here too.
#
# External http(s) links are intentionally not fetched — CI is offline.
set -eu

cd "$(dirname "$0")/.."

fail=0
err() {
    echo "check_docs: $*" >&2
    fail=1
}

# GitHub-style slug: lowercase, drop everything but alphanumerics,
# spaces and hyphens, then spaces -> hyphens.
slug() {
    printf '%s\n' "$1" | tr '[:upper:]' '[:lower:]' |
        sed -e 's/[^a-z0-9 -]//g' -e 's/ /-/g'
}

# Reports what a check wrote to $hits: fails with $1, or prints $2.
hits="${TMPDIR:-/tmp}/check_docs.$$"
verdict() {
    if [ -s "$hits" ]; then
        cat "$hits" >&2
        err "$1"
    else
        echo "$2"
    fi
    rm -f "$hits"
}

docs="README.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md CHANGES.md PROTOCOL.md"

echo "== markdown links =="
for doc in $docs; do
    [ -f "$doc" ] || continue
    dir="$(dirname "$doc")"
    # Pull every [text](target) out of the file, one target per line.
    grep -o '\[[^]]*\]([^)]*)' "$doc" 2>/dev/null |
        sed -e 's/^.*](//' -e 's/)$//' |
        while read -r target; do
            case "$target" in
            http://* | https://* | mailto:*) continue ;;
            esac
            path="${target%%#*}"
            anchor=""
            case "$target" in
            *#*) anchor="${target#*#}" ;;
            esac
            if [ -n "$path" ]; then
                [ -e "$dir/$path" ] || echo "MISSING $doc -> $target"
                file="$dir/$path"
            else
                file="$doc"
            fi
            if [ -n "$anchor" ] && [ -f "$file" ]; then
                found=0
                while IFS= read -r h; do
                    if [ "$(slug "$h")" = "$anchor" ]; then
                        found=1
                        break
                    fi
                done <<EOF
$(sed -n 's/^#\{1,6\} //p' "$file")
EOF
                [ "$found" = 1 ] || echo "BAD ANCHOR $doc -> $target"
            fi
        done
done >"$hits" || true
verdict "broken markdown links" "all local links and anchors resolve"

echo "== repo paths cited in docs =="
for doc in README.md DESIGN.md EXPERIMENTS.md PROTOCOL.md .claude/skills/verify/SKILL.md; do
    [ -f "$doc" ] || continue
    grep -o '`[^`]*`' "$doc" | tr -d '`' |
        while read -r tok _; do
            case "$tok" in
            *[*\<{]*) continue ;; # a glob or a placeholder, not one path
            crates/* | scripts/* | examples/* | tests/* | benchmark/*) ;;
            *) continue ;;
            esac
            [ -e "${tok%%:*}" ] || echo "DEAD PATH $doc -> $tok"
        done
    grep -Eo 'BENCH_[a-z]+\.json' "$doc" | sed "s|^|DELETED BASELINE $doc -> |"
done >"$hits" || true
verdict "docs cite paths that do not exist" "every cited path exists"

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace ||
    err "cargo doc failed"

[ "$fail" = 0 ] || exit 1
echo "check_docs: clean."
