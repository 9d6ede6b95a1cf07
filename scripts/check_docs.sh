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
#      living docs must exist, and none may name a `BENCH_*.json` or
#      the deleted engine switch (`APRIL_DECODE`, `decode: false`), so
#      a stale reference fails here (CHANGES.md and ROADMAP.md are
#      history and exempt).
#   4. Format versions stated in the docs must equal the code's:
#      PROTOCOL.md's "Current protocol version: **N**" against
#      `PROTO_VERSION` in `crates/serve/src/proto.rs`, and DESIGN.md's
#      "Machine snapshot format (version N)" heading against `VERSION`
#      in `crates/machine/src/snapshot.rs`.
#   5. `RUSTDOCFLAGS="-D warnings" cargo doc` must succeed, so broken
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
    grep -Eo 'APRIL_DECODE|decode: false' "$doc" | sed "s|^|DELETED ENGINE SWITCH $doc -> |"
done >"$hits" || true
verdict "docs cite paths that do not exist" "every cited path exists"

echo "== format versions stated in docs =="
# The `N` of a `pub const NAME: u8 = N;` line in a source file.
const_u8() {
    sed -n "s/^pub const $1: u8 = \([0-9]*\);.*/\1/p" "$2"
}
# Fails unless the doc states the code's version exactly once.
same_version() { # doc, what, stated, code
    [ -n "$4" ] || echo "NO VERSION CONSTANT for $2"
    [ "$3" = "$4" ] || echo "STALE VERSION $1: $2 is '$3', code says '$4'"
}
{
    same_version PROTOCOL.md "the current protocol version" \
        "$(sed -n 's/^Current protocol version: \*\*\([0-9]*\)\*\*\.$/\1/p' PROTOCOL.md)" \
        "$(const_u8 PROTO_VERSION crates/serve/src/proto.rs)"
    same_version DESIGN.md "the machine snapshot format heading" \
        "$(sed -n 's/^#\{1,6\} Machine snapshot format (version \([0-9]*\))$/\1/p' DESIGN.md)" \
        "$(const_u8 VERSION crates/machine/src/snapshot.rs)"
} >"$hits"
verdict "docs state a format version the code does not use" "stated format versions match the code"

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace ||
    err "cargo doc failed"

[ "$fail" = 0 ] || exit 1
echo "check_docs: clean."
