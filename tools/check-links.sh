#!/usr/bin/env bash
# Asserts that every intra-repo markdown link in the given files (or the
# default doc set) resolves to an existing file or directory, relative
# to the linking document. External (http/mailto) links and pure
# fragment links are skipped. Also asserts that every backticked `*.md`
# name in the Rust sources (crates/, src/, tests/, examples/) names a
# file in the repository. Exits non-zero listing every broken link.
set -u

docs=("$@")
if [ ${#docs[@]} -eq 0 ]; then
    docs=(README.md ARCHITECTURE.md docs/wire-format.md)
fi

status=0
for doc in "${docs[@]}"; do
    if [ ! -f "$doc" ]; then
        echo "missing document: $doc"
        status=1
        continue
    fi
    dir=$(dirname "$doc")
    # Inline markdown links: [text](target). Reference-style links are
    # not used in this repo.
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        # Strip a trailing #fragment.
        path="${target%%#*}"
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "broken link in $doc: ($target)"
            status=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

# Backticked markdown names in Rust sources. A name with a slash must
# resolve from the repository root or from the citing file's directory;
# a bare name must match some file's name anywhere in the repository.
root=$(cd "$(dirname "$0")/.." && pwd)
sources=()
for d in crates src tests examples; do
    [ -d "$root/$d" ] && sources+=("$root/$d")
done
md_names=$(cd "$root" && find . \( -name target -o -name .git \) -prune -o -name '*.md' -print | sed 's|.*/||' | sort -u)
cited=0
while IFS=: read -r file line name; do
    [ -z "$file" ] && continue
    cited=$((cited + 1))
    name="${name//\`/}"
    case "$name" in
        */*)
            [ -e "$root/$name" ] || [ -e "$(dirname "$file")/$name" ] && continue ;;
        *)
            grep -qxF -- "$name" <<<"$md_names" && continue ;;
    esac
    echo "dangling markdown name in ${file#"$root"/}:$line: $name"
    status=1
done < <(grep -rnoE --include='*.rs' '`[^` ]+\.md`' "${sources[@]}")

if [ $status -eq 0 ]; then
    echo "all intra-repo links resolve (${docs[*]}; $cited markdown names in Rust sources)"
fi
exit $status
