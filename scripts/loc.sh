#!/usr/bin/env bash
# Counts the workspace's Rust lines: non-test and test.
#
#   scripts/loc.sh            # from any directory of the checkout
#
# Every physical line of every `.rs` file under crates/ src/ tests/
# examples/ counts once (as `wc -l` counts it: blank and comment lines
# included). A line is test code when its file sits under a `tests/`
# directory, or when it lies in a `#[cfg(test)] mod … { … }` block —
# the attribute line(s) through the brace that closes the block. Braces
# inside string and char literals and after `//` do not count. An
# out-of-line `#[cfg(test)] mod name;` is one test line; the file it
# names counts as non-test, since only the declaration says otherwise.
#
# Uses only find, awk and wc, so two trees are compared with the same
# rule: run it in each checkout. The last line cross-checks the total
# against `wc -l`.
set -euo pipefail

cd "$(dirname "$0")/.."

dirs=()
for d in crates src tests examples; do
    if [ -d "$d" ]; then
        dirs+=("$d")
    fi
done

find "${dirs[@]}" -name '*.rs' -type f | LC_ALL=C sort | awk '
# Net brace depth change of one line, ignoring literals and comments.
function braces(line,    opens, closes) {
    gsub(/\\\\/, "", line)
    gsub(/"([^"\\]|\\.)*"/, "", line)
    gsub(/'\''[{}]'\''/, "", line)
    sub(/\/\/.*/, "", line)
    opens = gsub(/\{/, "", line)
    closes = gsub(/\}/, "", line)
    return opens - closes
}

# Whether `s` starts a `mod` item.
function is_mod(s) {
    return s ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]/
}

# Classifies one line of a non-`tests/` file; state lives in globals:
# `pending` attribute lines await their item, `intest` marks an open
# test block `depth` braces deep.
function classify(line,    rest) {
    if (intest) {
        test++
        depth += braces(line)
        if (depth <= 0) intest = 0
        return
    }
    if (line ~ /^[ \t]*#\[cfg\(test\)\]/) {
        nontest += pending
        pending = 0
        rest = line
        sub(/^[ \t]*#\[cfg\(test\)\][ \t]*/, "", rest)
        if (rest == "") {
            pending = 1
        } else if (is_mod(rest)) {
            test++
            depth = braces(rest)
            intest = (depth > 0)
        } else {
            nontest++
        }
        return
    }
    if (pending) {
        # Further attributes between `#[cfg(test)]` and its item.
        if (line ~ /^[ \t]*#\[/) {
            pending++
            return
        }
        if (is_mod(line)) {
            test += pending + 1
            pending = 0
            depth = braces(line)
            intest = (depth > 0)
            return
        }
        nontest += pending
        pending = 0
    }
    nontest++
}

{
    file = $0
    files++
    whole = (file ~ /(^|\/)tests\//)
    pending = 0
    intest = 0
    depth = 0
    while ((getline line < file) > 0) {
        if (whole) test++
        else classify(line)
    }
    close(file)
    nontest += pending
}

END {
    printf "non-test %7d\n", nontest
    printf "test     %7d\n", test
    printf "total    %7d  (%d files)\n", nontest + test, files
}
'
find "${dirs[@]}" -name '*.rs' -type f -exec cat {} + | wc -l | awk '{ printf "wc -l    %7d\n", $1 }'
