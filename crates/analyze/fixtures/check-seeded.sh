#!/bin/sh
# Coverage proof for the determinism rules wsyn-analyze handed to
# clippy: lints the `seeded` fixture crate with the root workspace's
# [workspace.lints.*] levels and clippy.toml, and fails unless every
# line tagged `// seeded: <old-rule-id>` is reported by a lint that
# replaced that rule. Needs cargo, clippy and jq. Run from anywhere:
#
#   crates/analyze/fixtures/check-seeded.sh
set -eu

root=$(cd "$(dirname "$0")/../../.." && pwd)
fixture="$root/crates/analyze/fixtures/seeded"

# `name = "warn"` under [workspace.lints.clippy] becomes
# `-W clippy::name`; [workspace.lints.rust] rows carry no prefix.
flags=$(awk '
    /^\[/ { section = $0; next }
    /^[a-z_]+ *= *"(allow|warn|deny|forbid)"/ {
        if (section == "[workspace.lints.clippy]") prefix = "clippy::"
        else if (section == "[workspace.lints.rust]") prefix = ""
        else next
        level = $3; gsub(/"/, "", level)
        flag = (level == "allow") ? "-A" : (level == "warn") ? "-W" : (level == "deny") ? "-D" : "-F"
        print flag " " prefix $1
    }
' "$root/Cargo.toml")

# `line lint` for every primary span reported in the fixture. Deny-level
# findings fail the build, so the exit status carries no information.
reported=$(
    cd "$fixture" &&
        cargo clippy --offline --quiet --message-format=json \
            --target-dir "$root/target/seeded-fixture" -- $flags 2>/dev/null |
        jq -r 'select(.reason == "compiler-message") | .message
            | select(.code != null) | .code.code as $lint
            | .spans[] | select(.is_primary and .file_name == "src/lib.rs")
            | "\(.line_start) \($lint)"'
) || true

# The lints that replaced each old rule (DESIGN.md §8).
lints_for() {
    case $1 in
        hash-collections | wall-clock) echo "clippy::disallowed_types" ;;
        no-panic) echo "clippy::unwrap_used clippy::expect_used clippy::panic" ;;
        lossy-cast) echo "clippy::cast_possible_truncation clippy::cast_possible_wrap" ;;
        thread-policy) echo "clippy::disallowed_methods" ;;
        safety-comment) echo "clippy::undocumented_unsafe_blocks" ;;
        unsafe-caller) echo "unsafe_code" ;;
        *) echo "unknown-rule:$1" ;;
    esac
}

tags=$(grep -n '// seeded: [a-z-]*$' "$fixture/src/lib.rs" |
    sed 's/^\([0-9]*\):.*\/\/ seeded: \([a-z-]*\)$/\1 \2/')
[ -n "$tags" ] || { echo "no seeded lines in $fixture/src/lib.rs"; exit 1; }
missed=0
while read -r line rule; do
    hit=""
    for lint in $(lints_for "$rule"); do
        printf '%s\n' "$reported" | grep -qx "$line $lint" && { hit=$lint; break; }
    done
    if [ -n "$hit" ]; then
        echo "ok      src/lib.rs:$line [$rule] -> $hit"
    else
        echo "MISSED  src/lib.rs:$line [$rule]: none of $(lints_for "$rule") reported it"
        missed=$((missed + 1))
    fi
done <<TAGS
$tags
TAGS
echo "$(printf '%s\n' "$tags" | wc -l) seeded violations, $missed missed"
[ "$missed" -eq 0 ]
