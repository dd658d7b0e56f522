#!/bin/sh
# `pub` means called: every `pub` item of minsig, trace-storage and
# trace-model (its `adm/` modules included) is named by a file outside its crate (src, examples, tests, e2e, another crate) or, for
# a type, by a `pub` signature of its own crate.  A floor, not a proof: a grep
# cannot tell `A::new` from `B::new`, so it only catches names nobody uses —
# the compiler settles the rest (narrow the item, build every target and e2e).
# Run from the repository root; prints the offenders and exits 1 if any.
kinds='fn|struct|enum|trait|type|const|static'
bad=0
for crate in crates/core crates/storage crates/trace-model; do
    outside=$(find src examples tests e2e crates -name '*.rs' ! -path "$crate/*" ! -path '*/target/*')
    sources=$(find "$crate/src" -name '*.rs' | sort)
    for file in $sources; do
        # kind and name of each pub item before the file's first #[cfg(test)]
        awk -v kinds="$kinds" '/#\[cfg\(test\)\]/ { exit }
            match($0, "^[ \t]*pub ((async|unsafe|const) )*(" kinds ") +[A-Za-z_0-9]+") {
                n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n - 1], w[n] }' "$file" |
        while read -r kind name; do
            # shellcheck disable=SC2086
            grep -qw -- "$name" $outside && continue
            case $kind in struct | enum | trait | type)
                # ...or a pub signature, pub field or impl header of its own
                # crate mentions the type (signatures wrap: join to `{` / `;`)
                awk -v name="$name" -v kinds="$kinds" 'FNR == 1 { test = 0 }
                    /#\[cfg\(test\)\]/ { test = 1 }
                    test { next }
                    /^[ \t]*pub [a-z_0-9]+: / { sig = $0; open = 0 }
                    open || $0 ~ "^[ \t]*(impl|pub (" kinds ")) " { sig = sig " " $0; open = ($0 !~ /[{;]/) }
                    !open && sig != "" {
                        if (sig ~ "[^A-Za-z_0-9]" name "[^A-Za-z_0-9]" &&
                            sig !~ "pub (" kinds ") +" name "[^A-Za-z_0-9]") found = 1
                        sig = "" }
                    END { exit !found }' $sources && continue ;;
            esac
            echo "$file: pub $kind $name has no caller outside $crate"
        done
    done
done | grep . && bad=1
exit $bad
