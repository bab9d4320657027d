#!/bin/sh
# Dead-export check: every top-level `val` in lib/*/*.mli must be named,
# as a word, in the code of some .ml under lib/, bin/, bench/, perfbench/
# or examples/ outside its own module -- or be a test hook listed in
# scripts/test_hooks.  A listed hook must still be named by the test file
# its line gives, and must not have gained a program user (it then leaves
# the list), so the list cannot rot.
#
#   sh scripts/check_dead_exports.sh STRIPPED_DIR
#
# STRIPPED_DIR holds comment-stripped copies (scripts/strip_comments.awk)
# of the program sources and of test/, at their repository paths; the
# Makefile's stripped-sources target builds it.  The scan is word-level,
# so a common name (`create`) can hide a dead value; that is accepted.
set -eu

STRIPPED=$1
HOOKS=$(pwd)/scripts/test_hooks

# One record per top-level val: "mli<TAB>Module<TAB>value".
vals=$(for mli in lib/*/*.mli; do
  mod=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" |
    while read -r v; do printf '%s\t%s\t%s\n' "$mli" "$mod" "$v"; done
done)

code=$(cd "$STRIPPED" && find lib bin bench perfbench examples test -name '*.ml' | sort)

printf '%s\n' "$vals" | (cd "$STRIPPED" && awk -v hooks_file="$HOOKS" '
  # Pass 1 (stdin): the vals.  Pass 2: the hook list.  Pass 3: the code.
  FILENAME == "-" { split($0, f, "\t"); n++; mli[n] = f[1]; mod[n] = f[2]; val[n] = f[3]; next }
  FILENAME == hooks_file {
    if ($0 ~ /^[ \t]*(#|$)/) next
    hook[$1] = $2; hook_line[$1] = FNR; next
  }
  {
    k = split($0, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= k; i++)
      if (w[i] != "" && !((w[i], FILENAME) in seen)) {
        seen[w[i], FILENAME] = 1
        users[w[i]] = users[w[i]] " " FILENAME
      }
  }
  END {
    bad = 0
    for (i = 1; i <= n; i++) {
      own = mli[i]; sub(/\.mli$/, ".ml", own)
      name = mod[i] "." val[i]
      declared[name] = 1
      program = 0; m = split(users[val[i]], fs, " ")
      for (j = 1; j <= m; j++)
        if (fs[j] != own && fs[j] !~ /^test\//) program = 1
      if (name in hook) {
        if (program) {
          printf "ERROR: %s:%d: %s has a program user now; remove it from the list\n",
            "scripts/test_hooks", hook_line[name], name
          bad = 1
        } else if (!((val[i], hook[name]) in seen)) {
          printf "ERROR: %s:%d: %s is not named by %s\n",
            "scripts/test_hooks", hook_line[name], name, hook[name]
          bad = 1
        }
      } else if (!program) {
        printf "ERROR: %s: val %s is named in no other program source'"'"'s code (a test hook goes in scripts/test_hooks)\n",
          mli[i], val[i]
        bad = 1
      }
    }
    for (name in hook)
      if (!(name in declared)) {
        printf "ERROR: %s:%d: %s is not a top-level val of lib/\n",
          "scripts/test_hooks", hook_line[name], name
        bad = 1
      }
    exit bad
  }' - "$HOOKS" $code) && echo "check-dead-exports: every library export has a program user or a listed test hook"
