#!/bin/sh
# Dead-export check: every top-level `val` in lib/*/*.mli must be named,
# as a word, in the code of some .ml under lib/, bin/, bench/, perfbench/
# or examples/ outside its own module -- or be a test hook listed in
# scripts/test_hooks.  A listed hook must still be named by the test file
# its line gives, and must not have gained a program user (it then leaves
# the list), so the list cannot rot.
#
# The same rule one level down: every optional parameter `?label:` of a
# top-level val must appear as `~label` or `?label` in the code of such a
# program source outside its own module -- or be listed in
# scripts/test_hooks as `Module.value?label`, with a test file that sets
# it.  A knob no program sets is a constant.
#
#   sh scripts/check_dead_exports.sh STRIPPED_DIR
#
# STRIPPED_DIR holds comment-stripped copies (scripts/strip_comments.awk)
# of the program sources and of test/, at their repository paths; the
# Makefile's stripped-sources target builds it.  The scan is word-level,
# so a common name (`create`, `?space`) can hide a dead value or knob;
# that is accepted.
set -eu

STRIPPED=$1
HOOKS=$(pwd)/scripts/test_hooks

# One record per top-level val, "mli<TAB>Module<TAB>value<TAB>", and one
# per optional parameter of it, "mli<TAB>Module<TAB>value<TAB>label".
# Labels are read from the comment-stripped signature: the lines from
# `val` up to the next line that starts in column 0.
vals=$(for mli in lib/*/*.mli; do
  mod=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  awk -f scripts/strip_comments.awk "$mli" | awk -v mli="$mli" -v mod="$mod" '
    /^[^ \t]/ { v = "" }
    /^val [a-z_]/ {
      v = $2; sub(/[^A-Za-z0-9_'"'"'].*/, "", v)
      printf "%s\t%s\t%s\t\n", mli, mod, v
    }
    v != "" {
      s = $0
      while (match(s, /\?[a-z_][A-Za-z0-9_'"'"']*[ ]*:/)) {
        l = substr(s, RSTART + 1, RLENGTH - 2); sub(/[ ]+$/, "", l)
        printf "%s\t%s\t%s\t%s\n", mli, mod, v, l
        s = substr(s, RSTART + RLENGTH)
      }
    }'
done)

code=$(cd "$STRIPPED" && find lib bin bench perfbench examples test -name '*.ml' | sort)

printf '%s\n' "$vals" | (cd "$STRIPPED" && awk -v hooks_file="$HOOKS" '
  # Pass 1 (stdin): the vals and their labels.  Pass 2: the hook list.
  # Pass 3: the code.
  FILENAME == "-" {
    split($0, f, "\t")
    if (f[4] == "") { n++; mli[n] = f[1]; mod[n] = f[2]; val[n] = f[3] }
    else { nl++; lmli[nl] = f[1]; lname[nl] = f[2] "." f[3]; label[nl] = f[4] }
    next
  }
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
    s = $0
    while (match(s, /[~?][a-z_][A-Za-z0-9_]*/)) {
      l = substr(s, RSTART + 1, RLENGTH - 1)
      s = substr(s, RSTART + RLENGTH)
      if (!((l, FILENAME) in lseen)) {
        lseen[l, FILENAME] = 1
        lusers[l] = lusers[l] " " FILENAME
      }
    }
  }
  # Whether [files] (a user list) holds a program source other than [own].
  function program_user(files, own,    fs, m, j) {
    m = split(files, fs, " ")
    for (j = 1; j <= m; j++)
      if (fs[j] != own && fs[j] !~ /^test\//) return 1
    return 0
  }
  END {
    bad = 0
    for (i = 1; i <= n; i++) {
      own = mli[i]; sub(/\.mli$/, ".ml", own)
      name = mod[i] "." val[i]
      declared[name] = 1
      program = program_user(users[val[i]], own)
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
    for (i = 1; i <= nl; i++) {
      own = lmli[i]; sub(/\.mli$/, ".ml", own)
      name = lname[i] "?" label[i]
      declared[name] = 1
      program = program_user(lusers[label[i]], own)
      if (name in hook) {
        if (program) {
          printf "ERROR: %s:%d: %s has a program user now; remove it from the list\n",
            "scripts/test_hooks", hook_line[name], name
          bad = 1
        } else if (!((label[i], hook[name]) in lseen)) {
          printf "ERROR: %s:%d: %s is not set by %s\n",
            "scripts/test_hooks", hook_line[name], name, hook[name]
          bad = 1
        }
      } else if (!program) {
        printf "ERROR: %s: %s: ?%s is set by no other program source'"'"'s code (make it a constant, or list %s in scripts/test_hooks)\n",
          lmli[i], lname[i], label[i], name
        bad = 1
      }
    }
    for (name in hook)
      if (!(name in declared)) {
        if (index(name, "?"))
          printf "ERROR: %s:%d: %s is not an optional parameter of a top-level val of lib/\n",
            "scripts/test_hooks", hook_line[name], name
        else
          printf "ERROR: %s:%d: %s is not a top-level val of lib/\n",
            "scripts/test_hooks", hook_line[name], name
        bad = 1
      }
    exit bad
  }' - "$HOOKS" $code) && echo "check-dead-exports: every library export and optional parameter has a program user or a listed test hook"
