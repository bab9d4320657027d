# Print an OCaml source file with its comments removed, so that a word
# search sees only code.  Comments nest, and, as in the OCaml lexer,
# string and character literals inside a comment are skipped whole (a
# "*)" in a string does not close the comment).  String literals in
# code, quoted strings {id|...|id} included, are printed unchanged.
#
#   awk -f scripts/strip_comments.awk FILE.ml
#
# A removed comment leaves one space, so the tokens on either side stay
# apart; line breaks are kept.

# Length of the character literal starting at [i], or 0 when the quote
# there is not one (a type variable such as 'a).
function char_literal(line, i,    c, len) {
  if (substr(line, i + 1, 1) == "\\") {
    c = substr(line, i + 2, 1)
    len = (c ~ /[0-9xo]/) ? 6 : 4
  } else
    len = 3
  return (substr(line, i + len - 1, 1) == "'") ? len : 0
}

function emit(s) { if (depth == 0) out = out s }

BEGIN { depth = 0; in_string = 0; closer = "" }

{
  line = $0
  out = ""
  n = length(line)
  i = 1
  while (i <= n) {
    c = substr(line, i, 1)
    if (closer != "") {
      # Inside a quoted string: only its own closing delimiter ends it.
      if (substr(line, i, length(closer)) == closer) {
        emit(closer)
        i += length(closer)
        closer = ""
      } else {
        emit(c)
        i++
      }
    } else if (in_string) {
      if (c == "\\") {
        emit(substr(line, i, 2))
        i += 2
      } else {
        emit(c)
        if (c == "\"") in_string = 0
        i++
      }
    } else if (substr(line, i, 2) == "(*") {
      depth++
      i += 2
    } else if (depth > 0 && substr(line, i, 2) == "*)") {
      depth--
      i += 2
      if (depth == 0) out = out " "
    } else if (c == "\"") {
      emit(c)
      in_string = 1
      i++
    } else if (c == "{" && match(substr(line, i), /^\{[a-z_]*\|/)) {
      emit(substr(line, i, RLENGTH))
      closer = "|" substr(line, i + 1, RLENGTH - 2) "}"
      i += RLENGTH
    } else if (c == "'" && (len = char_literal(line, i)) > 0) {
      emit(substr(line, i, len))
      i += len
    } else {
      emit(c)
      i++
    }
  }
  print out
}
