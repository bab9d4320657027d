/* Process accounting that the OCaml Unix library does not expose. */

#include <sys/resource.h>
#include <unistd.h>
#include <caml/mlvalues.h>

/* Peak resident set in KiB of the largest child reaped so far
   (Linux reports ru_maxrss in KiB); -1 if getrusage fails. */
value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}

/* Clock ticks per second: the unit of utime and stime in
   /proc/<pid>/stat. */
value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
