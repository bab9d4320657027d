# Tier-1 verification: everything CI gates on.
#   make check         build + unit/property tests + end-to-end smoke runs
#   make check-tests   every test/test_*.ml must be wired into test/dune
#   make check-dead-exports  reads the typed trees of `dune build @check`
#                      (scripts/check_dead_exports.ml): every lib/*/*.ml
#                      module must be referenced by another unit under
#                      lib/, bin/, bench/, perfbench/ or examples/ (tests
#                      alone do not keep a module alive); every top-level
#                      val of lib/*/*.mli by such a unit outside its own
#                      module; and every optional parameter of one must be
#                      passed by such a unit's application -- unless
#                      scripts/test_hooks lists it (Module.value or
#                      Module.value?label) with the test that needs it
#   make bench         runtime scaling benchmark (writes BENCH_runtime.json)
#   make bench-kernel  staged-kernel benchmark (writes BENCH_kernel.json)
#   make bench-kernel-opt  same bench under the release profile (-O3 -unsafe);
#                      never rewrites the baseline, gates winner checksums
#                      against the committed BENCH_kernel.json via --smoke
#   make bench-smoke   staged-kernel benchmark, reduced space, no JSON
#   make bench-obs     observability overhead benchmark (writes BENCH_obs.json)
#   make bench-explain search-journal overhead + bit-identity gate; embeds the
#                      convergence journal (writes BENCH_explain.json)
#   make bench-persist checkpoint/resume bit-identity benchmark (BENCH_persist.json)
#   make bench-moo     NSGA-II + surrogate vs the exhaustive oracle: regret,
#                      budget and hypervolume gates (writes BENCH_moo.json)
#   make bench-serve   daemon load-generator benchmark (writes BENCH_serve.json)
#   make smoke-serve-metrics  end-to-end Prometheus scrape of a live daemon
#   make smoke-cache-dir  three one-shots sharing a --cache-dir: the second
#                      answers from disk, the third survives a torn tail;
#                      a fourth, run outside the work tree, stamps the
#                      checkout's commit into its log header
#   make regen-golden  deliberately rewrite test/golden/* (review the diff!)

.PHONY: all check check-tests check-dead-exports test bench bench-kernel \
        bench-kernel-opt bench-smoke bench-obs bench-explain bench-moo \
        bench-persist bench-serve smoke-serve-metrics smoke-cache-dir \
        regen-golden clean

all:
	dune build

check: check-tests check-dead-exports
	dune build
	dune runtest
	@for args in "-c 1000" "-c 512KB" "-m nsga2 --budget 0" "--jobs 0" "--jobs 65"; do \
	  flag=$$(echo "$$args" | awk '{ print $$(NF - 1) }'); \
	  status=0; err=$$(dune exec bin/sram_opt.exe -- optimize $$args 2>&1 >/dev/null) || status=$$?; \
	  { [ $$status -eq 124 ] && echo "$$err" | grep -q -- "option '$$flag'"; } || { \
	    echo "ERROR: optimize $$args exited $$status, expected a usage error (124) naming $$flag"; exit 1; }; \
	done
	dune exec bench/main.exe -- headline --smoke
	dune exec bench/main.exe -- kernel --smoke
	dune exec bench/main.exe -- obs --smoke
	dune exec bench/main.exe -- explain --smoke
	dune exec bench/main.exe -- moo --smoke
	dune exec bench/main.exe -- persist --smoke
	dune exec bench/main.exe -- serve --smoke
	$(MAKE) smoke-serve-metrics
	$(MAKE) smoke-cache-dir

# A test file that exists but is missing from the dune test stanza is
# silently never run; fail loudly instead.
check-tests:
	@missing=0; \
	for f in test/test_*.ml; do \
	  name=$$(basename $$f .ml); \
	  grep -qw "$$name" test/dune || { \
	    echo "ERROR: $$f is not listed in test/dune"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "check-tests: all test modules wired" || exit 1

# The dead-code rules, read from the names the compiler resolved (not
# from words in the sources): a library module, export or optional
# parameter that only tests reach is dead weight unless scripts/test_hooks
# names it as a test hook.
check-dead-exports:
	dune build @check
	dune exec scripts/check_dead_exports.exe -- _build/default scripts/test_hooks

test:
	dune runtest

bench:
	dune exec bench/main.exe -- runtime

bench-kernel:
	dune exec bench/main.exe -- kernel

# Release-profile kernel run.  The --smoke gate checks the optimized
# binary still picks bit-identical winners (checksum vs the committed
# baseline) before the full sweep runs; --no-json keeps the dev-profile
# baseline authoritative.
bench-kernel-opt:
	dune build --profile release bench/main.exe
	dune exec --profile release bench/main.exe -- kernel --smoke
	dune exec --profile release bench/main.exe -- kernel --no-json

bench-smoke:
	dune exec bench/main.exe -- kernel --smoke

bench-obs:
	dune exec bench/main.exe -- obs

bench-explain:
	dune exec bench/main.exe -- explain

bench-moo:
	dune exec bench/main.exe -- moo

bench-persist:
	dune exec bench/main.exe -- persist

bench-serve:
	dune exec bench/main.exe -- serve

# Start a real daemon, scrape GET /metrics with stock curl, assert the
# required series exist and the exposition format parses.
smoke-serve-metrics:
	dune build bin/sram_opt.exe
	sh scripts/serve_metrics_smoke.sh

smoke-cache-dir:
	dune build bin/sram_opt.exe
	sh scripts/cache_dir_smoke.sh

regen-golden:
	dune exec test/regen_golden.exe -- test/golden

clean:
	dune clean
