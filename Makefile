# Tier-1 verification: everything CI gates on.
#   make check         build + unit/property tests + end-to-end smoke runs
#   make check-tests   every test/test_*.ml must be wired into test/dune
#   make check-dead-modules  every lib/*/*.ml module must be named in the
#                      code (not the comments) of some other .ml under lib/,
#                      bin/, bench/, perfbench/ or examples/ (tests alone do
#                      not keep a module alive)
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
#   make regen-golden  deliberately rewrite test/golden/* (review the diff!)

.PHONY: all check check-tests check-dead-modules test bench bench-kernel \
        bench-kernel-opt bench-smoke bench-obs bench-explain bench-moo \
        bench-persist bench-serve smoke-serve-metrics regen-golden clean

all:
	dune build

check: check-tests check-dead-modules
	dune build
	dune runtest
	@status=0; dune exec bin/sram_opt.exe -- optimize -c 1000 >/dev/null 2>&1 || status=$$?; \
	  [ $$status -eq 124 ] || { echo "ERROR: optimize -c 1000 exited $$status, expected a usage error (124)"; exit 1; }
	dune exec bench/main.exe -- headline --smoke
	dune exec bench/main.exe -- kernel --smoke
	dune exec bench/main.exe -- obs --smoke
	dune exec bench/main.exe -- explain --smoke
	dune exec bench/main.exe -- moo --smoke
	dune exec bench/main.exe -- persist --smoke
	dune exec bench/main.exe -- serve --smoke
	$(MAKE) smoke-serve-metrics

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

# A library module that only its own tests reach is dead weight: flag
# any lib/*/*.ml whose capitalized name appears as a word in the code of
# no other program source.  The sources are searched with their comments
# stripped (scripts/strip_comments.awk), so a comment naming a module
# does not keep it alive.
SOURCE_DIRS = lib bin bench perfbench examples

check-dead-modules:
	@code=$$(mktemp -d); trap 'rm -rf "$$code"' EXIT; \
	for f in $$(find $(SOURCE_DIRS) -name '*.ml'); do \
	  mkdir -p "$$code/$$(dirname $$f)"; \
	  awk -f scripts/strip_comments.awk "$$f" > "$$code/$$f" || exit 1; \
	done; \
	dead=0; \
	for f in lib/*/*.ml; do \
	  mod=$$(basename $$f .ml | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
	  (cd "$$code" && grep -rlw --include='*.ml' "$$mod" $(SOURCE_DIRS)) \
	    | grep -qvx "$$f" || { \
	    echo "ERROR: $$f: module $$mod is named in no other .ml file's code"; dead=1; }; \
	done; \
	[ $$dead -eq 0 ] && echo "check-dead-modules: every library module has a user" || exit 1

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

regen-golden:
	dune exec test/regen_golden.exe -- test/golden

clean:
	dune clean
