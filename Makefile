# Developer entry points. `make tier1` mirrors the CI verify exactly.

.PHONY: tier1 build test test-all test-chaos test-shm test-sock test-tuner test-serve fmt clippy lint bench bench-steady bench-smoke bench-baseline bench-check bench-transport bench-service perfbench-quick

tier1: ## the repository's tier-1 verify
	cargo build --release && cargo test -q

build:
	cargo build --release

test:
	cargo test -q

test-all:
	cargo test --workspace -q

# the fault-injection suite (DESIGN.md §9): seeded chaos schedules
# byte-identical to fault-free runs, kill matrices over both fabrics and
# lifecycles, deadline aborts with stall forensics
test-chaos:
	cargo test --test chaos -q

# the shm fabric's process-world acceptance suite (DESIGN.md §8, §9):
# ranks as OS processes on one /dev/shm segment byte-identical to the
# thread transport (mixed traffic and the 8-rank AMG pipeline), a worker
# dying before it attaches respawned, worker death and fault-plan kills
# contained loudly, no leaked segments
test-shm:
	cargo test --test process_worlds -q -- shm

# the socket fabric's acceptance suite (DESIGN.md §10): multi-process
# worlds over UDS and TCP byte-identical to the thread transport, link
# severs healed by reconnect-with-resume, worker death and fault-plan
# kills contained loudly, no leaked UDS listener paths
test-sock:
	cargo test --test process_worlds -q -- sock

# the online autotuner's acceptance suite (DESIGN.md §11): Backend::Tuned
# converging to the measured-fastest protocol where a mis-parameterized
# model fools Auto, profile-cache warm starts skipping the probe phase,
# and probe/decide/steady-state byte identity on all three fabrics
test-tuner:
	cargo test --test tuner -q

# the solve service's acceptance suite (DESIGN.md §12): concurrent
# multi-tenant epochs byte-identical to serialized runs and to the
# reference replay on all three fabrics, a warm pool surviving
# successive rounds, a seeded kill failing exactly one tenant (with
# rank attribution) while the others stay byte-identical to solo runs,
# and deadline dumps naming every job they take down
test-serve:
	cargo test --test serve -q

fmt:
	cargo fmt --all

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# clippy, formatting, and the one-file rule for configuration: mpisim reads
# the process environment in env.rs only (DESIGN.md §9)
lint: clippy
	cargo fmt --all --check
	@if grep -rn 'std::env' crates/mpisim/src --include='*.rs' | grep -v '^crates/mpisim/src/env.rs:'; then \
		echo "error: mpisim touches std::env outside crates/mpisim/src/env.rs"; exit 1; fi

bench:
	cargo bench -p bench_suite --bench protocols

# just the allocation-sensitive steady-state group: ≥100 start_wait
# iterations per sample on one warm pooled world
bench-steady:
	cargo bench -p bench_suite --bench protocols -- steady_state

# the steady_state_8proc deployment pair: the same steady-state exchange
# with ranks as 8 real OS processes on the /dev/shm fabric vs one pooled
# thread world, then the process/thread ratio report (REPORT-only — see
# scripts/bench_compare --transport; no committed baseline because
# multi-process timings are machine-sensitive)
bench-transport:
	BENCH_JSON=/tmp/BENCH_transport.json cargo bench -p bench_suite --bench transport
	scripts/bench_compare /tmp/BENCH_transport.json

# the multi-tenant throughput pair: twenty-four jobs batched into one
# epoch vs the same jobs run epoch-per-job on the same warm pool, then
# the jobs/sec gate (scripts/bench_compare --service: concurrent must
# clear 1.2x sequential)
bench-service:
	BENCH_JSON=/tmp/BENCH_service.json cargo bench -p bench_suite --bench service
	scripts/bench_compare /tmp/BENCH_service.json

# compile and execute every bench binary once (criterion --test smoke
# mode) — including the pooled steady-state group, the
# batch_init_256ranks batch-vs-per-pattern pair, the overlap_32ranks
# wait_any-vs-wait_all lifecycle pair, and the steady_state_8proc
# thread-vs-process pair (which spawns 8 real worker processes); run on
# every PR by CI so benches cannot rot
bench-smoke:
	cargo bench -p bench_suite --benches -- --test

# the repo's benchmark (BENCHMARK.json's command; perfbench/README.md) at
# 1/20 of its run length: builds the separate perfbench package against
# the workspace crates and runs all six workloads once with every output
# check on — a smoke run, its numbers are marked not comparable. Must run
# with no MPISIM_* variable set.
perfbench-quick:
	cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --quick

# refresh the committed wall-clock baseline: the protocols bench plus the
# steady_state_8proc deployment group (each bench binary overwrites
# BENCH_JSON wholesale, so each runs into its own file and the results
# merge)
bench-baseline:
	BENCH_JSON=/tmp/BENCH_protocols.part.json cargo bench -p bench_suite --bench protocols
	BENCH_JSON=/tmp/BENCH_transport.part.json cargo bench -p bench_suite --bench transport
	scripts/bench_merge /tmp/BENCH_protocols.part.json /tmp/BENCH_transport.part.json > $(CURDIR)/BENCH_protocols.json

# full protocols + transport benches vs the committed baseline; fails on
# >10% median regressions (scripts/bench_compare) — except the deployment
# groups, whose multi-process medians are load-sensitive and report-only
bench-check:
	BENCH_JSON=/tmp/BENCH_protocols.new.part.json cargo bench -p bench_suite --bench protocols
	BENCH_JSON=/tmp/BENCH_transport.new.part.json cargo bench -p bench_suite --bench transport
	scripts/bench_merge /tmp/BENCH_protocols.new.part.json /tmp/BENCH_transport.new.part.json > /tmp/BENCH_protocols.new.json
	scripts/bench_compare $(CURDIR)/BENCH_protocols.json /tmp/BENCH_protocols.new.json
