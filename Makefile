# Developer entry points. `make tier1` mirrors the CI verify exactly;
# `perfbench-quick` is the only target that runs a benchmark.

.PHONY: tier1 build test test-all test-chaos test-shm test-sock test-tuner test-serve test-wire fmt clippy lint figures-smoke perfbench-quick

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
# thread transport (mixed traffic and the 8-rank AMG pipeline), worker
# death and fault-plan kills contained loudly, a worker dying before it
# joins aborting the bootstrap, no leaked segments
test-shm:
	cargo test --test process_worlds -q -- shm

# the socket fabric's acceptance suite (DESIGN.md §10): multi-process
# worlds over UDS and TCP byte-identical to the thread transport (mixed
# traffic and the 8-rank AMG pipeline), link severs healed by
# reconnect-with-resume, worker death and fault-plan kills contained
# loudly, a worker dying before it joins aborting the bootstrap, no
# leaked UDS listener paths — then mpisim's own transport::sock unit
# tests: the loopback link's burst counts (frames per write and per
# read, link-thread wakes), sever/resume exactly once and in order on the
# loopback link and on a remote link between two transports in one
# process, malformed frames, the deliver-hook cache, and payloads larger
# than the socket buffer on the self-link's one thread
test-sock:
	cargo test --test process_worlds -q -- sock
	cargo test -p mpisim --lib -q transport::sock

# the online autotuner's acceptance suite (DESIGN.md §11): Backend::Tuned
# converging to the measured-fastest protocol where a mis-parameterized
# model fools Auto, profile-cache warm starts skipping the probe phase,
# and probe/decide/steady-state byte identity on all three fabrics — then
# the tuner crate's own tests: the profile-cache parser and merge, the
# probe schedule, the policy builder and the MPISIM_PROFILE_DIR grammar
test-tuner:
	cargo test --test tuner -q
	cargo test -p tuner -q

# the solve service's acceptance suite (DESIGN.md §12): concurrent
# multi-tenant epochs byte-identical to serialized runs and to the
# reference replay on all three fabrics, a warm pool surviving
# successive rounds, a seeded kill failing exactly one tenant (with
# rank attribution) while the others stay byte-identical to solo runs,
# deadline dumps naming every job they take down, a tenant panic closing
# its lane and its lane-mates rerun to their solo bytes, tenants of one
# shape sharing one resolution, tenants of one hierarchy sharing its
# split under two backends and two ω, a warm call asking the job objects it
# ran for no patterns, the four most recently used shapes kept
# warm and the fifth evicting the oldest (with a kill scan from the first
# op, no killed epoch ending on the wait deadline, each followed by a
# clean one), and a 500-job soak in two runs — two fixed shapes, then
# five cycling through the four slots — with the registry gauge still
# after every call (once the cycle has come round) — then, alone and in
# release (`--ignored`), the 5000-job soak per fabric: flat gauge, idle
# once the service is released but for shm segment bytes, flat VmRSS —
# then the warm call's allocation budget: a repeated call of Jacobi
# tenants allocates, per job and rank, only what the job API forces — and
# last the job construction's: a job on a hierarchy whose split over its
# rank count is live allocates its right-hand side and nothing else
test-serve:
	cargo test --test serve -q
	cargo test --release --test serve -q -- --ignored
	cargo test -p service --test warm_allocs -q
	cargo test -p amg --test relaxation_allocs -q

# the wire-layout suite (DESIGN.md §3, §4, §5): first the union
# collective by name — a batch byte-identical to independent one-entry
# batches under start_all, one-by-one starts in a rank-dependent order and
# their alternation, on every fabric and fault plan; init_all registering
# a union's channels and an entry's own only at its first start on its
# own; a union's members retiring together in entry order; the shifted
# union keeping each pattern one run per rank — then every backend and
# lifecycle byte-identical to the direct exchange, then core's property
# tests — the routing against its value-by-value oracle, split and
# unsplit, and the ride rule (one intra-region message per pair and phase:
# an ℓ message rides its pair's first s or r message, each ℓ value on the
# wire once)
test-wire:
	cargo test --test protocol_equivalence -q -- batch_matches_independent_inits a_union_registers_fewer_channels_than_its_entries
	cargo test -p mpi-advance --lib -q -- a_union_retires_its_members_together_in_entry_order a_shifted_union_keeps_each_pattern_one_run_per_rank
	cargo test --test protocol_equivalence -q
	cargo test -p mpi-advance -q proptests::

fmt:
	cargo fmt --all

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# clippy, formatting, the rustdoc link gate, and eleven grep rules. Docs:
# every intra-doc link resolves (`cargo doc` denies
# rustdoc::broken_intra_doc_links), so deleting or renaming an item a doc
# comment still links to fails here, and no documented item links to a
# private one (rustdoc::private_intra_doc_links), whose page `--no-deps`
# docs do not have: such an item is named as a plain code span.
# Configuration: mpisim reads the process environment in env.rs only
# (DESIGN.md §9). Wakes: a rank is woken through its park point only
# (DESIGN.md §7), so no file of mpisim
# issues a condvar notify or a futex wake but the one park-point file of
# every fabric (transport/park.rs) and what wakes something other than a
# rank — the sock control inbox (sock/control.rs) and the pool's epoch
# hand-off (runtime.rs) — with no exemption inside any other file. The
# shm control plane wakes park points too, and a sock link thread and
# the accept thread sleep only in their `poll`, woken by a byte on their
# wake pair, so neither issues a notify.
# Sleeps: a rank sleeps one way, `park_until` on a `ParkWords` (DESIGN.md
# §7), so no file of mpisim calls `futex::wait` but transport/park.rs;
# and a fabric hands out a park point instead of blocking a rank, so in
# the non-test code of mpisim (each file up to its `#[cfg(test)]`) only
# state.rs (`WorldState::park`, every rank wait: receives, a full shm
# ring, the epoch-end wait), transport/park.rs and transport/shm/segment.rs
# (the shm control plane's waits, on the same park points) call
# `park_until(`.
# Clocks: traffic advances only while a rank is inside the library
# (DESIGN.md §7), so no helper thread polls on a wall clock: the non-test
# code of mpisim (each file up to its `#[cfg(test)]`, comment lines
# aside) calls `thread::sleep(`, `.wait_for(` or `wait_timeout(` only at
# the named sites of CLOCK_SITES — the fault plan's delay injection
# (fault.rs), dial backoff (sock/link.rs), segment-create and attach
# backoff (shm/segment.rs), the deadline-bounded control waits (the sock
# control inbox's stall period, a loopback drain's flush token and the
# exit-time flush: sock/control.rs, sock/mod.rs) and the process-world
# watchdog, which polls child exit for want of an event source
# (remote.rs).
# Blocking: a request blocks in `wait` and a rank in the scheduler's park,
# never inside `start`, `test` or a task's poll (DESIGN.md §7, §12), so
# the non-test code of core and service (each file up to its
# `#[cfg(test)]`) makes no blocking mpisim call, with no exception (the
# tuned decision is a persistent reduction its `test` completes). Nor
# does registration need a rule: the service frees only in a pool run of
# its own between epochs, so every member has registered before any
# member frees — `RankCtx::comm_free`'s contract (DESIGN.md §3, §12).
# Locks: the executor owns every payload it stages by value (DESIGN.md
# §4), so the non-test code of core's exec.rs (up to its `#[cfg(test)]`)
# names no `RwLock` or `Mutex` and calls no `.write()` or `.read()`.
# Channels: a persistent channel's body is a push, a take and a readiness
# count, and its receiver parks only in `wait_any` (DESIGN.md §7), so
# nothing under crates/mpisim/src defines a `wait_nonempty`; and a cost
# model runs on the thread fabric only (DESIGN.md §8), so the non-test
# code of transport/shm and transport/sock (each file up to its
# `#[cfg(test)]`) names no modeled `arrival`. Supervision: how a worker
# is launched and what its death before it joins means are decided in
# transport/remote.rs alone, for both fabrics (DESIGN.md §8, §9), so no
# other non-test code of mpisim (each file up to its `#[cfg(test)]`,
# comment lines aside) names `Workers`, calls into a `workers.` handle or
# says `respawn`. Unsafe: the SpMV kernel gets its speed from its layout
# (4-row chunks with one accumulator per row, DESIGN.md §12), not from
# unchecked indexing, so the non-test code of sparse and amg (each file up
# to its `#[cfg(test)]`, comment lines aside) says no `unsafe`
BYTE_FABRICS := crates/mpisim/src/transport/shm crates/mpisim/src/transport/sock
WAKE_FILES := runtime|transport/park|transport/sock/control
SLEEP_FILES := transport/park
PARK_FILES := state|transport/park|transport/shm/segment
CLOCK_SITES := \
	-e '^crates/mpisim/src/transport/fault\.rs:[0-9]+: *std::thread::sleep\(Duration::from_micros\(us\)\);$$' \
	-e '^crates/mpisim/src/transport/sock/link\.rs:[0-9]+: *std::thread::sleep\(cfg\.delay\(attempt\)\);$$' \
	-e '^crates/mpisim/src/transport/shm/segment\.rs:[0-9]+: *std::thread::sleep\(std::time::Duration::from_millis\(1 \+ attempt\)\);$$' \
	-e '^crates/mpisim/src/transport/shm/segment\.rs:[0-9]+: *std::thread::sleep\(std::time::Duration::from_millis\(10 \* attempt as u64\)\);$$' \
	-e '^crates/mpisim/src/transport/sock/control\.rs:[0-9]+: *if self\.ctrl\.cv\.wait_for\(&mut st, period\)\.timed_out\(\) \{$$' \
	-e '^crates/mpisim/src/transport/sock/control\.rs:[0-9]+: *std::thread::sleep\(Duration::from_millis\(1\)\);$$' \
	-e '^crates/mpisim/src/transport/sock/mod\.rs:[0-9]+: *if self\.ctrl\.cv\.wait_for\(&mut st, left\)\.timed_out\(\) \{$$' \
	-e '^crates/mpisim/src/transport/remote\.rs:[0-9]+: *std::thread::sleep\(Duration::from_millis\(10\)\);$$'
BLOCKING_CALLS := wait_take|wait_with|\.recv\(|\.barrier\(|allreduce
EXEC_LOCKS := RwLock|Mutex|\.write\(\)|\.read\(\)
lint: clippy
	cargo fmt --all --check
	RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
		cargo doc --workspace --no-deps
	@if grep -rn 'std::env' crates/mpisim/src --include='*.rs' | grep -v '^crates/mpisim/src/env.rs:'; then \
		echo "error: mpisim touches std::env outside crates/mpisim/src/env.rs"; exit 1; fi
	@if grep -rnE 'notify_all|notify_one|futex::wake_all' crates/mpisim/src --include='*.rs' \
		| grep -vE '^crates/mpisim/src/($(WAKE_FILES))\.rs:'; then \
		echo "error: mpisim wakes a thread outside a park point (see the lint rule in Makefile)"; exit 1; fi
	@if grep -rn 'futex::wait' crates/mpisim/src --include='*.rs' \
		| grep -vE '^crates/mpisim/src/($(SLEEP_FILES))\.rs:'; then \
		echo "error: mpisim sleeps outside a park point (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find crates/mpisim/src -name '*.rs'); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} {print f ":" FNR ":" $$0}' $$f; done \
		| grep 'park_until(' | grep -vE '^crates/mpisim/src/($(PARK_FILES))\.rs:'; then \
		echo "error: mpisim parks outside WorldState and the shm control plane (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find crates/mpisim/src -name '*.rs'); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} !/^[[:space:]]*\/\// {print f ":" FNR ":" $$0}' $$f; done \
		| grep -E 'thread::sleep\(|\.wait_for\(|wait_timeout\(' | grep -vE $(CLOCK_SITES); then \
		echo "error: mpisim waits on a clock outside its named sites (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find crates/core/src crates/service/src -name '*.rs' ! -name proptests.rs); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} {print f ":" FNR ":" $$0}' $$f; done \
		| grep -E '$(BLOCKING_CALLS)'; then \
		echo "error: core or service blocks outside wait (see the lint rule in Makefile)"; exit 1; fi
	@if awk '/^#\[cfg\(test\)\]/ {exit} {print FILENAME ":" FNR ":" $$0}' crates/core/src/exec.rs \
		| grep -E '$(EXEC_LOCKS)'; then \
		echo "error: the executor takes a lock (see the lint rule in Makefile)"; exit 1; fi
	@if grep -rn 'fn wait_nonempty' crates/mpisim/src --include='*.rs'; then \
		echo "error: mpisim has a second blocking channel path (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find $(BYTE_FABRICS) -name '*.rs'); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} {print f ":" FNR ":" $$0}' $$f; done \
		| grep 'arrival'; then \
		echo "error: a byte fabric carries the modeled arrival stamp (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find crates/mpisim/src -name '*.rs' ! -name proptests.rs ! -path '*/transport/remote.rs'); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} !/^[[:space:]]*\/\// {print f ":" FNR ":" $$0}' $$f; done \
		| grep -E 'Workers|workers\.|respawn'; then \
		echo "error: mpisim supervises workers outside transport/remote.rs (see the lint rule in Makefile)"; exit 1; fi
	@if for f in $$(find crates/sparse/src crates/amg/src -name '*.rs' ! -name proptests.rs); do \
		awk -v f=$$f '/^#\[cfg\(test\)\]/ {exit} !/^[[:space:]]*\/\// {print f ":" FNR ":" $$0}' $$f; done \
		| grep -w 'unsafe'; then \
		echo "error: sparse or amg uses unsafe (see the lint rule in Makefile)"; exit 1; fi

# build every paper-figure binary (crates/bench/src/bin) in release and
# run six of them once, output discarded: the modeled fig07_crossover at
# paper scale, fig11_per_level_time and summary_table, which like fig07
# index the four figure series (bench's figures::SERIES) by position,
# the wall-clock planner_scale at 256 ranks, ablation_partitioned at
# its small size — the one figure the partitioned cost model
# (analytic::iteration_time_partitioned) is kept for — and ablation_assign
# at paper scale, which asserts load-balanced leader assignment never
# loses to round-robin — run on every PR by CI so the figure binaries
# cannot rot
figures-smoke:
	cargo build --release -p bench_suite --bins
	cargo run --release -p bench_suite --bin fig07_crossover > /dev/null
	cargo run --release -p bench_suite --bin fig11_per_level_time > /dev/null
	cargo run --release -p bench_suite --bin summary_table -- --small > /dev/null
	cargo run --release -p bench_suite --bin planner_scale > /dev/null
	cargo run --release -p bench_suite --bin ablation_partitioned -- --small > /dev/null
	cargo run --release -p bench_suite --bin ablation_assign > /dev/null

# the repo's benchmark (BENCHMARK.json's command; perfbench/README.md) at
# 1/20 of its run length: builds the separate perfbench package against
# the workspace crates and runs all six workloads once with every output
# check on — a smoke run, its numbers are marked not comparable. Must run
# with no MPISIM_* variable set. `--locked`: a workspace change that would
# rewrite perfbench/Cargo.lock fails here instead of editing a pinned file.
perfbench-quick:
	cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- --quick
