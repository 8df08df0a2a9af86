#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace builds against the vendored dependency stubs in vendor/,
# so CI never needs the network.
export CARGO_NET_OFFLINE=true

# Cross-algorithm convolution conformance: every conv row of the kernel
# registry (direct, im2col over the packed GEMM on f32 panels or 2-bit
# codes and over the scalar GEMM, Winograd F(2x2)/F(4x4), both CSR
# kernels) against the naive reference under per-kernel error budgets
# (the code row bit-exact against im2col-packed), the registry's own
# table tests, the
# transform-ladder fault-injection rungs and a tiny-shape pass through
# the conv-algo bench harness. The full bench run (which regenerates
# BENCH_conv.json and enforces the F4 >= 1.5x im2col-packed gate on
# VGG-16 conv2_2 at batch 8) is manual.
#
# `./ci.sh conv-conformance` runs just this job (fast inner loop for
# kernel work). The full gate below does not call it: its test
# invocations are subsets of the `tests` and `fault-injection tests`
# stages, so only the bench smoke runs again there.
if [[ "${1:-all}" == "conv-conformance" ]]; then
  echo "== conv-conformance =="
  cargo test -q --test conv_conformance
  cargo test -q -p cnn-stack-nn algo::
  cargo test -q --features fault-inject --test fault_injection winograd4
  BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench conv_algo
  echo "ci: conv-conformance green"
  exit 0
fi

echo "== build (release) =="
cargo build --workspace --release

echo "== e2e-smoke =="
# The end-to-end benchmark is its own package (own workspace and
# lockfile) that this repo's PRs may not edit, so it runs first: a
# public-API removal that breaks it fails in the first minute. Its tests
# include the declaration-vs-binary smoke run, so a step-name or
# metric-set drift fails here, not in the driver.
cargo test --release --offline --manifest-path e2e/Cargo.toml

echo "== tests =="
# Every unit, integration and doc test of every crate under default
# features. The stages this one run carries, so none of them is invoked
# a second time below:
# * gemm equivalence (proptest): the packed/SIMD GEMM engine agrees with
#   the naive reference on arbitrary shapes, incl. non-finite
#   propagation.
# * plan-passes: fusion equivalence (property-based, incl. non-finite
#   inputs), pointwise fast path, residual cache invalidation, the
#   tuning-cache replay regressions.
# * obs-golden: serial traced sessions reproduce the checked-in
#   deterministic text traces (regenerate intentionally with
#   CNN_STACK_BLESS=1).
# * kernel-proptest: kernels vs naive references (depthwise across both
#   loop orders and thread counts, pooling, ReLU, the fused im2col
#   packers vs im2col-then-pack, incl. the NaN/Inf corners) and
#   metrics-vs-truth (gemm.flops == analytic MACs, clean runs never trip
#   the guard, pool runs what it queues).
# * serve-tests: deterministic ManualClock batching/shedding semantics
#   and the serve crate's own unit + doc tests; serve-chaos's
#   default-feature half: a counting `build_net` runs once across start,
#   crash respawn and watchdog failover (serve_supervision).
# * quant-proptest: the 2-bit spmm vs its f32 reference and the packed
#   GEMM on 2-bit code panels vs the same GEMM on the f32 panels of the
#   same values (incl. the 0*NaN propagation policy), plus the derived-weight-form property: after
#   any interleaving of weight writes, relabels, channel surgery,
#   prepares, replicas and TTQ reprojections on a conv/linear layer and
#   its replica, every kernel of each side equals a freshly built
#   layer's, bit for bit, and the sides share storage exactly while they
#   may.
# * plan-memory: coloured-arena bit-identity vs unshared per-step
#   buffers (property-based, incl. non-finite payloads), the VGG-16
#   budget acceptance scenario, budget-infeasibility floor reporting,
#   "every budgeted plan runs inside its arena with zero steady-state
#   allocations" (engine_session, which owns the counting allocator),
#   and the liveness/colouring unit tests.
# * conv-conformance and the kernel registry's table tests
#   (`nn::algo::tests`).
cargo test --workspace -q

echo "== fault-injection tests =="
# The injector only compiles under this feature; the run above doubles
# as the proof that the default build excludes it (the
# `default_build_excludes_fault_injection` unit test asserts a
# zero-sized no-op FaultPlan when the feature is off). Under the feature
# the root package re-runs every integration test, which carries: the
# guard ladder (tests/fault_injection.rs, incl. the Winograd rungs), the fault-injected co-batch integrity proof (serve_batching),
# and the self-healing runtime's deterministic ManualClock supervision
# tests (serve_supervision: worker-panic -> typed failures + respawn,
# hung-batch watchdog failover, crash-loop backoff caps, breaker trip ->
# degraded -> half-open recovery). The serve crate's run carries the
# one-model-per-server proofs: every rung before and after each respawn
# reads the frozen templates' buffers while an injected weight fault
# stays in its rung.
cargo test -q --features fault-inject
cargo test -q -p cnn-stack-nn --features fault-inject
cargo test -q -p cnn-stack-serve --features fault-inject

echo "== plan-passes (pinned tune cache) =="
# A deterministic autotune smoke with the cache pinned through the
# environment to a temp dir, so the runner's real cache is never
# touched.
TUNE_DIR="$(mktemp -d)"
CNN_STACK_TUNE_CACHE="$TUNE_DIR/tune.tsv" cargo test -q -p cnn-stack-nn passes::tests::autotune
rm -rf "$TUNE_DIR"

echo "== gemm bench smoke =="
# Exercises the benchmark harness end to end on a tiny shape; the full
# sweep (which regenerates BENCH_gemm.json) is run manually. It runs
# first of the bench stages because its first line prints
# `gemm_kernel_name()` — the tile (avx512f / avx2+fma / scalar) every
# other stage of this log exercised.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench gemm

echo "== kernels bench smoke =="
# Five samples of every group in benches/kernels.rs: the depthwise
# kernel, the fused im2col packer at VGG-16's batch-8 shapes, and the
# prepacked GEMM on every micro-kernel this host supports (reached by
# name through the doc-hidden bench hook). The `gemm_prepacked` group
# prints the core's register-only FMA rate first (`fma_rate`), then each
# product as GFLOP/s and a share of it; the cache-resident 96x256x64
# rows are the kernel with nothing else in the way. A report, not a
# gate: the FMA row itself moves by several percent between runs of a
# shared host. The full run is manual.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench kernels

echo "== plan bench smoke =="
# End-to-end plan bench harness on a tiny width (full run regenerates
# BENCH_plan.json manually).
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench plan

echo "== serve-bench-smoke =="
# Tiny open-loop run through the real threaded server (width 0.25,
# max-batch 4) with a loose 5% batching gate; the full run (which
# regenerates BENCH_serve.json and enforces the 2x gate) is manual.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench serve

echo "== serve-chaos =="
# A small threaded chaos run with an injected crash + hang at 1.5x
# capacity asserting zero lost tickets. The full chaos run (which
# regenerates BENCH_chaos.json and enforces the breaker-on < breaker-off
# miss-rate gate) is manual.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench chaos --features fault-inject

echo "== quant-bench-smoke =="
# Tiny-shape pass through the quant bench harness, asserting the codes
# stay bit-identical to the f32 panels at 1/16 of their bytes before
# timing; the full run (which regenerates BENCH_quant.json and enforces
# codes <= 1.15x the f32 panels' time on the conv5 trio) is manual.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench quant

echo "== memory bench smoke =="
# Exercises the memory harness end to end on a thin model; the full run
# (which regenerates BENCH_memory.json and enforces the budget-fit gate)
# is manual.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench memory

echo "== conv-algo bench smoke =="
# The one part of the conv-conformance job the stages above have not
# already run.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench conv_algo

echo "== portable-kernels =="
# Every dispatched kernel (packed GEMM full and half tile, the code
# decoder through the conformance grid, depthwise) has a portable twin that an
# AVX2 host never runs by default; pin it and re-run the suites that
# hold the kernels to their references (the im2col packer property in
# kernel_proptest is ISA-independent and simply runs again), and the
# registry's table tests, which drive every row's dispatch arm. The same
# holds one level up: on an AVX-512 host the AVX2 f32 full tile never
# runs (the AVX-512 body takes the odd tail panels too). No variable
# pins it — its cover is the in-crate
# `gemm::tests::every_kernel_agrees_at_driver_level`, which passes each
# supported kernel to the one shared loop nest explicitly and runs in
# the workspace test stage above.
CNN_STACK_GEMM_FORCE_SCALAR=1 cargo test -q \
  --test kernel_proptest --test gemm_equivalence --test conv_conformance \
  --test quant_invalidation
CNN_STACK_GEMM_FORCE_SCALAR=1 cargo test -q -p cnn-stack-nn algo::

echo "== name gates =="
# The mechanism replicas replaced is gone, not forked.
if grep -rnE 'export_panels|adopt_panels|WeightPanels|PanelSet' crates src tests examples; then
  echo "ci: the panel export/adopt API is back" >&2
  exit 1
fi
# One place decides which kernel a step runs (`nn::algo::resolve`): the
# per-site re-derivations it replaced, the options nobody set and the
# frozen obs gate stay deleted.
if grep -rnE 'uses_packed_gemm|takes_winograd_transform|takes_fft|eval_packed_dispatch_into|layer_has_conv|layer_has_csr|layer_uses_packed_gemm|densify_layer|matches_current|honor_overrides|DemotionAction|PR4_BASELINE' crates src tests examples; then
  echo "ci: a second copy of the kernel routing (or a deleted option) is back" >&2
  exit 1
fi
# A registry row stays only while some model, technique, batch or budget
# reaches it (tests/row_reachability.rs): the FFT convolution and the
# int8 linear kernel were withdrawn, not parked.
if grep -rnE 'FftConv|ConvAlgorithm::Fft|fft_conv2d|fft_plane_dims|FFT_GFLOPS|Int8Linear|Int8Packed|WeightFormat::Int8|gemm_prepacked_int8|pack_a_i8_into|quantise_scale_i8|INT8_GFLOPS' crates src tests examples; then
  echo "ci: a withdrawn kernel (FFT conv / int8 linear) is back" >&2
  exit 1
fi

# Both Winograd tile sizes run one body on the packed engine against a
# bank the layer keeps as a weight form: the per-tile scalar F(2x2)
# loop, F(4x4)'s broadcast products, the per-call filter transforms and
# the scratch sizes that held them stay deleted, as do the per-tile
# multiply counters `tile_multiply_counts` replaced.
if grep -rnE 'winograd4_conv2d_into|winograd4_scratch_elems|winograd_scratch_elems|WINOGRAD4_TILE_BLOCK|transform_filter4?\b|transform_input4?\b|transform_output4?\b|WinogradKernel|WINOGRAD4?_GFLOPS|\bmultiply_counts4?\b' crates src tests examples; then
  echo "ci: a per-call Winograd filter transform or scalar multiply stage is back" >&2
  exit 1
fi

# A TTQ layer runs its 2-bit codes decoded into the f32 tile: the
# transposed ternary engine (its B-code packer, its transposed A packer,
# its micro-kernels, its driver, its cost anchor) is gone, not kept
# beside it. `GemmAlgorithm::TernaryPacked` itself stays: the e2e
# package's ledger classifies steps by it.
if grep -rnE 'pack_a_transposed_into|pack_b_ternary_transposed_into|microkernel_ternary|gemm_prepacked_ternary|TERNARY_GFLOPS|ternary_b_words' crates src tests examples; then
  echo "ci: the transposed ternary engine is back" >&2
  exit 1
fi

# The AVX-512 tile is one body generic over its panel counts: the
# two-A-panel pair kernel it replaced is gone, not kept beside it, and
# no prototype switch survives.
if grep -rnE 'microkernel_avx512_pair|PROTO_' crates src tests examples; then
  echo "ci: the replaced AVX-512 pair kernel (or a prototype switch) is back" >&2
  exit 1
fi

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail here, so deleting a documented
# item cannot leave a dangling reference behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "ci: all green"
