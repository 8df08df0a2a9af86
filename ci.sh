#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

# The workspace builds against the vendored dependency stubs in vendor/,
# so CI never needs the network.
export CARGO_NET_OFFLINE=true

# Cross-algorithm convolution conformance: every conv row of the kernel
# registry (direct, im2col over the packed GEMM on f32 panels or 2-bit
# codes, Winograd F(2x2)/F(4x4), CSR rows times im2col columns) against
# the naive reference under per-kernel error budgets
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
# * plan-passes: one entry contract for both compile entry points (every
#   bad input gets the same error and leaves the weights alone), fusion
#   equivalence (property-based, incl. non-finite inputs), pointwise
#   fast path, residual cache invalidation, the pinned VGG-16 selections
#   and budget solutions.
# * obs-golden: serial traced sessions reproduce the checked-in
#   deterministic text traces (regenerate intentionally with
#   CNN_STACK_BLESS=1).
# * kernel-proptest: kernels vs naive references (depthwise across its
#   contiguous, permuted and gathered loads, planes that do and do not
#   divide its 16-lane vectors, and thread counts, pooling, ReLU, the fused im2col
#   packers vs im2col-then-pack, incl. the NaN/Inf corners) and
#   metrics-vs-truth (gemm.flops == analytic MACs, clean runs never trip
#   the guard, every batch chunk's kernel metrics reach the session
#   observer).
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
# * resident-memory (tests/resident_memory.rs, its own binary: its
#   counting allocator tracks the process's live bytes): a started
#   width-0.5 TTQ VGG-16 server holds its 2-bit codes, masks, biases and
#   arenas plus at most 1 MiB, and no dense master; a rung compiled on a
#   replica of a prepared network allocates no master-sized buffer.
# * weight-digest (tests/weight_digest.rs): a digest of every parameter
#   of full-width VGG-16, MobileNet and ResNet-18 and of the TTQ VGG-16
#   against pinned constants, so any drift in the initialisers' values
#   fails (the e2e correctness check builds its reference with the same
#   initialiser and cannot see one); and the initialiser's tests
#   (`tensor::init::tests`): the portable ChaCha8 keystream against the
#   vendored `ChaCha8Rng` word for word, every SIMD instantiation
#   against the portable one at any block counter (across 2^32 and
#   2^64), every fill against per-sample `gen_range` draws at lengths
#   1-200, the word->value maps on extreme words, and, on every
#   instantiation, the vector `ln` and `cos` against libm on all 2^24
#   values each can see and the whole draw against the per-sample
#   Box-Muller draw on every u1 and every u2.
cargo test --workspace -q
# The vendored criterion is not a workspace member: its own tests (the
# sampler and the command-line bench filter) run by name.
cargo test -q -p criterion

echo "== gemm, depthwise, winograd, init and compress debug assertions =="
# The vector kernels under debug assertions, forced on whatever the test
# profile says. The packed GEMM's wide and skinny tiles and its code
# decoder, the depthwise block and the Winograd movers touch memory only
# through the 16-lane vocabulary (`tensor::v16::V16`), whose every load,
# masked load, paired row load, pick, gather, store and scatter asserts
# that each enabled lane stays inside its slice (the SIMD impls form
# pointers outside the slice at padded edges): so no skinny row load
# leaves its A panel (an 8-float load at a panel's last k-step would read
# 2 floats past it, so that step loads its 6 rows under a mask), and no
# wide tile's masked add into C leaves its row. The GEMM driver asserts
# its `DisjointWriter` slices stay in bounds, and the Winograd movers
# that every gathered, scattered or row-stored lane stays inside its own
# image's channel plane. The tests below run every op on every impl
# (`v16::`), every tile shape and the decoder on every impl and the
# driver on every kernel (`gemm::`), every depthwise instantiation and
# every Winograd mover, block size and instantiation through them, and
# the initialisers (`init::`: each instantiation's 16-block keystream
# passes, which load their counter lanes through the vocabulary; every
# fill against its per-sample reference; and the Kaiming draws' `ln`
# and `cos` on all 2^24 values each, which run on the wide ops `widen`,
# `narrow`, `truncate`, `i32_to_f32`, the f64 `add`, `mul` and `fma`, and
# `select`, a 16-entry table lookup whose lane index the AVX2 impl masks
# to 0..16 before it gathers). The compression passes
# run last: their branch-free sweeps (the threshold's count-and-compact
# store into its scratch, the mask words, the TTQ survivor words and bit
# walks) index by counts and shifts that overflow checks cover only
# here, and their differential tests hold every pass to its f32-mask
# reference.
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-tensor gemm::
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-tensor v16::
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-tensor depthwise::
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-tensor winograd::
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-tensor init::
CARGO_PROFILE_TEST_DEBUG_ASSERTIONS=true cargo test -q -p cnn-stack-compress --lib

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

echo "== gemm bench smoke =="
# Exercises the benchmark harness end to end on a tiny shape; the full
# sweep (which regenerates BENCH_gemm.json) is run manually. It runs
# first of the bench stages because its first line prints
# `gemm_kernel_name()` — the tile (avx512f / avx2+fma / scalar) every
# other stage of this log exercised.
BENCH_SMOKE=1 cargo bench -p cnn-stack-bench --bench gemm

echo "== kernels bench smoke =="
# Five samples of every group in benches/kernels.rs: the depthwise
# kernel, the Winograd convolution (VGG-16's Winograd layers at batch 1
# and 8), the Kaiming initialiser (VGG-16's largest and smallest filter
# banks, keystream and draw math together) and its draw math alone (a
# fixed buffer of 65 536 word pairs -> normals), the two compression
# passes a served TTQ model is built with (full-width VGG-16), the fused
# im2col packer at VGG-16's batch-8 shapes,
# and the prepacked GEMM, each on every instantiation this host
# supports (reached by name through the doc-hidden bench hooks). The
# `gemm_prepacked` group prints the core's register-only FMA rate first
# (`fma_rate`), then each product as GFLOP/s and a share of it; the cache-resident 96x256x64
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
# Every dispatched kernel runs on the portable impl of the 16-lane
# vocabulary on a host without AVX2, and a SIMD host never runs it by
# default: CNN_STACK_GEMM_FORCE_SCALAR=1 pins it (the packed GEMM's wide
# tile, skinny tile and code decoder, depthwise, the Winograd movers and
# the keystream). Pin it and re-run the suites that hold the kernels to
# their references (the im2col packer property in kernel_proptest is
# ISA-independent and simply runs again), and the registry's table
# tests, which drive every row's dispatch arm. The same holds one level
# up: on an AVX-512 host the AVX2 instantiation never runs. No variable
# pins it — its cover is the in-crate
# `gemm::tests::every_kernel_agrees_at_driver_level`, which passes each
# supported kernel to the one shared loop nest explicitly (the AVX2
# skinny tile's two-pass seams at 5-8 columns among its shapes), and
# `scalar_and_simd_kernels_agree` and
# `skinny_tile_bit_matches_wide_tile_lanes`, which hold every impl's
# tiles to each other; they run in the workspace test stage above.
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

# Every ticket resolves in one place: a batch's replies are moved into
# the slot's one in-flight record, whose taker answers them through one
# `settle`. The watchdog-deadline atomic, the cloned-sender registry and
# its drains stay deleted, as do the second StackConfig construction API
# and the second 2-bit ternary format.
if grep -rnE 'busy_until_ns|fail_inflight|abort_batch|StackConfigBuilder|PackedTernaryMatrix' crates src tests examples; then
  echo "ci: a second ticket ledger, StackConfigBuilder or PackedTernaryMatrix is back" >&2
  exit 1
fi

# Brownout is a guard level: an open breaker runs the same sessions with
# guards off. The second plan pipeline, its pass and the second ladder
# kind it compiled stay deleted.
if grep -rnE 'ForceThroughput|PlanCompiler::degraded|LadderKind|force-throughput' crates src tests examples; then
  echo "ci: a second (degraded) plan or ladder is back" >&2
  exit 1
fi

# One kernel path per layer: `Layer::forward` is the one provided
# wrapper over `forward_into`. The per-layer timed forward, the
# row-range GEMM only tests reached, the second CSR convolution beside
# the registry's CSR rows, the pre-colouring plan sizing and the
# depthwise eval funnel stay deleted.
if grep -rnE 'forward_timed|gemm_rows_into|sparse_conv2d|buf_elems|fn eval_into' crates src tests examples; then
  echo "ci: a second copy of a layer's eval code is back" >&2
  exit 1
fi

# One plan pipeline: `PlanCompiler::run` is a fixed sequence and
# `InferencePlan::compile` the same one without fold, fuse, select and
# fit. The pass plug-in API, the measuring tuner nothing called and its
# on-disk cache stay deleted.
if grep -rnE 'Autotune|PlanPass|PassContext|with_pass|relower|CNN_STACK_TUNE_CACHE|tune_key|from_tag' crates src tests examples; then
  echo "ci: the pass plug-in API or the tune cache is back" >&2
  exit 1
fi

# The AVX-512 tile is one body generic over its panel counts: the
# two-A-panel pair kernel it replaced is gone, not kept beside it, and
# no prototype switch survives.
if grep -rnE 'microkernel_avx512_pair|PROTO_' crates src tests examples; then
  echo "ci: the replaced AVX-512 pair kernel (or a prototype switch) is back" >&2
  exit 1
fi

# One skinny path: every impl runs a B panel of at most 8 live columns
# on the skinny tile, and no kernel reaches a half tile again.
if grep -rnF '(MicroKernel::Avx512, true)' crates src tests examples; then
  echo "ci: the AVX-512 kernel reaches the AVX2 half tile again" >&2
  exit 1
fi

# The packed GEMM's tiles and code decoder are written once over the
# 16-lane vocabulary: the per-ISA micro-kernels, the stack tile's
# write-back and the AVX-512 decoder they replaced stay deleted, and
# gemm.rs compiles nothing for a target feature itself.
if grep -rnE 'microkernel_scalar|microkernel_avx2|microkernel_avx512|decode_words_avx512|fn write_back' crates src tests examples; then
  echo "ci: a per-ISA GEMM micro-kernel, decoder or stack-tile write-back is back" >&2
  exit 1
fi
if grep -nE 'target_feature|core::arch' crates/tensor/src/gemm.rs; then
  echo "ci: crates/tensor/src/gemm.rs names a target feature or an intrinsic again" >&2
  exit 1
fi

# One depthwise loop order: 16 outputs of the flattened NCHW block per
# vector, out-of-range taps masked. The row order with its scalar edge
# columns and the channel-blocked order with its transposed stack tiles
# stay deleted.
if grep -rnE 'block_by_tiles|plane_by_rows|TILE_PIXELS' crates src tests examples; then
  echo "ci: a replaced depthwise loop order is back" >&2
  exit 1
fi

# The depthwise block and the Winograd movers are written once over the
# 16-lane vocabulary (`tensor::v16::V16`) and instantiated per target:
# the per-ISA bodies, movers and trampolines it replaced stay deleted.
if grep -rnE 'block_avx2|block_avx512|gather_avx512|scatter_avx512|gather_avx2|stage_grains_avx2|stage_grains_avx512|run_grains_avx2|run_grains_avx512|every_nth_half|gather_half|trait Body|trait Mover' crates src tests examples; then
  echo "ci: a per-ISA depthwise body or Winograd mover is back" >&2
  exit 1
fi

# Every weight is an A operand: both packed linear rows run `W · Xᵀ`,
# so the operand switch, the transposed-B unpacker, the second linear
# lowering and the per-step GEMM plan stay deleted. One batch-norm fold
# with one exact identity test, and no serving knob nobody sets.
if grep -rnE 'PanelOperand|BTransposed|unpack_b_transposed_into|eval_dense_packed_into|fn gemm_plan|fold_batchnorm_exact|is_inference_identity|rung_budget|default_deadline' crates src tests examples; then
  echo "ci: a second linear lowering, batch-norm fold or deleted serve knob is back" >&2
  exit 1
fi

# Every conv row is one selection can pick: one CSR convolution (CSR
# rows times the per-image im2col columns), no im2col over the scalar
# GEMM (the direct loop is the conv floor), and no rows the planner may
# not propose.
if grep -rnE 'eval_csr_direct_into|sparse_channel_conv|eval_dense_im2col_into|CsrIm2col|Im2colScalar|fn proposed' crates src tests examples; then
  echo "ci: a second CSR conv, the scalar im2col row or an unproposable row is back" >&2
  exit 1
fi

# Pruning and TTQ build their masks as words straight from a predicate
# (`Param::set_mask_where`): no pass builds a tensor-sized f32 mask, or
# counts one, again. Test modules keep their f32-mask references, so
# only the lines above each file's `#[cfg(test)]` are searched.
for f in crates/compress/src/{magnitude,ttq,random}.rs; do
  if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
    grep -E 'Tensor::from_fn|count_zeros\(0\.0\)'; then
    echo "ci: a compression pass builds or counts an f32 mask tensor again" >&2
    exit 1
  fi
done

# Batch chunks run on `std::thread::scope` (chunk 0 on the calling
# thread), `parallel_for` is the one fork-join mechanism, and per-step
# `catch_unwind` the one containment boundary: the persistent pool, its
# error and retry path, the chunk-worker faults that only it could
# survive, and the event-sink trait with one implementation stay deleted.
if grep -rnE 'ThreadPool|PoolError|DelayWorker|CrashWorker|worker_entry|trait Collector|with_collector' crates src tests; then
  echo "ci: the thread pool, its worker faults or the Collector trait are back" >&2
  exit 1
fi

# The Kaiming draws call no libm function: `ln` and `cos` are glibc's
# table evaluations written over the 16-lane vocabulary, held to libm
# bit for bit on the whole 2^24-value domain of each by `init::tests`.
# No scalar `ln`, `cos` or `sin` returns to the initialiser outside its
# tests (which keep libm as their reference), so only the lines above
# the file's `#[cfg(test)]` are searched.
if awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' crates/tensor/src/init.rs |
  grep -E '\.(ln|cos|sin)\('; then
  echo "ci: a libm ln, cos or sin call is back in the initialiser" >&2
  exit 1
fi

# One `extern "C"` block in the crates: glibc's `malloc_trim`, which
# hands the pages of freed weight masters back to the kernel
# (`nn::weights::release_freed_pages`). No other foreign call creeps in.
if grep -rn 'extern "C"' crates | grep -v '^crates/nn/src/weights.rs:'; then
  echo "ci: an extern \"C\" block outside the page-release site" >&2
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
