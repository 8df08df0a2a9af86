//! The analytic timing model: prices a forward pass per layer on a
//! [`Platform`] from the network's [`LayerDescriptor`]s.
//!
//! The model is a roofline with explicit systems overheads. Per layer:
//!
//! ```text
//! work      = macs                                        (dense)
//!           = macs · min(penalty · density, saturation)   (CSR)
//! intensity = work / bytes_touched
//! eff(T)    = 1 / (1 + contention·(T-1)·(intensity_ref/intensity)²)
//! compute   = min(work / (aggregate_rate(T) · eff(T)),
//!                 serial · (1 + thrash·(T-1)))
//! memory    = bytes_touched / bandwidth
//! overhead  = spawn·T + grains·dispatch·(1 + sched·(T-1))   (T > 1)
//! time      = max(compute, memory) + overhead
//! ```
//!
//! Every headline effect of the paper emerges from this structure rather
//! than per-experiment tuning: CSR's failure to speed up inference
//! (`min(penalty·density, saturation) ≥ 1` until extreme sparsity),
//! channel pruning's clean win (dense `macs` genuinely shrink),
//! MobileNet's refusal to scale (low arithmetic intensity → `eff`
//! collapses with threads while dense work is already small), and the
//! sparse models' *relative* improvement under threading (the penalty
//! inflates `work`, restoring intensity and hence efficiency).

use crate::platform::Platform;
use cnn_stack_nn::memory::layer_weight_bytes;
use cnn_stack_nn::{LayerDescriptor, LayerKind, WeightFormat};

/// Which systems backend executes the network (§IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// OpenMP-style CPU threading of each layer's outer loop.
    #[default]
    OpenMp,
    /// Hand-tuned OpenCL kernels on the platform GPU (4×4 work-groups,
    /// 16-wide vectors — §V-F).
    OpenClHandTuned,
    /// CLBlast im2col + GEMM pipeline on the platform GPU.
    OpenClClblast,
}

/// Simulation configuration for one measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// CPU thread count (ignored by the GPU backends).
    pub threads: usize,
    /// Execution backend.
    pub backend: Backend,
    /// Whether CPU convolutions run through im2col (adds the lowering
    /// traffic to the memory term).
    pub im2col: bool,
}

impl SimConfig {
    /// Single-threaded CPU execution with direct convolutions.
    pub fn serial() -> Self {
        SimConfig {
            threads: 1,
            backend: Backend::OpenMp,
            im2col: false,
        }
    }

    /// CPU execution on `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn cpu(threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        SimConfig {
            threads,
            ..SimConfig::serial()
        }
    }

    /// GPU execution with the given backend.
    pub fn gpu(backend: Backend) -> Self {
        SimConfig {
            threads: 1,
            backend,
            im2col: matches!(backend, Backend::OpenClClblast),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::serial()
    }
}

/// Per-layer modelled time, decomposed.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerTime {
    /// Layer name (from the descriptor).
    pub name: String,
    /// Compute-bound term, seconds.
    pub compute_s: f64,
    /// Memory-bound term, seconds.
    pub memory_s: f64,
    /// Threading/launch overhead, seconds.
    pub overhead_s: f64,
}

impl LayerTime {
    /// The layer's modelled wall-clock contribution.
    pub fn seconds(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.overhead_s
    }
}

/// Whether the paper's implementation parallelises this layer's outer
/// loop (convolutions and the fully connected layers; §IV-D).
fn is_parallelised(kind: &LayerKind) -> bool {
    matches!(
        kind,
        LayerKind::Conv { .. } | LayerKind::DepthwiseConv { .. } | LayerKind::Linear { .. }
    )
}

/// Effective compute work in MAC-equivalents, applying the CSR penalty
/// (see the module docs).
fn effective_work(platform: &Platform, desc: &LayerDescriptor) -> f64 {
    match desc.format {
        // The ternary kernels run the same dense MAC grid (the codes
        // decode to full-rate FMA operands), so their compute work is
        // dense work — the win is on the memory side.
        WeightFormat::Dense | WeightFormat::Ternary => desc.macs as f64,
        WeightFormat::Csr => {
            let density = if desc.weight_elems == 0 {
                1.0
            } else {
                desc.weight_nnz as f64 / desc.weight_elems as f64
            };
            desc.macs as f64 * (platform.sparse_penalty * density).min(platform.sparse_saturation)
        }
    }
}

/// Bytes the layer touches: activations in/out, weights in their storage
/// format, plus im2col lowering traffic when enabled.
/// Weight bytes actually streamed by the kernels: dense arrays, or the
/// compact CSR triple. (The *footprint* tables use the paper's
/// per-filter CSR layout via `cnn_stack_nn::memory`; the kernels stream
/// the compact arrays.)
fn streamed_weight_bytes(desc: &LayerDescriptor) -> f64 {
    match desc.format {
        WeightFormat::Dense => desc.weight_elems as f64 * 4.0,
        WeightFormat::Csr => desc.weight_nnz as f64 * 8.0 + (desc.parallel_grains + 1) as f64 * 8.0,
        // 2-bit codes plus the two per-layer scales.
        WeightFormat::Ternary => desc.weight_elems as f64 / 4.0 + 8.0,
    }
}

fn bytes_touched(desc: &LayerDescriptor, im2col: bool) -> f64 {
    let mut bytes = (desc.input_elems + desc.output_elems) as f64 * 4.0;
    bytes += streamed_weight_bytes(desc);
    if im2col {
        if let LayerKind::Conv { geom, .. } = &desc.kind {
            // Write + read of the lowered patch matrix.
            bytes += 2.0 * (geom.patch_len() * geom.out_positions()) as f64 * 4.0;
        }
    }
    bytes
}

/// Models one layer on the CPU (OpenMP backend).
fn cpu_layer_time(platform: &Platform, desc: &LayerDescriptor, cfg: &SimConfig) -> LayerTime {
    let work = effective_work(platform, desc);
    let bytes = bytes_touched(desc, cfg.im2col);
    let parallel = is_parallelised(&desc.kind) && cfg.threads > 1;

    let (compute_s, overhead_s) = if parallel {
        let t = cfg.threads;
        // CSR kernels gather input planes tap by tap with poor cache-line
        // utilisation, so however small their weight arrays get, their
        // *effective* arithmetic intensity saturates: the memory system
        // sees work-proportional gather traffic. This keeps the sparse
        // formats from out-scaling dense on the compute-heavy models (the
        // paper's VGG/ResNet observation) while the reduced absolute work
        // still lets the highly sparse MobileNet variants win.
        const CSR_INTENSITY_CAP: f64 = 4.0;
        let intensity = match desc.format {
            WeightFormat::Csr => (work / bytes).clamp(1e-6, CSR_INTENSITY_CAP),
            _ => (work / bytes).max(1e-6),
        };
        let ratio = platform.intensity_ref / intensity;
        let eff = 1.0 / (1.0 + platform.mem_contention * (t - 1) as f64 * ratio * ratio);
        // A thread team degenerates to near-serial execution at worst; it
        // never livelocks (see `Platform::parallel_thrash`).
        let serial_floor =
            work / platform.single_core_rate() * (1.0 + platform.parallel_thrash * (t - 1) as f64);
        let compute = (work / (platform.aggregate_rate(t) * eff)).min(serial_floor);
        let dispatch = desc.parallel_grains as f64
            * platform.dispatch_s
            * (1.0 + platform.sched_contention * (t - 1) as f64);
        let overhead = platform.thread_spawn_s * t as f64 + dispatch;
        (compute, overhead)
    } else {
        (work / platform.single_core_rate(), 0.0)
    };

    LayerTime {
        name: desc.name.clone(),
        compute_s,
        memory_s: bytes / platform.mem_bytes_per_sec,
        overhead_s,
    }
}

/// Models one layer on the GPU.
///
/// # Panics
///
/// Panics if the platform has no GPU.
fn gpu_layer_time(platform: &Platform, desc: &LayerDescriptor, backend: Backend) -> LayerTime {
    let gpu = platform
        .gpu
        .as_ref()
        .expect("platform has no GPU for an OpenCL backend");
    let macs = desc.macs as f64;
    let is_conv = matches!(
        desc.kind,
        LayerKind::Conv { .. } | LayerKind::DepthwiseConv { .. }
    );
    let (compute_s, overhead_s) = match backend {
        Backend::OpenClHandTuned => (macs / gpu.hand_tuned_macs_per_sec, gpu.kernel_launch_s),
        Backend::OpenClClblast if is_conv => {
            // im2col + GEMM: efficiency saturates with per-call MACs.
            let util =
                (macs / (macs + gpu.gemm_half_saturation_macs)).max(gpu.gemm_min_utilisation);
            let rate = (gpu.gemm_peak_macs_per_sec * util).max(1e3);
            // The im2col transform streams the patch matrix on-device.
            let lower_s = if let LayerKind::Conv { geom, .. } = &desc.kind {
                2.0 * (geom.patch_len() * geom.out_positions()) as f64 * 4.0
                    / gpu.transfer_bytes_per_sec
            } else {
                0.0
            };
            (
                macs / rate + lower_s,
                gpu.gemm_call_overhead_s + gpu.kernel_launch_s,
            )
        }
        // Non-convolution layers run as plain hand-written kernels even
        // under the CLBlast pipeline.
        _ => (macs / gpu.hand_tuned_macs_per_sec, gpu.kernel_launch_s),
    };
    LayerTime {
        name: desc.name.clone(),
        compute_s,
        // On-device activation traffic.
        memory_s: (desc.input_elems + desc.output_elems) as f64 * 4.0 / gpu.transfer_bytes_per_sec,
        overhead_s,
    }
}

/// Models one layer under `cfg`.
///
/// # Panics
///
/// Panics if a GPU backend is requested on a platform without a GPU.
pub fn layer_time(platform: &Platform, desc: &LayerDescriptor, cfg: &SimConfig) -> LayerTime {
    match cfg.backend {
        Backend::OpenMp => cpu_layer_time(platform, desc, cfg),
        Backend::OpenClHandTuned | Backend::OpenClClblast => {
            gpu_layer_time(platform, desc, cfg.backend)
        }
    }
}

/// Models a full forward pass: returns `(total_seconds, per_layer)`.
///
/// GPU backends additionally pay the one-time host→device transfer of the
/// input image and all weights, and the device→host transfer of the
/// output — the paper's "arrays … passed through the buffers … at the
/// start of the program" (§IV-D).
///
/// # Panics
///
/// Panics if a GPU backend is requested on a platform without a GPU.
pub fn network_time(
    platform: &Platform,
    descs: &[LayerDescriptor],
    cfg: &SimConfig,
) -> (f64, Vec<LayerTime>) {
    let per_layer: Vec<LayerTime> = descs.iter().map(|d| layer_time(platform, d, cfg)).collect();
    let mut total: f64 = per_layer.iter().map(LayerTime::seconds).sum();
    if matches!(
        cfg.backend,
        Backend::OpenClHandTuned | Backend::OpenClClblast
    ) {
        let gpu = platform.gpu.as_ref().expect("platform has no GPU");
        let weight_bytes: usize = descs.iter().map(layer_weight_bytes).sum();
        let input_bytes = descs.first().map_or(0, |d| d.input_elems * 4);
        let output_bytes = descs.last().map_or(0, |d| d.output_elems * 4);
        total += (weight_bytes + input_bytes + output_bytes) as f64 / gpu.transfer_bytes_per_sec;
    }
    // When an observer is installed, lay the modelled per-layer times
    // out as spans on a dedicated "modelled" track: the trace then shows
    // the analytic prediction next to the measured host spans.
    cnn_stack_obs::with_current(|o| {
        let mut t_ns = 0u64;
        for lt in &per_layer {
            let dur = ((lt.seconds() * 1e9) as u64).max(1);
            let id = o.intern(&format!("model:{}", lt.name));
            o.span(id, t_ns, dur, MODELLED_TRACK);
            t_ns += dur;
        }
        let id = o.intern("model:network");
        o.span(id, 0, t_ns.max(1), MODELLED_TRACK);
    });
    (total, per_layer)
}

/// Trace track (`tid`) that modelled spans are recorded on, keeping the
/// analytic timeline visually separate from measured host spans
/// (track 0) and batch chunks (1..).
pub const MODELLED_TRACK: u32 = 90;

/// The paper's Fig. 1 "expected" time: the measured dense baseline scaled
/// by the surviving fraction of MACs.
pub fn expected_time(dense_total_s: f64, descs: &[LayerDescriptor]) -> f64 {
    let macs: u64 = descs.iter().map(|d| d.macs).sum();
    let effective: u64 = descs.iter().map(|d| d.effective_macs()).sum();
    if macs == 0 {
        return dense_total_s;
    }
    dense_total_s * effective as f64 / macs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{intel_i7, odroid_xu4};
    use cnn_stack_models::{mobilenet, resnet18, vgg16, ModelKind};
    use cnn_stack_nn::network::set_network_format;

    fn descs(kind: ModelKind, csr: bool) -> Vec<LayerDescriptor> {
        let mut model = kind.build(10);
        if csr {
            set_network_format(&mut model.network, WeightFormat::Csr);
        }
        model.network.descriptors(&[1, 3, 32, 32])
    }

    #[test]
    fn vgg_single_thread_times_are_in_the_papers_range() {
        let odroid = odroid_xu4();
        let i7 = intel_i7();
        let d = descs(ModelKind::Vgg16, false);
        let (t_odroid, _) = network_time(&odroid, &d, &SimConfig::serial());
        let (t_i7, _) = network_time(&i7, &d, &SimConfig::serial());
        // Paper Fig. 4(a)/(b): ~4 s and ~1.3 s.
        assert!(t_odroid > 2.5 && t_odroid < 6.0, "odroid {t_odroid}");
        assert!(t_i7 > 0.8 && t_i7 < 2.0, "i7 {t_i7}");
    }

    #[test]
    fn vgg_and_resnet_scale_with_threads() {
        for platform in [odroid_xu4(), intel_i7()] {
            for kind in [ModelKind::Vgg16, ModelKind::ResNet18] {
                let d = descs(kind, false);
                let counts = platform.paper_thread_counts();
                let times: Vec<f64> = counts
                    .iter()
                    .map(|&t| network_time(&platform, &d, &SimConfig::cpu(t)).0)
                    .collect();
                for w in times.windows(2) {
                    assert!(
                        w[1] < w[0],
                        "{kind} on {} did not speed up: {times:?}",
                        platform.name
                    );
                }
            }
        }
    }

    #[test]
    fn mobilenet_does_not_benefit_from_threads() {
        // §V-D: "MobileNet is the least suitable for parallelisation,
        // achieving no speedup on the two platforms".
        for platform in [odroid_xu4(), intel_i7()] {
            let d = descs(ModelKind::MobileNet, false);
            let t1 = network_time(&platform, &d, &SimConfig::cpu(1)).0;
            let tmax = network_time(&platform, &d, &SimConfig::cpu(platform.max_threads())).0;
            assert!(
                tmax > t1 * 0.9,
                "MobileNet speedup too large on {}: {t1} -> {tmax}",
                platform.name
            );
        }
    }

    #[test]
    fn sparse_formats_hurt_vgg_and_resnet() {
        // §V-D: "the sparse methods fail to provide any speedup and do in
        // fact hurt the performance".
        for platform in [odroid_xu4(), intel_i7()] {
            for kind in [ModelKind::Vgg16, ModelKind::ResNet18] {
                let dense = descs(kind, false);
                let sparse = descs(kind, true); // 0% pruned CSR: worst case
                for &t in &platform.paper_thread_counts() {
                    let td = network_time(&platform, &dense, &SimConfig::cpu(t)).0;
                    let ts = network_time(&platform, &sparse, &SimConfig::cpu(t)).0;
                    assert!(
                        ts > td,
                        "{kind} CSR should be slower on {} at {t} threads",
                        platform.name
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_work_saturates_not_explodes() {
        // At moderate density the CSR work multiplier is the saturation
        // constant, not penalty × density.
        let p = intel_i7();
        let desc = LayerDescriptor {
            name: "conv".into(),
            kind: LayerKind::Conv {
                geom: cnn_stack_tensor::Conv2dGeometry::new(64, 32, 32, 3, 3, 1, 1),
                out_channels: 64,
            },
            macs: 1_000_000,
            weight_elems: 1000,
            weight_nnz: 500, // 50% density
            format: WeightFormat::Csr,
            input_elems: 0,
            output_elems: 0,
            output_shape: vec![1],
            scratch_elems: 0,
            parallel_grains: 64,
        };
        let w = effective_work(&p, &desc);
        assert!((w - 1_000_000.0 * p.sparse_saturation).abs() < 1.0);
    }

    #[test]
    fn high_sparsity_eventually_wins() {
        let p = intel_i7();
        let mut desc = LayerDescriptor {
            name: "conv".into(),
            kind: LayerKind::Conv {
                geom: cnn_stack_tensor::Conv2dGeometry::new(64, 32, 32, 3, 3, 1, 1),
                out_channels: 64,
            },
            macs: 1_000_000,
            weight_elems: 1000,
            weight_nnz: 50, // 95% sparse
            format: WeightFormat::Csr,
            input_elems: 0,
            output_elems: 0,
            output_shape: vec![1],
            scratch_elems: 0,
            parallel_grains: 64,
        };
        let w_sparse = effective_work(&p, &desc);
        desc.format = WeightFormat::Dense;
        let w_dense = effective_work(&p, &desc);
        assert!(w_sparse < w_dense);
    }

    #[test]
    fn mobilenet_sparse_beats_dense_at_high_threads() {
        // §V-D: "the sparse methods outperform the original model when
        // increasing the number of threads" for MobileNet. Use the
        // quantised operating point (92.13% sparsity) as in Fig. 4(e).
        let platform = odroid_xu4();
        let mut model = mobilenet(10);
        // Sparsify to the Table III quantisation sparsity.
        cnn_stack_compress::magnitude::prune_network(&mut model.network, 0.9213);
        set_network_format(&mut model.network, WeightFormat::Csr);
        let sparse = model.network.descriptors(&[1, 3, 32, 32]);
        let dense = descs(ModelKind::MobileNet, false);
        let t8_dense = network_time(&platform, &dense, &SimConfig::cpu(8)).0;
        let t8_sparse = network_time(&platform, &sparse, &SimConfig::cpu(8)).0;
        assert!(
            t8_sparse < t8_dense,
            "sparse {t8_sparse} should beat dense {t8_dense} at 8 threads"
        );
    }

    #[test]
    fn gpu_hand_tuned_beats_openmp_for_plain_models() {
        // Fig. 6: "the hand-tuned OpenCL versions outperform the OpenMP
        // implementations".
        let platform = odroid_xu4();
        for kind in ModelKind::all() {
            let d = descs(kind, false);
            let omp = network_time(&platform, &d, &SimConfig::cpu(8)).0;
            let ocl = network_time(&platform, &d, &SimConfig::gpu(Backend::OpenClHandTuned)).0;
            assert!(ocl < omp, "{kind}: OpenCL {ocl} vs OpenMP {omp}");
        }
    }

    #[test]
    fn clblast_collapses_on_cifar_but_wins_at_imagenet_scale() {
        let platform = odroid_xu4();
        // CIFAR ResNet-18: CLBlast suffers up to ~10x vs hand-tuned.
        let d = descs(ModelKind::ResNet18, false);
        let hand = network_time(&platform, &d, &SimConfig::gpu(Backend::OpenClHandTuned)).0;
        let blast = network_time(&platform, &d, &SimConfig::gpu(Backend::OpenClClblast)).0;
        let ratio = blast / hand;
        assert!(ratio > 4.0, "CLBlast/hand ratio {ratio} too small");
        // ImageNet-scale VGG (224x224): CLBlast beats 8-thread OpenMP
        // (§V-F).
        let mut vgg = vgg16(1000);
        let d224 = vgg.network.descriptors(&[1, 3, 224, 224]);
        let _ = &mut vgg;
        let omp = network_time(&platform, &d224, &SimConfig::cpu(8)).0;
        let blast224 = network_time(&platform, &d224, &SimConfig::gpu(Backend::OpenClClblast)).0;
        assert!(
            blast224 < omp,
            "at 224x224 CLBlast ({blast224}) should beat OpenMP ({omp})"
        );
    }

    #[test]
    fn channel_pruning_wins_everywhere() {
        // §V-D headline: channel pruning beats weight pruning and
        // quantisation in every setup. Compare at the Table III points.
        let platform = intel_i7();
        let mut cp = vgg16(10);
        // Remove ~50% of channels from every group as a stand-in for the
        // 88.48% parameter compression.
        for g in 0..cp.plan.group_count() {
            let n = cp.plan.channels(&cp.network, g) / 2;
            for _ in 0..n {
                cp.plan.prune(&mut cp.network, g, 0);
            }
        }
        let cp_descs = cp.network.descriptors(&[1, 3, 32, 32]);
        let mut wp = vgg16(10);
        cnn_stack_compress::magnitude::prune_network(&mut wp.network, 0.7654);
        set_network_format(&mut wp.network, WeightFormat::Csr);
        let wp_descs = wp.network.descriptors(&[1, 3, 32, 32]);
        for &t in &platform.paper_thread_counts() {
            let t_cp = network_time(&platform, &cp_descs, &SimConfig::cpu(t)).0;
            let t_wp = network_time(&platform, &wp_descs, &SimConfig::cpu(t)).0;
            assert!(t_cp < t_wp, "channel pruning should win at {t} threads");
        }
    }

    #[test]
    fn expected_time_scales_with_sparsity() {
        let mut model = resnet18(10);
        cnn_stack_compress::magnitude::prune_network(&mut model.network, 0.8);
        let d = model.network.descriptors(&[1, 3, 32, 32]);
        let expected = expected_time(1.0, &d);
        assert!(expected > 0.15 && expected < 0.35, "expected {expected}");
    }

    #[test]
    #[should_panic(expected = "no GPU")]
    fn gpu_backend_requires_gpu() {
        let d = descs(ModelKind::Vgg16, false);
        let _ = network_time(&intel_i7(), &d, &SimConfig::gpu(Backend::OpenClHandTuned));
    }
}
