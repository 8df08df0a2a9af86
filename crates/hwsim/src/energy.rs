//! Energy estimation for inference.
//!
//! The paper motivates compression by "memory, compute time, and energy
//! consumption" and leans on its \[12\] citation that "the bottleneck for
//! inference computation was off-chip DRAM accesses, and that when the
//! memory requirements of a CNN are reduced, the energy consumption ...
//! \[is\] also reduced" (§I). This module turns that argument into
//! numbers: an event-cost model (pJ per MAC, pJ per DRAM byte, static
//! power over the modelled runtime) evaluated from the same layer
//! descriptors as the timing model, so every experiment can report
//! joules alongside seconds.
//!
//! Event costs follow the well-known Horowitz ISSCC'14 ballpark that the
//! Deep Compression line of work uses: a 32-bit float MAC is a few pJ,
//! while a 32-bit DRAM access costs ~two orders of magnitude more —
//! which is exactly why Table IV's *larger* CSR footprints are an energy
//! problem, not just a capacity one.

use crate::platform::Platform;
use crate::timing::{network_time, SimConfig};
use cnn_stack_nn::memory::layer_weight_bytes;
use cnn_stack_nn::LayerDescriptor;

/// Per-event energy costs of a platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy per dense multiply-accumulate, picojoules.
    pub pj_per_mac: f64,
    /// Energy per byte moved to/from DRAM, picojoules.
    pub pj_per_dram_byte: f64,
    /// Static (leakage + uncore) power burned for the whole runtime,
    /// watts.
    pub static_watts: f64,
}

impl EnergyModel {
    /// The Odroid-XU4's A15 cluster: ~28 nm mobile silicon.
    pub fn odroid_xu4() -> Self {
        EnergyModel {
            pj_per_mac: 8.0,
            pj_per_dram_byte: 170.0,
            static_watts: 1.2,
        }
    }

    /// The i7-3820: 32 nm desktop silicon, far higher static floor.
    pub fn intel_i7() -> Self {
        EnergyModel {
            pj_per_mac: 18.0,
            pj_per_dram_byte: 160.0,
            static_watts: 35.0,
        }
    }

    /// The energy model matching a [`Platform`] descriptor by name.
    pub fn for_platform(platform: &Platform) -> Self {
        if platform.name.contains("Odroid") {
            EnergyModel::odroid_xu4()
        } else {
            EnergyModel::intel_i7()
        }
    }
}

/// An energy estimate, decomposed by source.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Compute (MAC) energy, joules.
    pub compute_j: f64,
    /// DRAM traffic energy, joules.
    pub dram_j: f64,
    /// Static energy over the modelled runtime, joules.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total(&self) -> f64 {
        self.compute_j + self.dram_j + self.static_j
    }

    /// Average power over a runtime, watts.
    pub fn average_watts(&self, runtime_s: f64) -> f64 {
        if runtime_s <= 0.0 {
            0.0
        } else {
            self.total() / runtime_s
        }
    }
}

/// Estimates the energy of one forward pass: MAC events use the
/// *effective* (stored-non-zero) work, DRAM events use activations plus
/// format-dependent weight bytes, and static power integrates over the
/// timing model's runtime for the same configuration.
pub fn network_energy(
    platform: &Platform,
    model: &EnergyModel,
    descs: &[LayerDescriptor],
    cfg: &SimConfig,
) -> EnergyBreakdown {
    let macs: u64 = descs.iter().map(|d| d.effective_macs()).sum();
    let weight_bytes: usize = descs.iter().map(layer_weight_bytes).sum();
    let act_bytes: usize = descs
        .iter()
        .map(|d| (d.input_elems + d.output_elems) * 4)
        .sum();
    let (runtime_s, _) = network_time(platform, descs, cfg);
    EnergyBreakdown {
        compute_j: macs as f64 * model.pj_per_mac * 1e-12,
        dram_j: (weight_bytes + act_bytes) as f64 * model.pj_per_dram_byte * 1e-12,
        static_j: model.static_watts * runtime_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{intel_i7, odroid_xu4};
    use cnn_stack_models::ModelKind;
    use cnn_stack_nn::network::set_network_format;
    use cnn_stack_nn::WeightFormat;

    fn vgg_descs(csr: bool) -> Vec<LayerDescriptor> {
        let mut model = ModelKind::Vgg16.build(10);
        if csr {
            set_network_format(&mut model.network, WeightFormat::Csr);
        }
        model.network.descriptors(&[1, 3, 32, 32])
    }

    #[test]
    fn totals_are_positive_and_decomposed() {
        let platform = odroid_xu4();
        let model = EnergyModel::for_platform(&platform);
        let e = network_energy(&platform, &model, &vgg_descs(false), &SimConfig::cpu(4));
        assert!(e.compute_j > 0.0 && e.dram_j > 0.0 && e.static_j > 0.0);
        assert!((e.total() - (e.compute_j + e.dram_j + e.static_j)).abs() < 1e-12);
        // VGG on the Odroid: single-digit joules per inference is the
        // plausible embedded ballpark.
        assert!(e.total() > 0.05 && e.total() < 20.0, "total {}", e.total());
    }

    #[test]
    fn channel_pruning_saves_energy() {
        let platform = odroid_xu4();
        let em = EnergyModel::for_platform(&platform);
        let plain = network_energy(&platform, &em, &vgg_descs(false), &SimConfig::cpu(8));
        let mut pruned = ModelKind::Vgg16.build(10);
        for g in 0..pruned.plan.group_count() {
            let n = pruned.plan.channels(&pruned.network, g) / 2;
            for _ in 0..n {
                pruned.plan.prune(&mut pruned.network, g, 0);
            }
        }
        let descs = pruned.network.descriptors(&[1, 3, 32, 32]);
        let cp = network_energy(&platform, &em, &descs, &SimConfig::cpu(8));
        assert!(cp.total() < plain.total() * 0.6);
    }

    #[test]
    fn csr_footprint_costs_dram_energy_despite_fewer_macs() {
        // The §I argument inverted: an unpruned CSR model moves *more*
        // bytes (per-filter format overhead), so its DRAM energy rises
        // even though compute energy is unchanged.
        let platform = intel_i7();
        let em = EnergyModel::for_platform(&platform);
        let dense = network_energy(&platform, &em, &vgg_descs(false), &SimConfig::serial());
        let sparse = network_energy(&platform, &em, &vgg_descs(true), &SimConfig::serial());
        assert!(sparse.dram_j > dense.dram_j);
    }

    #[test]
    fn idle_desktop_burns_more_static_energy_than_odroid() {
        let descs = vgg_descs(false);
        let odroid = odroid_xu4();
        let i7 = intel_i7();
        let e_odroid = network_energy(
            &odroid,
            &EnergyModel::odroid_xu4(),
            &descs,
            &SimConfig::cpu(8),
        );
        let e_i7 = network_energy(&i7, &EnergyModel::intel_i7(), &descs, &SimConfig::cpu(4));
        // The i7 finishes faster but its 35 W floor dominates: static
        // energy per inference is still higher than the Odroid's.
        assert!(e_i7.static_j > e_odroid.static_j);
    }

    #[test]
    fn average_power_is_sane() {
        let platform = odroid_xu4();
        let em = EnergyModel::for_platform(&platform);
        let descs = vgg_descs(false);
        let cfg = SimConfig::cpu(8);
        let (runtime, _) = network_time(&platform, &descs, &cfg);
        let e = network_energy(&platform, &em, &descs, &cfg);
        let watts = e.average_watts(runtime);
        assert!(watts > 1.0 && watts < 15.0, "watts {watts}");
        assert_eq!(EnergyBreakdown::default().average_watts(0.0), 0.0);
    }
}
