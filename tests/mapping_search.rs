//! The evaluator's random mapping search, pinned end to end: winners and
//! bookkeeping against recorded values, and the scalar energy objective
//! against the itemized breakdown it replaces.

use lumen::albireo::{AlbireoConfig, DigitalBaseline, ScalingProfile};
use lumen::arch::{ArchBuilder, Architecture, Domain, Fanout};
use lumen::components::DramKind;
use lumen::core::{EnergyObjective, MappingStrategy, System};
use lumen::mapper::search::{random_search, SearchConfig};
use lumen::mapper::LayerAnalysis;
use lumen::units::{Energy, Frequency};
use lumen::workload::{networks, Dim, DimSet, Layer, TensorSet};
use std::collections::HashSet;

/// ResNet-18's layers with distinct signatures, in network order.
fn unique_resnet18_layers() -> Vec<Layer> {
    let mut seen = HashSet::new();
    networks::resnet18()
        .layers()
        .iter()
        .filter(|l| seen.insert(l.signature()))
        .cloned()
        .collect()
}

/// The three pinned Albireo designs, each with its search seed.
fn pinned_designs() -> [(Architecture, u64); 3] {
    [
        (
            AlbireoConfig::new(ScalingProfile::Aggressive).build_arch(),
            11,
        ),
        (
            AlbireoConfig::new(ScalingProfile::Conservative).build_arch(),
            12,
        ),
        (
            AlbireoConfig::new(ScalingProfile::Aggressive)
                .with_glb_mebibytes(1)
                .with_input_reuse(18)
                .with_dram(DramKind::Hbm2)
                .build_arch(),
            13,
        ),
    ]
}

/// `(design, layer, winning mapping, cost bits, evaluated, deduped,
/// pruned)` of `System::search_layer` with 128 iterations, recorded
/// before the search loop was reworked.
#[rustfmt::skip]
const PINS: [(usize, &str, &str, u64, usize, usize, usize); 36] = [
    (0, "conv1", "L0: - | L1: sM:8 | L2: - | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sR:7 | L8: tS:7 tP:112 tQ:2 tQ:14 tQ:4", 0x41afa59fb9cb2ec8, 62, 1, 65),
    (0, "layer1.0.conv1", "L0: tC:3 | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sC:9 | L8: tR:3 tQ:19 tS:3 tP:56", 0x41a99dd93dec7ab1, 27, 0, 101),
    (0, "layer2.0.conv1", "L0: - | L1: tQ:2 tM:2 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:3 tQ:14 tS:3 tP:4 tR:3 tP:7", 0x41a6cc09fcfa9960, 19, 0, 109),
    (0, "layer2.0.conv2", "L0: tC:5 | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tR:3 tS:3 tQ:2 tQ:5 tM:2 tP:28", 0x41a6b1bedb535135, 26, 0, 102),
    (0, "layer2.0.downsample", "L0: - | L1: tP:28 tQ:28 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:2 tC:3", 0x41837ea293fe01e3, 37, 2, 89),
    (0, "layer3.0.conv1", "L0: tQ:14 | L1: sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tP:14 tM:4 tC:5 tS:3 tR:3", 0x41a48028f17befa8, 16, 0, 112),
    (0, "layer3.0.conv2", "L0: tQ:5 | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tP:14 tM:4 tC:10 tS:3 tR:3", 0x41af21cc9f56ebf3, 25, 0, 103),
    (0, "layer3.0.downsample", "L0: tQ:7 tQ:2 | L1: tP:14 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:4 tC:5", 0x417b26266dab780c, 38, 3, 87),
    (0, "layer4.0.conv1", "L0: - | L1: tS:3 tC:5 tC:2 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tQ:7 tR:3 tM:8 tP:7", 0x41b3f46334c77887, 22, 0, 106),
    (0, "layer4.0.conv2", "L0: tS:3 | L1: tR:3 tC:19 sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:8 tQ:3 tP:7", 0x41c26d9a7e7ef2a3, 29, 0, 99),
    (0, "layer4.0.downsample", "L0: tQ:7 | L1: tP:7 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:8 tC:10", 0x4183534e89a551dc, 33, 2, 93),
    (0, "fc", "L0: tC:19 | L1: sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:14", 0x4193fa3a2e777367, 38, 83, 7),
    (1, "conv1", "L0: - | L1: sM:8 | L2: - | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sR:7 | L8: tQ:112 tP:112 tS:7", 0x41c4899aeb6e5198, 87, 7, 34),
    (1, "layer1.0.conv1", "L0: - | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:3 tQ:19 tP:56 tR:3 tS:3", 0x41cdad043a92aa29, 98, 0, 30),
    (1, "layer2.0.conv1", "L0: tQ:7 | L1: tP:4 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tP:7 tR:3 tC:3 tM:2 tQ:4 tS:3", 0x41c2dc207c2f7a2f, 59, 0, 69),
    (1, "layer2.0.conv2", "L0: tM:2 tC:5 | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tQ:2 tS:3 tR:3 tQ:5 tP:28", 0x41cbd97b5ba3e166, 65, 0, 63),
    (1, "layer2.0.downsample", "L0: - | L1: tQ:28 tP:28 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:2 tC:3", 0x4195ba8358a02e70, 87, 1, 40),
    (1, "layer3.0.conv1", "L0: - | L1: tM:4 tC:5 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tR:3 tS:3 tP:14 tQ:14", 0x41c1be0f69ad64f5, 37, 0, 91),
    (1, "layer3.0.conv2", "L0: - | L1: tR:3 tC:5 tC:2 sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tS:3 tP:7 tQ:5 tP:2 tM:4", 0x41cdc012173a5e16, 53, 0, 75),
    (1, "layer3.0.downsample", "L0: tP:2 | L1: tQ:7 tQ:2 tP:7 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:4 tC:5", 0x4190c588a79bd941, 58, 3, 67),
    (1, "layer4.0.conv1", "L0: - | L1: tC:2 sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tR:3 tM:4 tC:5 tS:3 tM:2 tQ:7 tP:7", 0x41c4bebe6b9caec4, 43, 0, 85),
    (1, "layer4.0.conv2", "L0: - | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:19 tS:3 tR:3 tQ:3 tP:7 tM:8", 0x41d4ec91caea7237, 41, 0, 87),
    (1, "layer4.0.downsample", "L0: tQ:7 tP:7 | L1: sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:10 tM:8", 0x4193a5a65103a42b, 46, 6, 76),
    (1, "fc", "L0: - | L1: sM:8 | L2: - | L3: - | L4: sM:9 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:14 tC:19", 0x4194a7ab7d0216bd, 46, 82, 0),
    (2, "conv1", "L0: - | L1: sM:8 | L2: - | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sR:7 | L8: tP:112 tQ:112 tS:7", 0x41a13f34ae67a1fd, 84, 3, 41),
    (2, "layer1.0.conv1", "L0: tC:3 | L1: sM:8 | L2: sQ:3 | L3: - | L4: sM:8 | L5: - | L6: sC:3 | L7: sC:9 | L8: tS:3 tQ:19 tR:3 tP:56", 0x41a2042943c3ce93, 39, 0, 89),
    (2, "layer2.0.conv1", "L0: tP:2 | L1: tQ:2 sM:8 | L2: - | L3: - | L4: sM:16 | L5: - | L6: sC:3 | L7: sC:9 | L8: tS:3 tQ:14 tP:14 tC:3 tR:3", 0x41952a7c50b67272, 52, 0, 76),
    (2, "layer2.0.conv2", "L0: - | L1: tC:5 sM:8 | L2: sQ:3 | L3: - | L4: sM:16 | L5: - | L6: sC:3 | L7: sC:9 | L8: tS:3 tP:28 tQ:10 tR:3", 0x4198ad61d7ecb456, 59, 1, 68),
    (2, "layer2.0.downsample", "L0: tP:28 | L1: tQ:28 sM:8 | L2: - | L3: - | L4: sM:16 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:3", 0x416ff0255eb9d47b, 92, 7, 29),
    (2, "layer3.0.conv1", "L0: tM:2 tP:2 | L1: sM:8 | L2: - | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tP:7 tC:5 tQ:14 tS:3 tR:3", 0x41963b53157b2971, 42, 0, 86),
    (2, "layer3.0.conv2", "L0: - | L1: tM:2 sM:8 | L2: sQ:3 | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:5 tQ:5 tR:3 tS:3 tP:2 tC:2 tP:7", 0x41a021fa2c8bd14f, 40, 0, 88),
    (2, "layer3.0.downsample", "L0: tP:14 tQ:14 | L1: sM:8 | L2: - | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:5 tM:2", 0x41692da2858706f5, 57, 4, 67),
    (2, "layer4.0.conv1", "L0: tM:4 | L1: sM:8 | L2: - | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tP:7 tS:3 tC:10 tR:3 tQ:7", 0x41a0cb6b62c81112, 35, 0, 92),
    (2, "layer4.0.conv2", "L0: - | L1: tS:3 tC:19 sM:8 | L2: sQ:3 | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tR:3 tM:2 tP:7 tQ:3 tM:2", 0x41aeed5c1a2563e9, 40, 3, 83),
    (2, "layer4.0.downsample", "L0: tP:7 | L1: tQ:7 sM:8 | L2: - | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tM:4 tC:10", 0x41709ed71c7c9224, 51, 3, 74),
    (2, "fc", "L0: - | L1: tM:7 sM:8 | L2: - | L3: - | L4: sM:18 | L5: - | L6: sC:3 | L7: sC:9 | L8: tC:19", 0x417c3722becd2915, 12, 116, 0),
];

#[test]
fn search_results_match_the_recorded_pins() {
    let layers = unique_resnet18_layers();
    assert_eq!(layers.len(), 12);
    let mut pins = PINS.iter();
    for (d, (arch, seed)) in pinned_designs().into_iter().enumerate() {
        let system = System::new(arch, MappingStrategy::default());
        for layer in &layers {
            let &(design, name, mapping, cost, evaluated, deduped, pruned) =
                pins.next().expect("one pin per design and layer");
            assert_eq!((design, name), (d, layer.name()));
            let config = SearchConfig {
                iterations: 128,
                seed,
            };
            let r = system.search_layer(layer, config).expect("layer maps");
            let shown = format!("{}", r.mapping).trim_end().replace('\n', " | ");
            assert_eq!(shown, mapping, "design {d}, {name}: winner");
            assert_eq!(r.cost.to_bits(), cost, "design {d}, {name}: cost");
            assert_eq!(
                (r.evaluated, r.deduped, r.pruned),
                (evaluated, deduped, pruned),
                "design {d}, {name}: evaluated/deduped/pruned"
            );
        }
    }
    assert!(pins.next().is_none());
}

/// Runs a seeded search on `arch` over `layers`, checking the scalar
/// objective against the breakdown's total on every analyzed candidate.
/// Returns the number of candidates checked.
fn check_objective(arch: &Architecture, layers: &[Layer], seed: u64) -> usize {
    let objective = EnergyObjective::new(arch);
    let mut checked = 0;
    for layer in layers {
        let config = SearchConfig {
            iterations: 48,
            seed,
        };
        random_search(arch, layer, config, |a: &LayerAnalysis| {
            let fast = objective.picojoules(a);
            let reference = objective.breakdown(a).total().picojoules();
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "{} on {}: {fast} vs {reference}",
                layer.name(),
                arch.name()
            );
            checked += 1;
            fast
        })
        .expect("layer maps");
    }
    checked
}

#[test]
fn scalar_objective_matches_the_breakdown_total_bit_for_bit() {
    let layers = unique_resnet18_layers();
    let archs = [
        AlbireoConfig::new(ScalingProfile::Conservative).build_arch(),
        AlbireoConfig::new(ScalingProfile::Aggressive).build_arch(),
        DigitalBaseline::new().build_arch(),
    ];
    for (seed, arch) in archs.iter().enumerate() {
        let checked = check_objective(arch, &layers, seed as u64 + 1);
        assert!(checked > 100, "{}: {checked} candidates", arch.name());
    }
}

#[test]
fn scalar_objective_replays_label_merges_and_zero_skips() {
    // Per-cycle costs share a storage level's label ("glb") and each
    // other's ("laser"); the first "laser" and the dram read are zero,
    // so their items are inserted late and the summation order differs
    // from the declaration order.
    let arch = ArchBuilder::new("merge", Frequency::from_gigahertz(1.0))
        .storage("dram", Domain::DigitalElectrical, TensorSet::all())
        .write_energy(Energy::from_picojoules(80.0))
        .done()
        .storage("glb", Domain::DigitalElectrical, TensorSet::all())
        .read_energy(Energy::from_picojoules(1.3))
        .write_energy(Energy::from_picojoules(1.7))
        .fanout(Fanout::new(8).allow(DimSet::from_dims(&[Dim::M, Dim::C])))
        .done()
        .per_cycle("laser", Energy::ZERO, false)
        .per_cycle("glb", Energy::from_picojoules(0.37), true)
        .per_cycle("laser", Energy::from_picojoules(2.9), false)
        .per_cycle("laser", Energy::from_picojoules(0.11), true)
        .compute(
            "mac",
            Domain::DigitalElectrical,
            Energy::from_picojoules(0.23),
        )
        .build()
        .expect("valid arch");
    let layers = [
        Layer::conv2d("conv", 1, 16, 8, 8, 8, 3, 3),
        Layer::fully_connected("fc", 2, 24, 40),
    ];
    assert!(check_objective(&arch, &layers, 5) > 20);

    // The breakdown really merged the three lasers into one item.
    let system = System::new(arch.clone(), MappingStrategy::default());
    let eval = system.evaluate_layer(&layers[0]).expect("layer maps");
    let lasers = eval.energy.items().iter().filter(|i| i.label == "laser");
    assert_eq!(lasers.count(), 1);
}
