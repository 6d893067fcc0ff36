//! Integration: the evolving-database prediction loop and the headline
//! claims of the paper at reduced scale — NNLP beats the static proxies
//! on an unseen family, and the pre-trained embedding transfers.

use nnlqp_ir::Graph;
use nnlqp_ir::Rng64;
use nnlqp_models::ModelFamily;
use nnlqp_predict::baselines::{StaticBaseline, StaticBaselineKind};
use nnlqp_predict::train::{predict_samples, train, truths, Dataset, TrainConfig};
use nnlqp_predict::{extract_features, mape, NnlpConfig, NnlpModel};
use nnlqp_sim::{measure, PlatformSpec};

fn measured(fam: ModelFamily, n: usize, seed: u64, p: &PlatformSpec) -> Vec<(Graph, f64)> {
    nnlqp_models::generate_family(fam, n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            let l = measure(&m.graph, p, 10, seed ^ (i as u64) << 6).mean_ms;
            (m.graph, l)
        })
        .collect()
}

/// The headline Table 3 shape at mini scale: train on three families,
/// test on a held-out fourth; NNLP must beat FLOPs and FLOPs+MAC.
#[test]
fn nnlp_beats_static_proxies_on_unseen_family() {
    let p = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").unwrap();
    // As in Table 3's folds, the training families cover the same
    // operator vocabulary as the held-out one (MnasNet supplies the
    // depthwise blocks that MobileNetV2 is built from).
    let mut train_data = Vec::new();
    for f in [
        ModelFamily::ResNet,
        ModelFamily::Vgg,
        ModelFamily::MnasNet,
        ModelFamily::SqueezeNet,
    ] {
        train_data.extend(measured(f, 25, 3, &p));
    }
    let test_data = measured(ModelFamily::MobileNetV2, 30, 4, &p);

    // Static baselines.
    let pairs: Vec<(&Graph, f64)> = train_data.iter().map(|(g, l)| (g, *l)).collect();
    let flops = StaticBaseline::fit(StaticBaselineKind::Flops, &pairs);
    let fm = StaticBaseline::fit(StaticBaselineKind::FlopsMac, &pairs);

    // NNLP.
    let entries: Vec<(&Graph, f64, usize)> =
        train_data.iter().map(|(g, l)| (g, *l, 0usize)).collect();
    let ds = Dataset::build(&entries);
    let mut rng = Rng64::new(5);
    let mut model = NnlpModel::new(
        NnlpConfig {
            hidden: 48,
            head_hidden: 48,
            gnn_layers: 3,
            dropout: 0.05,
            ..Default::default()
        },
        ds.norm.clone(),
        &mut rng,
    );
    train(
        &mut model,
        &ds.samples,
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 1e-3,
            seed: 6,
        },
    );

    let t: Vec<f64> = test_data.iter().map(|(_, l)| *l).collect();
    let m_flops = mape(
        &test_data
            .iter()
            .map(|(g, _)| flops.predict(g))
            .collect::<Vec<_>>(),
        &t,
    );
    let m_fm = mape(
        &test_data
            .iter()
            .map(|(g, _)| fm.predict(g))
            .collect::<Vec<_>>(),
        &t,
    );
    let m_nnlp = mape(
        &test_data
            .iter()
            .map(|(g, _)| model.predict_ms(&extract_features(g), 0))
            .collect::<Vec<_>>(),
        &t,
    );
    assert!(
        m_nnlp < m_flops && m_nnlp < m_fm,
        "NNLP {m_nnlp:.1}% should beat FLOPs {m_flops:.1}% and FLOPs+MAC {m_fm:.1}%"
    );
}

/// Multi-platform heads specialize: the same backbone predicts different
/// platforms with different heads and each head tracks its platform.
#[test]
fn multi_platform_heads_specialize() {
    let gpu = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").unwrap();
    let asic = PlatformSpec::by_name("rv1109-rknn-int8").unwrap();
    let graphs: Vec<Graph> = nnlqp_models::generate_family(ModelFamily::SqueezeNet, 30, 7)
        .into_iter()
        .map(|m| m.graph)
        .collect();
    let mut entries: Vec<(&Graph, f64, usize)> = Vec::new();
    let gl: Vec<f64> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| measure(g, &gpu, 10, i as u64).mean_ms)
        .collect();
    let al: Vec<f64> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| measure(g, &asic, 10, i as u64).mean_ms)
        .collect();
    for (i, g) in graphs.iter().enumerate() {
        entries.push((g, gl[i], 0));
        entries.push((g, al[i], 1));
    }
    let ds = Dataset::build(&entries);
    let mut rng = Rng64::new(8);
    let mut model = NnlpModel::new(
        NnlpConfig {
            hidden: 32,
            head_hidden: 32,
            gnn_layers: 2,
            n_heads: 2,
            dropout: 0.0,
            ..Default::default()
        },
        ds.norm.clone(),
        &mut rng,
    );
    train(
        &mut model,
        &ds.samples,
        TrainConfig {
            epochs: 40,
            batch_size: 16,
            lr: 2e-3,
            seed: 9,
        },
    );
    // Evaluate per head on the training pool (sanity of specialization).
    let (gpu_samples, asic_samples): (Vec<_>, Vec<_>) =
        ds.samples.iter().cloned().partition(|s| s.head == 0);
    let mg = mape(
        &predict_samples(&model, &gpu_samples),
        &truths(&gpu_samples),
    );
    let ma = mape(
        &predict_samples(&model, &asic_samples),
        &truths(&asic_samples),
    );
    assert!(mg < 35.0, "gpu head MAPE {mg}%");
    assert!(ma < 35.0, "asic head MAPE {ma}%");
    // The ASIC is dramatically slower; heads must reflect that.
    let s = &gpu_samples[0];
    let nodes = s.nodes.to_matrix();
    let (pg, _) = model.forward(&nodes, &s.adj, &s.stat, 0, None);
    let (pa, _) = model.forward(&nodes, &s.adj, &s.stat, 1, None);
    assert!(
        (pa - pg) > 0.5,
        "asic log-latency {pa} should clearly exceed gpu {pg}"
    );
}

/// The kernel-additivity violation survives the whole pipeline: an
/// nn-Meter-style corrected sum must undershoot the naive kernel sum.
#[test]
fn kernel_sum_overestimates_and_correction_helps() {
    let p = PlatformSpec::by_name("gpu-gtx1660-trt7.1-fp32").unwrap();
    let data = measured(ModelFamily::GoogleNet, 12, 21, &p);
    for (g, measured_ms) in &data {
        let sum = nnlqp_sim::exec::sum_kernel_latencies_ms(g, &p);
        assert!(
            sum > *measured_ms,
            "kernel sum {sum} should exceed model latency {measured_ms}"
        );
    }
}
