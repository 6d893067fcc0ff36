//! §9: "How does NNLQP help model design?" — the four concrete design
//! decisions the paper walks through, answered against the simulator:
//!
//! 1. which operators to avoid on a platform (toolchain support),
//! 2. which backbone wins the latency/accuracy trade (RegNetX vs ResNet),
//! 3. which hardware to deploy on (P4 vs T4; atlas300 vs mlu270),
//! 4. what a lower precision actually buys (fp32 vs int8).

use crate::opts::Opts;
use crate::report::{num, print_table, save_json};
use nnlqp_models::{regnet, resnet, ModelFamily};
use nnlqp_sim::{exec::model_latency_ms, PlatformSpec};

/// Run the experiment.
pub fn run(opts: &Opts) {
    println!("Section 9: design decisions answered by latency queries\n");

    // 1. Operator support.
    println!("1. Which operators are not suitable:");
    let mbv3 = ModelFamily::MobileNetV3
        .canonical()
        .expect("generator is valid");
    for platform in [
        "hi3559A-nnie11-int8",
        "rv1109-rknn-int8",
        "gpu-T4-trt7.1-fp32",
    ] {
        let p = PlatformSpec::by_name(platform).expect("registry platform");
        let bad = p.unsupported_in(&mbv3);
        if bad.is_empty() {
            println!("   {platform}: all MobileNetV3 operators supported");
        } else {
            let names: Vec<&str> = bad.iter().map(|o| o.name()).collect();
            println!(
                "   {platform}: avoid {} (falls back to slow host kernels)",
                names.join(", ")
            );
        }
    }

    // 2. Backbone choice: RegNetX-200M vs ResNet18 on P4 int8.
    let p4_int8 = PlatformSpec::by_name("gpu-P4-trt7.1-int8").expect("registry platform");
    let regnet = regnet::build("regnetx-200m", &regnet::RegNetConfig::default()).unwrap();
    let resnet18 = resnet::build("resnet18", &resnet::ResNetConfig::default()).unwrap();
    let lr = model_latency_ms(&regnet, &p4_int8);
    let lres = model_latency_ms(&resnet18, &p4_int8);
    println!("\n2. Backbone choice (P4 int8, similar ImageNet accuracy):");
    print_table(
        &["Backbone", "Latency (ms)", "Relative"],
        &[
            vec!["ResNet18".into(), num(lres, 3), "100%".into()],
            vec![
                "RegNetX-200M".into(),
                num(lr, 3),
                format!("{:.0}%", lr / lres * 100.0),
            ],
        ],
    );
    println!("   paper: RegNetX-200M runs at 150% of ResNet18 despite ~7x fewer FLOPs");

    // 3. Hardware choice.
    let t4_int8 = PlatformSpec::by_name("gpu-T4-trt7.1-int8").expect("registry platform");
    let lp4 = model_latency_ms(&resnet18, &p4_int8);
    let lt4 = model_latency_ms(&resnet18, &t4_int8);
    println!("\n3. Hardware choice (ResNet18, int8, batch 1):");
    println!(
        "   P4 {:.3} ms vs T4 {:.3} ms -> switching to T4 saves {:.0}% (paper: P4 is ~2x T4)",
        lp4,
        lt4,
        (1.0 - lt4 / lp4) * 100.0
    );
    let atlas = PlatformSpec::by_name("atlas300-acl-fp16").expect("registry platform");
    let mlu = PlatformSpec::by_name("mlu270-neuware-int8").expect("registry platform");
    let (la, lm) = (
        model_latency_ms(&resnet18, &atlas),
        model_latency_ms(&resnet18, &mlu),
    );
    println!("   atlas300 {la:.3} ms vs mlu270 {lm:.3} ms (paper: atlas300 is faster)");

    // 4. Data-type choice.
    let t4_fp32 = PlatformSpec::by_name("gpu-T4-trt7.1-fp32").expect("registry platform");
    let lf = model_latency_ms(&resnet18, &t4_fp32);
    let li = model_latency_ms(&resnet18, &t4_int8);
    println!("\n4. Data-type choice (ResNet18 on T4):");
    println!(
        "   fp32 {:.3} ms vs int8 {:.3} ms -> int8 speedup {:.2}x; if a model's speedup is",
        lf,
        li,
        lf / li
    );
    println!("   marginal (<5%), prefer fp32 to avoid accuracy risk (paper's ViT example).");

    save_json(
        &opts.out_dir,
        "decisions",
        &nnlqp_ir::json!({
            "regnet_vs_resnet_p4int8": lr / lres,
            "resnet_p4_over_t4_int8": lp4 / lt4,
            "atlas_ms": la, "mlu_ms": lm,
            "t4_fp32_over_int8": lf / li,
        }),
    );
}
