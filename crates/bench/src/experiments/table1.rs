//! Table 1: supported platforms.

use crate::opts::Opts;
use crate::report::print_table;
use nnlqp_sim::{HardwareClass, PlatformSpec};

/// Print the platform registry grouped like Table 1.
pub fn run(opts: &Opts) {
    println!("Table 1: Supported platforms in NNLQ\n");
    let mut rows = Vec::new();
    let mut reg = PlatformSpec::registry();
    reg.sort_by_key(|p| {
        (
            match p.class {
                HardwareClass::Gpu => 0,
                HardwareClass::Cpu => 1,
                HardwareClass::Asic => 2,
            },
            p.hardware.clone(),
            p.name.clone(),
        )
    });
    for p in &reg {
        rows.push(vec![
            match p.class {
                HardwareClass::Gpu => "GPU".to_string(),
                HardwareClass::Cpu => "CPU".to_string(),
                HardwareClass::Asic => "ASIC".to_string(),
            },
            p.hardware.clone(),
            p.software.clone(),
            p.dtype.name().to_string(),
            p.name.clone(),
        ]);
    }
    print_table(
        &["Type", "Hardware", "Software", "Data Type", "Platform Name"],
        &rows,
    );
    crate::report::save_json(
        &opts.out_dir,
        "table1",
        &nnlqp_ir::json!({
            "platforms": reg.iter().map(|p| p.name.clone()).collect::<Vec<_>>(),
        }),
    );
}
