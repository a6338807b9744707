use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator};
use std::sync::Arc;
use tensix::{Device, DeviceConfig};

fn main() {
    let n = 1024;
    let sys = plummer(PlummerConfig { n, seed: 1, ..PlummerConfig::default() });
    let dev = Device::new(0, DeviceConfig::default());
    let p = DeviceForcePipeline::new(Arc::clone(&dev), n, 0.01, 1).unwrap();
    let _ = p.evaluate_checked(&sys).unwrap();
    let t = p.timing();
    // one core, 1 target tile, 1024 sources -> pairs = 1024*1024 per core
    let pairs = (n * n) as f64;
    println!("compute cycles: {}", t.last_eval_cycles);
    println!("cycles/pair (per core): {}", t.last_eval_cycles as f64 / pairs);
    println!("device seconds: {}", t.device_seconds);
    println!("io seconds: {}", t.io_seconds);
}
