//! Cross-crate substrate behaviour under the real force program: circular
//! buffer back-pressure, dst-capacity overflows panicking the launch, L1
//! exhaustion, and device reset semantics.

use std::sync::Arc;

use nbody::ic::{plummer, PlummerConfig};
use nbody_tt::{DeviceForcePipeline, ForceEvaluator};
use tensix::cb::CircularBufferConfig;
use tensix::grid::CoreRangeSet;
use tensix::{DataFormat, Device, DeviceConfig, TensixError};
use ttmetal::cb_index;
use ttmetal::{CommandQueue, ComputeCtx, ComputeFn, LaunchError, Program};

#[test]
fn force_program_survives_minimal_cb_depths() {
    // The pipeline's CBs are sized at the minimum that avoids deadlock;
    // a full evaluation through them is the strongest back-pressure test.
    let n = 300;
    let sys = plummer(PlummerConfig { n, seed: 70, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    let pipeline = DeviceForcePipeline::new(Arc::clone(&device), n, 0.01, 1).unwrap();
    let f = pipeline.evaluate_checked(&sys).unwrap();
    assert_eq!(f.len(), n);
    // NoC traffic was accounted: 6 target and 7 packed source pages read,
    // 6 result pages written for the one target tile.
    assert_eq!(device.noc().total_bytes(), (19 * 4096) as u64);
}

/// A dst overflow is a kernel bug, not a device fault: the launch panics
/// instead of hanging or returning a retryable error. It runs on its own
/// thread so the test sees the panic as the launch's outcome.
#[test]
fn dst_overflow_in_a_kernel_is_a_fault_not_a_hang() {
    let launch = std::thread::spawn(|| {
        let device = Device::new(0, DeviceConfig::default());
        let mut queue = CommandQueue::new(Arc::clone(&device));
        let cores = CoreRangeSet::first_n(1, 8);
        let mut p = Program::new();
        p.add_circular_buffer(
            cores.clone(),
            cb_index::IN0,
            CircularBufferConfig::new(1, DataFormat::Float32),
        );
        p.add_compute_kernel(
            "dst-overflow",
            cores,
            DataFormat::Float32,
            Arc::new(ComputeFn(async |ctx: &mut ComputeCtx| -> tensix::Result<()> {
                ctx.tile_regs_acquire();
                for i in 0..9 {
                    // FP32 capacity is 8: the 9th write must fault.
                    ctx.fill_tile(i, 1.0);
                }
                Ok(())
            })),
        );
        queue.enqueue_program(&p)
    });
    let outcome = launch.join();
    assert!(outcome.is_err(), "the launch returned instead of panicking: {outcome:?}");
}

#[test]
fn l1_exhaustion_is_reported_before_launch() {
    let device = Device::new(0, DeviceConfig::default());
    let mut queue = CommandQueue::new(Arc::clone(&device));
    let cores = CoreRangeSet::first_n(1, 8);
    let mut p = Program::new();
    // Two CBs that together exceed 1.5 MB of L1.
    p.add_circular_buffer(
        cores.clone(),
        cb_index::IN0,
        CircularBufferConfig::new(200, DataFormat::Float32),
    );
    p.add_circular_buffer(
        cores,
        cb_index::IN1,
        CircularBufferConfig::new(200, DataFormat::Float32),
    );
    let err = queue.enqueue_program(&p).unwrap_err();
    assert!(matches!(err, LaunchError::Device(TensixError::L1OutOfMemory { .. })), "{err:?}");
    // The failed launch must not leak L1.
    assert_eq!(device.l1_used(tensix::CoreCoord::new(0, 0)), 0);
}

#[test]
fn pipelines_can_be_rebuilt_after_reset() {
    let n = 128;
    let sys = plummer(PlummerConfig { n, seed: 71, ..PlummerConfig::default() });
    let device = Device::new(0, DeviceConfig::default());
    {
        let pipeline = DeviceForcePipeline::new(Arc::clone(&device), n, 0.01, 1).unwrap();
        pipeline.evaluate_checked(&sys).unwrap();
        assert!(device.dram().allocated_bytes() > 0);
    }
    // Buffers freed on drop; reset clears everything else.
    device.reset().unwrap();
    assert_eq!(device.dram().allocated_bytes(), 0);
    assert_eq!(device.clock().now(), 0.0);
    let pipeline = DeviceForcePipeline::new(Arc::clone(&device), n, 0.01, 1).unwrap();
    let f = pipeline.evaluate_checked(&sys).unwrap();
    assert_eq!(f.len(), n);
}

#[test]
fn packed_source_view_sized_per_tile() {
    // The paper replicates every source particle into its own tile (7 n
    // source tiles); the pipeline keeps the source view packed like the
    // targets: 7 source + 6 target + 6 result buffers of ⌈n/1024⌉ tiles.
    let n = 1100;
    let device = Device::new(0, DeviceConfig::default());
    let before = device.dram().allocated_bytes();
    let _pipeline = DeviceForcePipeline::new(Arc::clone(&device), n, 0.01, 1).unwrap();
    let tiles = 19 * n.div_ceil(1024);
    assert_eq!(device.dram().allocated_bytes() - before, (tiles * 4096) as u64);
}
