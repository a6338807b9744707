//! Semaphore coordination inside a running program: the reader paces itself
//! on a token the writer posts — the handshake pattern multi-core
//! TT-Metalium kernels use around multicast.

use std::sync::Arc;

use tensix::cb::CircularBufferConfig;
use tensix::grid::CoreRangeSet;
use tensix::{DataFormat, Device, DeviceConfig, NocId, Tile};
use ttmetal::{cb_index, Buffer, CommandQueue, ComputeCtx, ComputeFn, DataMovementCtx, Program};

const SEM_READY: u8 = 0;

#[test]
fn writer_paces_reader_through_semaphore() {
    let device = Device::new(0, DeviceConfig::default());
    let mut queue = CommandQueue::new(Arc::clone(&device));
    let cores = CoreRangeSet::first_n(1, 8);

    let n_tiles = 6usize;
    let input = Buffer::new(&device, DataFormat::Float32, n_tiles).unwrap();
    let output = Buffer::new(&device, DataFormat::Float32, n_tiles).unwrap();
    let tiles: Vec<Tile> =
        (0..n_tiles).map(|i| Tile::splat(DataFormat::Float32, i as f32)).collect();
    queue.enqueue_write_buffer(&input, &tiles).unwrap();

    let mut p = Program::new();
    let cfg = CircularBufferConfig::new(2, DataFormat::Float32);
    p.add_circular_buffer(cores.clone(), cb_index::IN0, cfg);
    p.add_circular_buffer(cores.clone(), cb_index::OUT0, cfg);
    p.add_semaphore(cores.clone(), SEM_READY, 0);

    let inref = input.reference();
    let outref = output.reference();

    // Reader waits for the "go" token before streaming anything.
    p.add_data_movement_kernel(
        "gated-reader",
        cores.clone(),
        NocId::Noc0,
        Arc::new(async move |ctx: &mut DataMovementCtx| -> tensix::Result<()> {
            ctx.noc_semaphore_wait(SEM_READY, 1).await;
            for page in 0..n_tiles {
                ctx.read_page_to_cb(cb_index::IN0, inref, page).await?;
            }
            Ok(())
        }),
    );
    // Compute passes tiles through and negates them.
    p.add_compute_kernel(
        "negate",
        cores.clone(),
        DataFormat::Float32,
        Arc::new(ComputeFn(async move |ctx: &mut ComputeCtx| -> tensix::Result<()> {
            for _ in 0..n_tiles {
                ctx.cb_wait_front(cb_index::IN0, 1).await;
                ctx.tile_regs_acquire();
                ctx.copy_tile(cb_index::IN0, 0, 0);
                ctx.negative_tile(0);
                ctx.tile_regs_commit();
                ctx.cb_reserve_back(cb_index::OUT0, 1).await;
                ctx.pack_tile(0, cb_index::OUT0);
                ctx.cb_push_back(cb_index::OUT0, 1);
                ctx.tile_regs_release();
                ctx.cb_pop_front(cb_index::IN0, 1);
            }
            Ok(())
        })),
    );
    // Writer posts the token first (it owns the output window), then drains.
    p.add_data_movement_kernel(
        "token-writer",
        cores,
        NocId::Noc1,
        Arc::new(async move |ctx: &mut DataMovementCtx| -> tensix::Result<()> {
            ctx.noc_semaphore_inc(SEM_READY, 1);
            for page in 0..n_tiles {
                ctx.write_cb_to_page(cb_index::OUT0, outref, page).await?;
            }
            Ok(())
        }),
    );

    queue.enqueue_program(&p).unwrap();
    let result = queue.enqueue_read_buffer(&output).unwrap();
    for (i, t) in result.iter().enumerate() {
        assert_eq!(t.get(0, 0), -(i as f32), "tile {i}");
    }
}

/// A semaphore the program never declared is a kernel bug, not a device
/// fault: the launch panics instead of hanging or returning a retryable
/// error.
#[test]
#[should_panic(expected = "semaphore 9 is not configured")]
fn unknown_semaphore_is_a_fault() {
    let device = Device::new(0, DeviceConfig::default());
    let mut queue = CommandQueue::new(Arc::clone(&device));
    let cores = CoreRangeSet::first_n(1, 8);
    let mut p = Program::new();
    p.add_data_movement_kernel(
        "bad",
        cores,
        NocId::Noc0,
        Arc::new(async |ctx: &mut DataMovementCtx| -> tensix::Result<()> {
            ctx.noc_semaphore_inc(9, 1); // never declared
            Ok(())
        }),
    );
    let _ = queue.enqueue_program(&p);
}

/// A token nobody posts deadlocks its core the way an empty CB does: the
/// waiter is the first kernel still waiting, and the kernel that set the
/// semaphore to the wrong value has finished.
#[test]
fn token_nobody_posts_deadlocks_the_core() {
    let device = Device::new(0, DeviceConfig::default());
    let mut queue = CommandQueue::new(Arc::clone(&device));
    let cores = CoreRangeSet::first_n(1, 8);
    let mut p = Program::new();
    p.add_semaphore(cores.clone(), SEM_READY, 0);
    p.add_data_movement_kernel(
        "waiter",
        cores.clone(),
        NocId::Noc0,
        Arc::new(async |ctx: &mut DataMovementCtx| -> tensix::Result<()> {
            ctx.noc_semaphore_wait(SEM_READY, 2).await;
            Ok(())
        }),
    );
    p.add_data_movement_kernel(
        "setter",
        cores,
        NocId::Noc1,
        Arc::new(async |ctx: &mut DataMovementCtx| -> tensix::Result<()> {
            ctx.noc_semaphore_set(SEM_READY, 1);
            Ok(())
        }),
    );
    match queue.enqueue_program(&p).unwrap_err() {
        ttmetal::LaunchError::Deadlock { kernel, .. } => assert_eq!(kernel, "waiter"),
        other => panic!("expected Deadlock, got {other:?}"),
    }
}
