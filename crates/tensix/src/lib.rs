//! # tensix — a Tenstorrent Wormhole n300 simulator
//!
//! Functional **and** timing/energy model of the Wormhole accelerator used by
//! the SC'25 paper *"Accelerating Gravitational N-Body Simulations Using the
//! RISC-V-Based Tenstorrent Wormhole"*. The crate provides every hardware
//! feature the paper's port relies on:
//!
//! * 32×32 [`tile::Tile`]s with faces and tilized layout, in FP32 / BF16 /
//!   FP16 / BFP8 [`dtype::DataFormat`]s;
//! * the 8×8 Tensix [`grid`], per-core 1.5 MB [`l1`] SRAM;
//! * software-managed [`cb`] circular buffers with the
//!   `reserve_back` / `push_back` / `wait_front` / `pop_front` semantics;
//! * the [`dst`] register file with its 16-tile (BF16) / 8-tile (FP32)
//!   capacity;
//! * the [`srcreg`] srcA/srcB source registers fed by the unpacker
//!   (including stride-0 lane broadcasts);
//! * [`sfpu`] vector ops (including `rsqrt`) and [`fpu`] tensor ops;
//! * the two-[`noc`] interconnect and banked GDDR6 [`dram`];
//! * [`ethernet`] links for multi-card scaling;
//! * per-kernel [`cost`] accounting, the virtual [`clock`], the Fig.-4
//!   [`power`] model and a [`device`] with seeded reset-failure injection;
//! * a seeded mid-run [`fault`] injector (NoC transients, DRAM ECC, link
//!   flaps, kernel stalls, device loss) for fault-tolerance testing.
//!
//! Higher layers: the `ttmetal` crate builds the TT-Metalium-style
//! programming interface on top of this crate, and `nbody-tt` implements the
//! paper's force/jerk pipeline with it.

#![warn(missing_docs)]

pub mod catalog;
pub mod cb;
pub mod clock;
pub mod cost;
pub mod device;
pub mod dram;
pub mod dst;
pub mod dtype;
pub mod error;
pub mod ethernet;
pub mod fault;
pub mod fpu;
pub mod grid;
pub mod l1;
pub mod noc;
pub mod power;
pub mod sfpu;
pub mod srcreg;
pub mod storm;
pub mod tile;

pub use catalog::{DeviceArch, DeviceCatalog};
pub use cb::{CbStats, ChangeCounter, CircularBuffer, CircularBufferConfig};
pub use clock::{CycleCounter, DeviceClock, KernelTiming};
pub use cost::{CostModel, CLOCK_HZ};
pub use device::{Device, DeviceConfig, ResetStats};
pub use dram::{BufferId, DramModel, DramRequester, DramStats, DRAM_CAPACITY, DRAM_CHANNELS};
pub use dst::DstRegisters;
pub use dtype::DataFormat;
pub use error::{Result, TensixError};
pub use fault::{DramReadFault, FaultClass, FaultConfig, FaultPlan, FaultStats, ScrubConfig};
pub use grid::{CoreCoord, CoreRange, CoreRangeSet, GridSize};
pub use noc::{NocId, NocModel};
pub use power::{PowerParams, PowerState, PowerTimeline};
pub use srcreg::{SrcReg, SrcRegisters};
pub use storm::{backend_storm, BackendStorm, StormConfig};
pub use tile::{
    pack_vector, pack_vector_rows, row_elems, tilize, unpack_vector, unpack_vector_rows, untilize,
    Tile, HALF_TILE_ROWS, TILE_DIM, TILE_ELEMS,
};
