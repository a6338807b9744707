//! Property-based tests on the device substrate's core invariants.

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use proptest::collection::vec;
use proptest::prelude::*;
use tensix::cb::{CircularBuffer, CircularBufferConfig};
use tensix::dtype::{bf16_round, f16_round, DataFormat};
use tensix::grid::CoreCoord;
use tensix::l1::{L1Allocator, L1_RESERVED, L1_SIZE};
use tensix::tile::{pack_vector, tilize, unpack_vector, untilize, Tile, TILE_ELEMS};

fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![-1.0e20f32..1.0e20f32, -1.0f32..1.0f32, Just(0.0f32), Just(-0.0f32),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// tilize ∘ untilize is the identity for FP32.
    #[test]
    fn tilize_untilize_identity(vals in vec(finite_f32(), 64 * 32)) {
        let (rows, cols) = (64, 32);
        let tiles = tilize(DataFormat::Float32, &vals, rows, cols);
        prop_assert_eq!(untilize(&tiles, rows, cols), vals);
    }

    /// pack ∘ unpack is the identity for any vector length.
    #[test]
    fn pack_unpack_identity(vals in vec(finite_f32(), 1..3000usize)) {
        let n = vals.len();
        let tiles = pack_vector(DataFormat::Float32, &vals, 0.0);
        prop_assert_eq!(tiles.len(), n.div_ceil(TILE_ELEMS));
        prop_assert_eq!(unpack_vector(&tiles, n), vals);
    }

    /// Tilized face layout round-trips for every format (within the
    /// format's own grid: quantize first, then compare).
    #[test]
    fn tilized_face_roundtrip(vals in vec(finite_f32(), TILE_ELEMS)) {
        for format in [DataFormat::Float32, DataFormat::Float16b, DataFormat::Float16] {
            let tile = Tile::from_rowmajor(format, &vals);
            let back = Tile::from_tilized(format, &tile.to_tilized());
            prop_assert_eq!(tile.as_slice(), back.as_slice());
        }
    }

    /// bf16 rounding is idempotent and monotone.
    #[test]
    fn bf16_idempotent_monotone(a in finite_f32(), b in finite_f32()) {
        let ra = bf16_round(a);
        prop_assert_eq!(bf16_round(ra), ra, "idempotence");
        if a <= b {
            prop_assert!(bf16_round(a) <= bf16_round(b), "monotonicity {a} {b}");
        }
    }

    /// f16 rounding never increases magnitude error beyond half an ulp of
    /// the larger-exponent neighbour (coarse bound: 2^-10 relative for
    /// normals in range).
    #[test]
    fn f16_relative_error_bounded(x in 1.0e-3f32..6.0e4f32) {
        let r = f16_round(x);
        prop_assert!(((r - x) / x).abs() <= 1.0 / 1024.0, "x={x} r={r}");
    }

    /// The bump allocator never hands out overlapping or misaligned
    /// regions, and never exceeds L1.
    #[test]
    fn l1_regions_disjoint(sizes in vec(1usize..50_000, 1..20)) {
        let mut alloc = L1Allocator::new(CoreCoord::new(0, 0));
        let mut regions = Vec::new();
        for len in sizes {
            match alloc.alloc(len) {
                Ok(r) => {
                    prop_assert_eq!(r.addr % 32, 0, "alignment");
                    prop_assert!(r.addr >= L1_RESERVED);
                    prop_assert!(r.addr + r.len <= L1_SIZE);
                    for other in &regions {
                        let (a, b): &(usize, usize) = other;
                        prop_assert!(r.addr >= a + b || r.addr + r.len <= *a, "overlap");
                    }
                    regions.push((r.addr, r.len));
                }
                Err(_) => {
                    // Exhaustion is legal; subsequent smaller requests may
                    // still fail, but state must stay consistent.
                    prop_assert!(alloc.used() <= L1_SIZE);
                }
            }
        }
    }

    /// A producer task and a consumer task streaming through one CB keep
    /// every page in FIFO order and never hold more than the CB's depth,
    /// whichever of them is polled at each step.
    #[test]
    fn cb_stream_survives_any_interleaving(
        depth in 1usize..8,
        count in 1usize..40,
        schedule in vec(0usize..2, 0..160),
    ) {
        let cb = CircularBuffer::new(CircularBufferConfig::new(depth, DataFormat::Float32));
        let mut producer = pin!(async {
            for i in 0..count {
                cb.reserve_back(1).await;
                cb.write_tile(&Tile::splat(DataFormat::Float32, i as f32));
                cb.push_back(1);
            }
        });
        let mut consumer = pin!(async {
            let mut seen = Vec::with_capacity(count);
            for _ in 0..count {
                cb.wait_front(1).await;
                seen.push(cb.peek_tile(0).get(0, 0));
                cb.pop_front(1);
            }
            seen
        });
        let mut cx = Context::from_waker(Waker::noop());
        let (mut produced, mut seen) = (false, None);
        // The random schedule, then strict alternation until both finish.
        let alternate = [true, false].into_iter().cycle().take(4 * count + 4);
        for poll_producer in schedule.into_iter().map(|s| s == 1).chain(alternate) {
            if poll_producer && !produced {
                produced = producer.as_mut().poll(&mut cx).is_ready();
            } else if !poll_producer && seen.is_none() {
                if let Poll::Ready(s) = consumer.as_mut().poll(&mut cx) {
                    seen = Some(s);
                }
            }
            prop_assert!(cb.pages_visible() <= depth);
        }
        prop_assert!(produced);
        let expected: Vec<f32> = (0..count).map(|i| i as f32).collect();
        prop_assert_eq!(seen, Some(expected));
        let stats = cb.stats();
        prop_assert_eq!(stats.pages_pushed, count as u64);
        prop_assert_eq!(stats.pages_popped, count as u64);
        prop_assert!(stats.max_occupancy <= depth);
    }

    /// Format conversion through a lower-precision format is idempotent:
    /// converting twice equals converting once.
    #[test]
    fn format_conversion_idempotent(vals in vec(finite_f32(), TILE_ELEMS)) {
        let t = Tile::from_rowmajor(DataFormat::Float32, &vals);
        for format in [DataFormat::Float16b, DataFormat::Float16] {
            let once = t.convert(format);
            let twice = once.convert(format);
            prop_assert_eq!(once.as_slice(), twice.as_slice());
        }
    }
}
