//! Pins the in-crate activations of both lanes: accuracy against the
//! platform's libm, the exact values and symmetries the models lean on,
//! behaviour on hostile inputs, slice ≡ scalar, and — the test that makes
//! "independent of profile, host libm and vector width" enforceable — a
//! 64-bit fold of the outputs over a fixed input grid, pinned for **every**
//! profile and target. libm is consulted only for the accuracy bounds, which
//! are wide enough (several ULP) to hold against any conforming libm; the
//! pinned fold consults nothing but the kernels.
//!
//! The `f32` kernels are driven through `f64` wrappers (widening is exact
//! and injective, so bitwise claims carry over) and compared against `f64`
//! libm evaluated at the `f32` input.

use idsbench_nn::activation::{exp, sigmoid, tanh};
use idsbench_nn::wide::{fast_exp_f32, fast_tanh_f32, sigmoid_f32};
use idsbench_nn::{Activation, Lane};
use proptest::prelude::*;

type Kernel = fn(f64) -> f64;

/// One lane's kernels behind `f64 → f64` signatures, with its bounds.
struct Kernels {
    name: &'static str,
    /// Rounds to the nearest value the lane can hold.
    quantize: Kernel,
    exp: Kernel,
    sigmoid: Kernel,
    tanh: Kernel,
    /// Finite range of `exp` the accuracy bound is checked over.
    exp_range: (f64, f64),
    /// From here on `tanh` must be within one ULP of ±1.
    tanh_saturated: f64,
    /// Relative-error ceilings against libm (observed worst cases in the
    /// comments; the ceilings leave room for a libm that is itself an ULP
    /// or two off).
    exp_eps: f64,
    sigmoid_eps: f64,
    tanh_eps: f64,
    /// The lane's machine epsilon and (just above) its smallest normal.
    ulp: f64,
    tiny: f64,
    /// Rotate-xor fold of the outputs over [`fold_of`]'s grid.
    pinned_fold: u64,
}

const F64: Kernels = Kernels {
    name: "f64",
    quantize: |x| x,
    exp,
    sigmoid,
    tanh,
    exp_range: (-708.0, 709.0),
    tanh_saturated: 20.0,
    exp_eps: 4e-16,     // observed 2.3e-16
    sigmoid_eps: 1e-15, // observed 4.5e-16
    tanh_eps: 1e-14,    // observed 6.1e-16
    ulp: f64::EPSILON,
    tiny: 3e-308,
    pinned_fold: 0x018e_ce44_1528_9068,
};

const F32: Kernels = Kernels {
    name: "f32",
    quantize: |x| f64::from(x as f32),
    exp: |x| f64::from(fast_exp_f32(x as f32)),
    sigmoid: |x| f64::from(sigmoid_f32(x as f32)),
    tanh: |x| f64::from(fast_tanh_f32(x as f32)),
    exp_range: (-87.0, 88.0),
    tanh_saturated: 10.0,
    exp_eps: 1e-6,     // observed 2.5e-7
    sigmoid_eps: 1e-6, // observed 2.8e-7
    tanh_eps: 1e-6,    // observed 6.5e-7
    ulp: f32::EPSILON as f64,
    tiny: 2e-38,
    pinned_fold: 0xbab0_f54f_1e9e_ba7a,
};

const LANES: [&Kernels; 2] = [&F64, &F32];

/// The two-branch libm sigmoid the crate used to ship: the reference.
fn libm_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn rel_err(got: f64, want: f64) -> f64 {
    if got == want {
        0.0
    } else {
        ((got - want) / want).abs()
    }
}

/// Worst relative error of `kernel` against `reference` over `points`.
fn worst(
    lane: &Kernels,
    kernel: Kernel,
    reference: Kernel,
    points: impl Iterator<Item = f64>,
) -> (f64, f64) {
    let mut worst = (0.0, 0.0);
    for x in points.map(lane.quantize) {
        let err = rel_err(kernel(x), reference(x));
        if err > worst.0 {
            worst = (err, x);
        }
    }
    worst
}

/// `count` evenly spaced points over `[from, to]`.
fn linear(from: f64, to: f64, count: usize) -> impl Iterator<Item = f64> {
    (0..=count).map(move |i| from + (to - from) * (i as f64 / count as f64))
}

/// Both signs of a geometric grid from `from` up to `to`.
fn geometric(from: f64, to: f64, ratio: f64) -> impl Iterator<Item = f64> {
    let mut x = from;
    std::iter::from_fn(move || {
        (x <= to).then(|| {
            let out = x;
            x *= ratio;
            out
        })
    })
    .flat_map(|x| [x, -x])
}

#[test]
fn relative_error_against_libm_on_dense_grids() {
    for lane in LANES {
        let (lo, hi) = lane.exp_range;
        let (err, at) = worst(lane, lane.exp, f64::exp, linear(lo, hi, 1_500_000));
        assert!(err <= lane.exp_eps, "{} exp: {err:e} at {at}", lane.name);
        println!("{} exp worst {err:e} at {at}", lane.name);

        // The sigmoid's interesting stretch densely, then the whole range
        // over which its reference is a normal number.
        let (err, at) = worst(lane, lane.sigmoid, libm_sigmoid, linear(-40.0, 40.0, 1_500_000));
        assert!(err <= lane.sigmoid_eps, "{} sigmoid: {err:e} at {at}", lane.name);
        println!("{} sigmoid worst {err:e} at {at}", lane.name);
        let (err, at) = worst(lane, lane.sigmoid, libm_sigmoid, linear(lo, -lo, 300_000));
        assert!(err <= lane.sigmoid_eps, "{} sigmoid (wide): {err:e} at {at}", lane.name);

        // tanh linearly across both formulations and the saturation knee,
        // geometrically from the smallest normal up (relative error near
        // zero is what a naive `1 − 2/(e^{2x}+1)` loses).
        let sat = lane.tanh_saturated;
        let (err, at) = worst(lane, lane.tanh, f64::tanh, linear(-sat, sat, 1_500_000));
        assert!(err <= lane.tanh_eps, "{} tanh: {err:e} at {at}", lane.name);
        println!("{} tanh worst {err:e} at {at}", lane.name);
        let (err, at) = worst(lane, lane.tanh, f64::tanh, geometric(lane.tiny, 1.0, 1.003));
        assert!(err <= lane.tanh_eps, "{} tanh (small): {err:e} at {at}", lane.name);
        println!("{} tanh (small) worst {err:e} at {at}", lane.name);
    }
}

#[test]
fn exact_values_and_symmetry() {
    for lane in LANES {
        assert_eq!((lane.exp)(0.0), 1.0, "{} exp(0)", lane.name);
        assert_eq!((lane.exp)(-0.0), 1.0, "{} exp(-0)", lane.name);
        assert_eq!((lane.sigmoid)(0.0), 0.5, "{} sigmoid(0)", lane.name);
        assert_eq!((lane.tanh)(0.0).to_bits(), 0.0f64.to_bits(), "{} tanh(+0)", lane.name);
        assert_eq!((lane.tanh)(-0.0).to_bits(), (-0.0f64).to_bits(), "{} tanh(-0)", lane.name);
        // Odd, bit for bit — `copysign` of a function of |x|.
        for x in linear(0.0, 25.0, 200_000).chain(geometric(1e-40, 1.0, 1.01)).map(lane.quantize) {
            let (pos, neg) = ((lane.tanh)(x), (lane.tanh)(-x));
            assert_eq!(neg.to_bits(), (-pos).to_bits(), "{} tanh(±{x})", lane.name);
        }
        // Saturation: within one ULP of ±1, never beyond it.
        for x in geometric(lane.tanh_saturated, 1e300, 1.7).map(lane.quantize) {
            let t = (lane.tanh)(x);
            assert!(t.abs() <= 1.0 && 1.0 - t.abs() <= lane.ulp, "{} tanh({x}) = {t}", lane.name);
            assert_eq!(t.is_sign_negative(), x.is_sign_negative());
        }
    }
}

#[test]
fn non_decreasing_on_sorted_grids() {
    for lane in LANES {
        // ln 2 / 4: where the reduction of 2|x| leaves k = 0 and tanh
        // switches from the polynomial's r·q to e − 1. A fine grid across it
        // (the negative side follows from oddness), then coarse ones over
        // the stretch where the function climbs faster than it rounds —
        // out on the plateaus a last-place wobble is all that is left of it.
        let cut = std::f64::consts::LN_2 / 4.0;
        let step = 64.0 * lane.ulp;
        let around_cut = linear(cut - 40_000.0 * step, cut + 40_000.0 * step, 80_000);
        let grids: [(&str, Kernel, Vec<f64>); 4] = [
            ("tanh across the cut", lane.tanh, around_cut.collect()),
            ("tanh", lane.tanh, linear(-3.0, 3.0, 400_000).collect()),
            ("sigmoid", lane.sigmoid, linear(-6.0, 6.0, 400_000).collect()),
            ("exp", lane.exp, linear(lane.exp_range.0, lane.exp_range.1, 400_000).collect()),
        ];
        for (what, kernel, grid) in grids {
            let mut previous = f64::NEG_INFINITY;
            for x in grid.into_iter().map(lane.quantize) {
                let y = kernel(x);
                assert!(y >= previous, "{} {what}: f({x}) = {y} < {previous}", lane.name);
                previous = y;
            }
        }
    }
}

#[test]
fn hostile_inputs_return() {
    for lane in LANES {
        for kernel in [lane.exp, lane.sigmoid, lane.tanh] {
            assert!(kernel(f64::NAN).is_nan(), "{}: NaN must stay NaN", lane.name);
        }
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        assert_eq!((lane.exp)(inf), inf);
        // Saturating, not flushing: the smallest positive normal.
        assert!((lane.exp)(ninf) > 0.0 && (lane.exp)(ninf) < 1e-37);
        assert_eq!(((lane.sigmoid)(inf), (lane.sigmoid)(ninf)), (1.0, 0.0));
        assert_eq!(((lane.tanh)(inf), (lane.tanh)(ninf)), (1.0, -1.0));
        // Subnormals and everything past the clamps.
        for x in [5e-324, 1e-310, 1e-45, 1e-39, 89.0, 200.0, 710.0, 1e4, 1e300, f64::MAX] {
            for x in [x, -x].map(lane.quantize) {
                let (e, s, t) = ((lane.exp)(x), (lane.sigmoid)(x), (lane.tanh)(x));
                assert!(e > 0.0, "{} exp({x}) = {e}", lane.name);
                assert!((0.0..=1.0).contains(&s), "{} sigmoid({x}) = {s}", lane.name);
                assert!((-1.0..=1.0).contains(&t), "{} tanh({x}) = {t}", lane.name);
                if x.abs() < 1e-30 {
                    assert_eq!(t, x, "{} tanh of a tiny value is the value", lane.name);
                }
            }
        }
    }
}

/// `Activation::apply` over every length 1..=67 (vector bodies of 4, 8 and
/// 16 lanes, each with every tail length) against the scalar call.
fn slices_match_scalars<L: Lane>() {
    for activation in [Activation::Sigmoid, Activation::Tanh, Activation::Relu, Activation::Linear]
    {
        for len in 1..=67 {
            let xs: Vec<L> = (0..len)
                .map(|i| L::from_f64(((i * 37 + len * 11) % 101) as f64 * 0.25 - 12.5))
                .collect();
            let mut applied = xs.clone();
            activation.apply(&mut applied);
            for (i, (&x, &y)) in xs.iter().zip(&applied).enumerate() {
                assert_eq!(
                    y.to_f64().to_bits(),
                    activation.eval(x).to_f64().to_bits(),
                    "{activation:?} len {len} element {i}"
                );
            }
        }
    }
}

#[test]
fn slice_pass_equals_per_element_calls() {
    slices_match_scalars::<f64>();
    slices_match_scalars::<f32>();
}

/// Rotate-xor fold of the raw output bits over a grid built from integers by
/// exact operations only (no libm anywhere in this function): `exp` in
/// steps of 1/8 over its whole range, `sigmoid` and `tanh` in steps of 1/64
/// over ±40, and both through a slice pass so the vectorized code is what
/// gets folded.
fn fold_of<L: Lane>(lane: &Kernels) -> u64 {
    let mut digest = 0u64;
    let mut fold = |v: f64| digest = digest.rotate_left(7) ^ v.to_bits();
    let (lo, hi) = lane.exp_range;
    for i in (lo * 8.0) as i64..=(hi * 8.0) as i64 {
        fold((lane.exp)(i as f64 / 8.0));
    }
    let grid: Vec<L> = (-2560..=2560).map(|i| L::from_f64(f64::from(i) / 64.0)).collect();
    for activation in [Activation::Sigmoid, Activation::Tanh] {
        let mut ys = grid.clone();
        activation.apply(&mut ys);
        ys.iter().for_each(|y| fold(y.to_f64()));
    }
    digest
}

/// No `cfg` on this test: the same constant in debug and release, on any
/// target, at any vector width.
#[test]
fn output_bits_are_pinned_for_every_profile_and_target() {
    for (lane, fold) in [(&F64, fold_of::<f64>(&F64)), (&F32, fold_of::<f32>(&F32))] {
        assert_eq!(
            fold, lane.pinned_fold,
            "{}: fold {fold:#018x} != pinned {:#018x} — the activation kernels changed, or this \
             build rounds one of their operations differently (fused multiply-add? fast-math?)",
            lane.name, lane.pinned_fold
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random points instead of a lattice: the same bounds.
    #[test]
    fn random_points_stay_within_the_bounds(u in 0.0f64..1.0, v in -40.0f64..40.0) {
        for lane in LANES {
            let (lo, hi) = lane.exp_range;
            let x = (lane.quantize)(lo + u * (hi - lo));
            prop_assert!(rel_err((lane.exp)(x), x.exp()) <= lane.exp_eps, "{} exp({})", lane.name, x);
            let v = (lane.quantize)(v);
            prop_assert!(
                rel_err((lane.sigmoid)(v), libm_sigmoid(v)) <= lane.sigmoid_eps,
                "{} sigmoid({})", lane.name, v
            );
            prop_assert!(rel_err((lane.tanh)(v), v.tanh()) <= lane.tanh_eps, "{} tanh({})", lane.name, v);
        }
    }

    /// Any bit pattern at all: no panic, NaN in ⇒ NaN out, ranges kept.
    #[test]
    fn arbitrary_bit_patterns_return(bits in any::<u64>()) {
        let wide = f64::from_bits(bits);
        let narrow = f64::from(f32::from_bits(bits as u32));
        for (lane, x) in [(&F64, wide), (&F32, narrow)] {
            let (e, s, t) = ((lane.exp)(x), (lane.sigmoid)(x), (lane.tanh)(x));
            if x.is_nan() {
                prop_assert!(e.is_nan() && s.is_nan() && t.is_nan(), "{} NaN lost", lane.name);
            } else {
                prop_assert!(e > 0.0, "{} exp({}) = {}", lane.name, x, e);
                prop_assert!((0.0..=1.0).contains(&s), "{} sigmoid({}) = {}", lane.name, x, s);
                prop_assert!((-1.0..=1.0).contains(&t), "{} tanh({}) = {}", lane.name, x, t);
            }
        }
    }
}
